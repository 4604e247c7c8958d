import random

import pytest

from pltlbmc.model import parse_model, explicit_expand
from pltlbmc.pltl import parse_formula, to_pnf, closure, past_depth, s_not
from pltlbmc.sat import SAT, UNSAT, Solver
from pltlbmc.check import SCHEMES, RunOptions, encode_bound, run_bmc, scheme_model
from pltlbmc.encode import (
    E_INDEX,
    L_INDEX,
    IncrementalEncoder,
    PastOperatorError,
    TimedVarMap,
    encode_general_buchi,
    encode_loop_constraints,
    encode_ltl_buchi,
    encode_pltl,
    unroll_model,
)
from pltlbmc.oracle import Budget, exists_witness_bounded, fair_lasso_search

from _fixtures import FIXTURES, INCREMENTAL_SCHEMES
from _grid import random_pnf_formula, random_symbolic_model


def pnf(text):
    return to_pnf(parse_formula(text))


COUNTER = parse_model((FIXTURES / "counter.mod").read_text())
COUNTER_FAIR = parse_model((FIXTURES / "counter_fair.mod").read_text())


def fresh(d_max=None):
    vm = TimedVarMap(Solver(), d_max=d_max)
    return vm.solver, vm


def solve_scheme(scheme, m, psi, k, d_max=None):
    s, vm = fresh(d_max)
    s.add_clause([SCHEMES[scheme].encode(m, psi, k, vm)])
    return s.solve(), s, vm


class TestModelUnrolling:
    def test_k0_is_init_only(self):
        s, vm = fresh()
        unroll_model(COUNTER, 0, vm)
        assert s.solve() == SAT
        assert not any(s.model_value(vm.state_bit(0, n)) for n in COUNTER.vars)

    def test_k6_path_is_unique(self):
        s, vm = fresh()
        unroll_model(COUNTER, 6, vm)
        assert s.solve() == SAT
        xs = []
        for i in range(7):
            bits = [s.model_value(vm.state_bit(i, n)) for n in COUNTER.vars]
            xs.append(sum(v << j for j, v in enumerate(bits)))
        assert xs == [0, 1, 2, 3, 4, 5, 2]

    def test_false_init_is_unsat_at_every_k(self):
        m = parse_model("VAR a\nINIT false\nTRANS true\n")
        for k in range(4):
            s, vm = fresh()
            unroll_model(m, k, vm)
            assert s.solve() == UNSAT


class TestLoopConstraints:
    def test_two_selectors_unsatisfiable(self):
        s, vm = fresh()
        unroll_model(COUNTER, 6, vm)
        encode_loop_constraints(6, vm, COUNTER.vars)
        assert s.solve([vm.loop_sel(2), vm.loop_sel(3)]) == UNSAT

    def test_counter_l3_matches_the_repeated_state(self):
        s, vm = fresh()
        unroll_model(COUNTER, 6, vm)
        encode_loop_constraints(6, vm, COUNTER.vars)
        assert s.solve([vm.loop_sel(3)]) == SAT
        # s_2 = s_6 both carrying x=2
        for n in COUNTER.vars:
            assert s.model_value(vm.state_bit(2, n)) == s.model_value(vm.state_bit(6, n))
        # no other selector can close a loop on this deterministic path
        for j in (1, 2, 4, 5, 6):
            assert s.solve([vm.loop_sel(j)]) == UNSAT

    def test_no_selector_forces_loopexists_false(self):
        s, vm = fresh()
        unroll_model(COUNTER, 3, vm)
        encode_loop_constraints(3, vm, COUNTER.vars)
        assumptions = [-vm.loop_sel(i) for i in range(1, 4)]
        assert s.solve(assumptions) == SAT
        assert s.model_value(vm.loop_exists()) is False
        assert s.solve(assumptions + [vm.loop_exists()]) == UNSAT


class TestLtlSchemes:
    @pytest.mark.parametrize("scheme", ["fixpoint", "eventuality", "buchi"])
    def test_unreachable_eventuality_unsat(self, scheme):
        for k in range(7):
            res, _, _ = solve_scheme(scheme, COUNTER, pnf("F p7"), k)
            assert res == UNSAT

    @pytest.mark.parametrize("scheme", ["fixpoint", "eventuality", "buchi"])
    def test_gf_needs_the_full_loop(self, scheme):
        res6, s, vm = solve_scheme(scheme, COUNTER, pnf("G F x4"), 6)
        res5, _, _ = solve_scheme(scheme, COUNTER, pnf("G F x4"), 5)
        assert (res6, res5) == (SAT, UNSAT)
        assert s.model_value(vm.loop_sel(3))

    @pytest.mark.parametrize("scheme", ["fixpoint", "eventuality", "buchi"])
    def test_past_operators_rejected(self, scheme):
        for incremental in (True, False):
            with pytest.raises(PastOperatorError):
                run_bmc(COUNTER, pnf("Y x0"), RunOptions(scheme=scheme, incremental=incremental, max_k=2))

    def test_no_loop_witness(self):
        res, s, vm = solve_scheme("eventuality", COUNTER, pnf("F x2"), 2)
        assert res == SAT
        assert not any(s.model_value(vm.loop_sel(i)) for i in range(1, 3))

    def test_g_on_a_self_loop_model(self):
        m = parse_model("VAR a\nINIT a\nTRANS next(a)\n")
        res, s, vm = solve_scheme("eventuality", m, pnf("G a"), 1)
        assert res == SAT and s.model_value(vm.loop_sel(1))

    def test_release_acceptance_keeps_the_model_unique(self):
        """With the release chain present, formula values are forced."""
        m = parse_model("VAR a\nINIT a\nTRANS next(a)\n")
        psi = pnf("false R a")  # G a
        s, vm = fresh()
        s.add_clause([encode_ltl_buchi(m, psi, 1, vm)])
        assert s.solve([vm.loop_sel(1)]) == SAT
        blocking = []
        for (role, *_), var in vm.lits.items():
            if role in ("formula", "aux"):
                blocking.append(-var if s.model_value(var) else var)
        s.add_clause(blocking)
        assert s.solve([vm.loop_sel(1)]) == UNSAT


class TestSchemeAgreement:
    def test_small_grid(self):
        rng = random.Random(53)
        budget = Budget(max_bits=4, max_k=6)
        for _ in range(25):
            m = random_symbolic_model(rng, bits=rng.randint(1, 2))
            em = explicit_expand(m)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, allow_past=False)
            for k in range(0, 5):
                expected = exists_witness_bounded(em, psi, k, budget)
                for scheme in ("fixpoint", "eventuality", "buchi", "pltl"):
                    res, _, _ = solve_scheme(scheme, m, psi, k)
                    assert (res == SAT) == expected, (scheme, k, str(psi))


class TestPltlEncoding:
    REX = "F (x3 & O (x4 & O x5))"

    def test_running_example_full_unrolling(self):
        assert solve_scheme("pltl", COUNTER, pnf(self.REX), 6)[0] == SAT
        assert solve_scheme("pltl", COUNTER, pnf(self.REX), 5)[0] == UNSAT

    def test_capped_unrolling_needs_a_longer_bound(self):
        # golden value from a first run: with no virtual unrolling the
        # subformula has to stabilise physically, which happens at k=11
        assert solve_scheme("pltl", COUNTER, pnf(self.REX), 6, d_max=0)[0] == UNSAT
        results = [solve_scheme("pltl", COUNTER, pnf(self.REX), k, d_max=0)[0] for k in range(13)]
        assert results.index(SAT) == 11

    def test_intermediate_cap(self):
        results = [solve_scheme("pltl", COUNTER, pnf(self.REX), k, d_max=1)[0] for k in range(13)]
        assert SAT in results
        assert results.index(SAT) in (6, 7, 8, 9, 10, 11)

    def test_d_alias_returns_identical_literal(self):
        s, vm = fresh()
        psi = pnf(self.REX)
        encode_pltl(COUNTER, psi, 3, vm)
        for f in closure(psi):
            dc = past_depth(f)
            for i in range(0, 4):
                assert vm.fvar(f, i, dc) == vm.fvar(f, i, dc + 1)
                assert vm.fvar(f, i, dc) == vm.fvar(f, i, dc + 5)

    def test_unique_model_property(self):
        """Pinning the path and loop selectors fixes every dark variable."""
        rng = random.Random(61)
        done = 0
        while done < 25:
            m = random_symbolic_model(rng, bits=2)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2)
            k = rng.randint(1, 4)
            res, s, vm = solve_scheme("pltl", m, psi, k)
            if res != SAT:
                continue
            done += 1
            pin = []
            for i in range(k + 1):
                for n in m.vars:
                    v = vm.state_bit(i, n)
                    pin.append(v if s.model_value(v) else -v)
            loop = None
            for i in range(1, k + 1):
                v = vm.loop_sel(i)
                if s.model_value(v):
                    loop = i
                pin.append(v if s.model_value(v) else -v)
            assert s.solve(pin) == SAT
            blocking = []
            for (role, *key), var in vm.lits.items():
                if role == "formula":
                    _, i, d = key
                    if d > 0 and (loop is None or (isinstance(i, int) and i < loop)):
                        continue  # light nodes are unconstrained
                elif role != "aux":
                    continue
                blocking.append(-var if s.model_value(var) else var)
            s.add_clause(blocking)
            assert s.solve(pin) == UNSAT


class TestGeneralBuchi:
    def test_counter_fair_loop_bounds(self):
        for k, expected in ((5, UNSAT), (6, SAT)):
            s, vm = fresh()
            s.add_clause([encode_general_buchi(COUNTER_FAIR, None, k, vm)])
            assert s.solve() == expected

    def test_no_fair_sets_needs_a_closed_cycle(self):
        m = parse_model("VAR a\nINIT !a\nTRANS next(a) <-> !a\n")
        em = explicit_expand(m)
        k_min = fair_lasso_search(em)[0]
        for k in range(0, 4):
            s, vm = fresh()
            s.add_clause([encode_general_buchi(m, None, k, vm)])
            assert (s.solve() == SAT) == (k >= k_min)

    def test_cycle_avoiding_the_fair_set(self):
        m = parse_model(
            "VAR a\nINIT !a\nTRANS next(a) <-> a\nDEFINE hit := a\nFAIRNESS hit\n"
        )
        for k in range(0, 5):
            s, vm = fresh()
            s.add_clause([encode_general_buchi(m, None, k, vm)])
            assert s.solve() == UNSAT

    def test_matches_explicit_fair_search(self):
        rng = random.Random(67)
        for _ in range(20):
            m = random_symbolic_model(rng, bits=2, fair_sets=rng.randint(0, 2))
            em = explicit_expand(m)
            found = fair_lasso_search(em)
            for k in range(0, 5):
                s, vm = fresh()
                s.add_clause([encode_general_buchi(m, None, k, vm)])
                expected = found is not None and found[0] <= k
                assert (s.solve() == SAT) == expected


class TestIncremental:
    REX = "F (x3 & O (x4 & O x5))"

    def test_first_sat_at_six_then_stays_sat(self):
        inc = IncrementalEncoder(COUNTER, pnf(self.REX))
        seen = []
        for k in range(9):
            inc.step(k)
            seen.append(inc.query_witness())
        assert seen == [UNSAT] * 6 + [SAT] * 3

    def test_step_out_of_order(self):
        inc = IncrementalEncoder(COUNTER, pnf(self.REX))
        inc.step(0)
        with pytest.raises(Exception, match="out of order"):
            inc.step(2)

    def test_agreement_with_monolithic(self):
        rng = random.Random(71)
        for _ in range(15):
            m = random_symbolic_model(rng, bits=2)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2)
            inc = IncrementalEncoder(m, psi)
            for k in range(0, 5):
                inc.step(k)
                mono = solve_scheme("pltl", m, psi, k)[0]
                assert inc.query_witness() == mono, (k, str(psi))

    def test_monotone_growth(self):
        rng = random.Random(73)
        for _ in range(10):
            m = random_symbolic_model(rng, bits=2)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=5, max_delta=1)
            inc = IncrementalEncoder(m, psi)
            sat_seen = False
            for k in range(0, 6):
                inc.step(k)
                res = inc.query_witness()
                if sat_seen:
                    assert res == SAT
                sat_seen = sat_seen or res == SAT

    def test_completeness_query_weaker_than_witness(self):
        inc = IncrementalEncoder(COUNTER, pnf("F p7"))
        for k in range(4):
            inc.step(k)
            assert inc.query_witness() == UNSAT
        # completeness eventually settles the property (tested end to end in
        # the checker tests); here it must at least not contradict
        assert inc.query_completeness() in (SAT, UNSAT)


def guarded_equalities(inc, k):
    """(guard, x, y) of every guarded equality ``step(k)`` writes, x != y:
    the bindings of bound k (each accumulator's among them) behind
    ``act(k)``, and for k >= 1 the loop step's state equality and the loop
    proxies behind ``l_k``."""
    vm, m = inc.vm, inc.m
    act = vm.activation_lit(k)
    out = [(act, vm.state_bit(E_INDEX, n), vm.state_bit(k, n)) for n in m.vars]
    out.append((act, vm.loop_exists(), vm.in_loop(k)))
    for f in inc.cl:
        for d in range(vm.dcap(f) + 1):
            out.append((act, vm.fvar(f, E_INDEX, d), vm.fvar(f, k, d)))
            out.append((act, vm.fvar(f, k + 1, d), vm.fvar(f, L_INDEX, d + 1)))
            if k >= 1:
                out.append((vm.loop_sel(k), vm.fvar(f, L_INDEX, d), vm.fvar(f, k, d)))
    out.extend((act, c.var(vm, E_INDEX), c.var(vm, k)) for c in inc.accumulators)
    if k >= 1:
        out.extend((vm.loop_sel(k), vm.state_bit(k - 1, n), vm.state_bit(E_INDEX, n)) for n in m.vars)
    return [e for e in dict.fromkeys(out) if e[1] != e[2]]


def monolithic_guarded_equalities(vm, cl, model_vars, k):
    """(guard, x, y) of every guarded equality a monolithic encoding of
    bound k writes: for each selector l_i, the loop step's state equality
    s_{i-1} = s_k and the binding of index k+1 to the unrolling above i."""
    out = []
    for i in range(1, k + 1):
        li = vm.loop_sel(i)
        out.extend((li, vm.state_bit(i - 1, n), vm.state_bit(k, n)) for n in model_vars)
        for f in cl:
            for d in range(vm.dcap(f) + 1):
                out.append((li, vm.fvar(f, k + 1, d), vm.fvar(f, i, d + 1)))
    return list(dict.fromkeys(out))


def iff_key(x, y):
    """The builder's cache key of the gate x <-> y."""
    a, b = (x, y) if abs(x) <= abs(y) else (y, x)
    return ("iff", (a, b) if a > 0 else (-a, -b))


def assert_two_clauses(added, g, x, y):
    """``added`` holds g -> (x <-> y), or x <-> y when g is None, as exactly
    its two clauses."""
    guard = [] if g is None else [-g]
    pair = [sorted(c) for c in added if {abs(l) for l in c} == {abs(l) for l in guard + [x, y]}]
    assert sorted(pair) == sorted([sorted(guard + [-x, y]), sorted(guard + [x, -y])])


def defined_variables(vm, k, loop_exists):
    """The variables an encoding up to bound k defines: the formula
    variables at positions up to k, the accumulators and InLoop_i at
    positions 1 to k, and, with ``loop_exists``, LoopExists (the session
    binds it instead)."""
    out = []
    for (role, *key), v in vm.lits.items():
        if role == "formula":
            i, low = key[1], 0
        elif role in ("aux", "inloop"):
            i, low = key[-1], 1
        else:
            continue
        if isinstance(i, int) and low <= i <= k:
            out.append(v)
    if loop_exists:
        out.append(vm.loop_exists())
    return out


def definitions(added, v):
    """The literals x of every v <-> x that ``added`` holds as the clauses
    [-v, x] and [v, -x]: v's own definitions, and those whose right side
    is v."""
    binary = {frozenset(c) for c in added if len(c) == 2}
    return {x for c in binary if -v in c for x in c - {-v} if frozenset([v, -x]) in binary}


def assert_definitions_are_clauses(vm, added, k, loop_exists, allowed_units):
    """Each definition of a formula variable, accumulator, InLoop_i and
    (with ``loop_exists``) LoopExists up to bound k is exactly its two
    clauses in ``added``; no iff gate of the map ``vm`` has one of those
    variables as an input; and no gate is asserted as a unit in ``added``
    unless its variable is in ``allowed_units``."""
    variables = set(defined_variables(vm, k, loop_exists))
    mentions = {v: [] for v in variables}
    for c in added:
        for v in {abs(l) for l in c} & variables:
            mentions[v].append(c)
    for v in variables:
        xs = definitions(mentions[v], v)
        assert xs, v
        for x in xs:
            assert_two_clauses(mentions[v], None, v, x)
            assert iff_key(v, x) not in vm.cache
    for op, ins in vm.cache:
        assert not (op == "iff" and variables & {abs(l) for l in ins}), (op, ins)
    gates = {abs(g) for g in vm.cache.values()}
    units = {abs(c[0]) for c in added if len(c) == 1}
    assert units & gates <= allowed_units


def named_vars(vm):
    """The number of variables the map has made for a timed role."""
    return len(vm.lits)


class TestGuardedEqualities:
    """Every encoder writes its guarded equalities g -> (x <-> y) as two
    clauses per pair, with no gate: once a session's bound is retired,
    nothing it made stays free for later queries to assign, and a
    monolithic bound makes no gate for them either."""

    SPECS = ["G F x4", "(x0 | x1) U (G !x3)", "G (x4 -> Y x3)", "G (x5 -> (H !x3 | Z x0))"]

    @staticmethod
    def instances(schemes):
        for scheme in sorted(schemes):
            for d_max in (None, 1):
                for spec in TestGuardedEqualities.SPECS:
                    psi = to_pnf(s_not(parse_formula(spec)))
                    if scheme in ("fixpoint", "eventuality", "buchi") and past_depth(psi) > 0:
                        continue
                    opts = RunOptions(scheme=scheme, d_max=d_max)
                    yield scheme_model(COUNTER_FAIR, psi, opts), psi, opts

    @staticmethod
    def sessions():
        for target, psi, opts in TestGuardedEqualities.instances(INCREMENTAL_SCHEMES):
            yield IncrementalEncoder(target, psi, d_max=opts.d_max, style=SCHEMES[opts.scheme].style)

    def test_step_writes_each_guarded_equality_as_two_clauses(self):
        styles = set()
        for inc in self.sessions():
            solver, vm = inc.solver, inc.vm
            for k in range(6):
                nvars, nclauses, named = solver.nvars, len(solver.db), named_vars(vm)
                gates = set(vm.cache)
                inc.step(k)
                new_gates = set(vm.cache) - gates
                # every variable step(k) makes is a timed role or a gate
                assert solver.nvars - nvars == named_vars(vm) - named + len(new_gates)
                made = solver.nvars
                eqs = guarded_equalities(inc, k)
                assert solver.nvars == made
                act = vm.activation_lit(k)
                added = solver.db[nclauses:]
                for g, x, y in eqs:
                    assert iff_key(x, y) not in new_gates
                    assert_two_clauses(added, g, x, y)
                for _, key in new_gates:
                    assert abs(act) not in map(abs, key)
                behind_act = [c for c in added if -act in c]
                assert len(behind_act) == 2 * sum(g == act for g, _, _ in eqs)
            styles.add(inc.style)
        assert styles == {SCHEMES[s].style for s in INCREMENTAL_SCHEMES}

    def test_monolithic_bound_writes_each_guarded_equality_as_two_clauses(self):
        """The loop step's state equality and the binding of index k+1 are
        two clauses per pair; no gate the bound makes is x <-> y of a pair,
        joins such gates, or joins one with a selector."""
        schemes = set()
        for target, psi, opts in self.instances(SCHEMES):
            # fixpoint and general-buchi have no formula variables
            cl = [] if opts.scheme in ("fixpoint", "general-buchi") else closure(psi)
            for k in range(7):
                prefix = TimedVarMap(Solver(), d_max=opts.d_max)
                unroll_model(target, k, prefix)
                solver, vm = encode_bound(target, psi, k, opts, prefix)
                made = solver.nvars
                eqs = monolithic_guarded_equalities(vm, cl, target.vars, k)
                assert solver.nvars == made
                added = solver.db[len(prefix.solver.db) :]
                for g, x, y in eqs:
                    assert_two_clauses(added, g, x, y)
                keys = {iff_key(x, y) for _, x, y in eqs}
                cache = vm.cache
                equalities = {abs(cache[key]) for key in keys if key in cache}
                selectors = {vm.loop_sel(i) for i in range(1, k + 1)}
                new_gates = cache.keys() - prefix.cache.keys()
                assert not keys & new_gates
                for op, ins in new_gates:
                    ins = {abs(l) for l in ins}
                    assert not (ins & selectors and ins & equalities), (op, ins)
                    assert not (op == "and" and ins <= equalities), (op, ins)
            schemes.add(opts.scheme)
        assert schemes == set(SCHEMES)

    def test_definitions_are_clauses_and_only_the_witness_is_a_unit(self):
        """Both encoders write each asserted definition v <-> x as the
        clauses [-v, x] and [v, -x], never as an iff gate, and assert no
        gate as a unit but the unrolling steps and the witness literal:
        the monolithic encoder returns its witness literal, the goal of a
        constraint-style scheme, for ``encode_bound`` to assert."""
        schemes = set()
        for target, psi, opts in self.instances(SCHEMES):
            for k in range(7):
                s, vm = fresh(opts.d_max)
                witness = SCHEMES[opts.scheme].encode(target, psi, k, vm)
                if opts.scheme != "fixpoint":
                    assert witness == (vm.loop_exists() if opts.scheme == "general-buchi" else vm.fvar(psi, 0, 0))
                steps = {abs(lit) for lit in vm.steps}
                assert len(vm.steps) == k + 1
                assert_definitions_are_clauses(vm, s.db, k, True, steps)
            schemes.add(opts.scheme)
        assert schemes == set(SCHEMES)
        styles = set()
        for inc in self.sessions():
            for k in range(7):
                inc.step(k)
                allowed = {abs(lit) for lit in inc.vm.steps} | {abs(inc.goal())}
                assert_definitions_are_clauses(inc.vm, inc.solver.db, k, False, allowed)
            styles.add(inc.style)
        assert styles == {SCHEMES[s].style for s in INCREMENTAL_SCHEMES}

    def test_a_retired_bound_leaves_only_satisfied_clauses(self):
        for inc in self.sessions():
            solver = inc.solver
            for k in range(6):
                inc.step(k)
                inc.query_witness()
            assert not solver.trail_lim
            for j in range(5):
                act = abs(inc.vm.activation_lit(j))
                mentions = [c for c in solver.db if act in map(abs, c)]
                assert mentions
                for c in mentions:
                    assert any(solver.value(l) == 1 and solver.level[abs(l)] == 0 for l in c), c

    def test_a_bare_session_retires_each_earlier_bound(self):
        """With no driver and no query, ``step(k)`` leaves every activator
        below k false at level 0."""
        for inc in self.sessions():
            solver, act = inc.solver, inc.vm.activation_lit
            for k in range(6):
                inc.step(k)
                for j in range(k):
                    assert solver.value(act(j)) == -1 and solver.level[abs(act(j))] == 0
