import copy
import dataclasses
import os
import random
import sys
import time

import pytest

from pltlbmc import check
from pltlbmc.model import parse_model, eval_expr, explicit_expand
from pltlbmc.pltl import parse_formula, past_depth, s_not, to_pnf, closure
from pltlbmc.sat import INTERRUPTED, SAT, UNSAT, Solver, export_dimacs, run_external_solver
from pltlbmc.encode import IncrementalEncoder, PastOperatorError, TimedVarMap, encode_pltl, eventuality_style
from pltlbmc.check import (
    BoundExhausted,
    CheckError,
    Proved,
    RunOptions,
    WitnessFound,
    WitnessValidationError,
    encode_bound,
    extract_witness,
    run_bmc,
    scheme_model,
    trace_lines,
    verdict_line,
)
from pltlbmc.oracle import (
    BoundedPath,
    Budget,
    eval_bounded,
    minimal_witness_k,
)

from _fixtures import FIXTURES
from _grid import random_pnf_formula, random_symbolic_model


def pnf(text):
    return to_pnf(parse_formula(text))


COUNTER = parse_model((FIXTURES / "counter.mod").read_text())


class TestRunBmc:
    def test_running_example_witness_at_six_with_loop_three(self):
        v = run_bmc(COUNTER, "!(F (x3 & O (x4 & O x5)))", RunOptions(max_k=8))
        assert isinstance(v, WitnessFound) and v.k == 6
        assert v.witness.loop_start == 3
        xs = [
            sum(bool(st[n]) << j for j, n in enumerate(COUNTER.vars))
            for st in v.witness.states
        ]
        assert xs == [0, 1, 2, 3, 4, 5, 2]

    def test_unreachable_safety_is_proved(self):
        v = run_bmc(COUNTER, "G !p7", RunOptions(completeness=True, max_k=30))
        assert isinstance(v, Proved)
        assert v.k == 10  # golden value from the first run

    def test_reaching_x4_yields_a_prefix_witness(self):
        v = run_bmc(COUNTER, "G !x4", RunOptions(max_k=8))
        assert isinstance(v, WitnessFound) and v.k == 4
        assert v.witness.loop_start is None

    def test_bound_exhausted(self):
        v = run_bmc(COUNTER, "G !p7", RunOptions(max_k=3))
        assert isinstance(v, BoundExhausted) and v.max_k == 3

    def test_non_incremental_agrees(self):
        for spec in ("G !x4", "!(G F x4)", "!(F (x3 & O (x4 & O x5)))"):
            a = run_bmc(COUNTER, spec, RunOptions(max_k=8))
            b = run_bmc(COUNTER, spec, RunOptions(max_k=8, incremental=False))
            assert type(a) == type(b)
            if isinstance(a, WitnessFound):
                assert a.k == b.k

    def test_future_schemes_agree_on_ltl_specs(self):
        for scheme in ("fixpoint", "eventuality", "buchi"):
            v = run_bmc(COUNTER, "!(G F x4)", RunOptions(scheme=scheme, max_k=8))
            assert isinstance(v, WitnessFound) and v.k == 6

    def test_ltl_scheme_rejects_past(self):
        for scheme in ("fixpoint", "eventuality", "buchi"):
            for incremental in (True, False):
                opts = RunOptions(scheme=scheme, incremental=incremental)
                with pytest.raises(Exception, match="future"):
                    run_bmc(COUNTER, "!(F (x3 & O x4))", opts)

    def test_general_buchi_scheme(self):
        v = run_bmc(COUNTER, "!(G F x4)", RunOptions(scheme="general-buchi", max_k=8))
        assert isinstance(v, WitnessFound) and v.k == 6
        # only the model variables are displayed even though the product ran
        assert v.witness.display_vars == COUNTER.vars

    def test_completeness_needs_incremental_pltl(self):
        with pytest.raises(CheckError):
            run_bmc(COUNTER, "G !p7", RunOptions(completeness=True, scheme="buchi"))
        with pytest.raises(CheckError):
            run_bmc(
                COUNTER, "G !p7", RunOptions(completeness=True, incremental=False)
            )

    @pytest.mark.parametrize(
        "opts",
        [
            RunOptions(completeness=True, scheme="general-buchi"),
            RunOptions(completeness=True, scheme="fixpoint"),
            RunOptions(completeness=True, scheme="eventuality", incremental=False),
            RunOptions(completeness=True, external_solver=(sys.executable, "-c", "")),
        ],
    )
    def test_completeness_needs_a_session_with_eventuality_chains(self, opts):
        with pytest.raises(CheckError):
            run_bmc(COUNTER, "G !p7", opts)

    def test_increment_without_completeness_scans_strides(self):
        # bounds 0,3,6: the k=6 witness is still the first one visited
        v = run_bmc(
            COUNTER,
            "!(F (x3 & O (x4 & O x5)))",
            RunOptions(increment=3, max_k=9),
        )
        assert isinstance(v, WitnessFound) and v.k == 6
        # bounds 0,4,8: monotonicity carries the k=6 witness to k=8
        v = run_bmc(
            COUNTER,
            "!(F (x3 & O (x4 & O x5)))",
            RunOptions(increment=4, max_k=9),
        )
        assert isinstance(v, WitnessFound) and v.k == 8

    def test_increment_two_regime(self):
        # witness bounds are scanned in strides; the reported k may overshoot
        v = run_bmc(
            COUNTER,
            "!(F (x3 & O (x4 & O x5)))",
            RunOptions(completeness=True, increment=2, max_k=12),
        )
        assert isinstance(v, WitnessFound) and v.k == 6
        v = run_bmc(COUNTER, "G !p7", RunOptions(completeness=True, increment=3, max_k=30))
        assert isinstance(v, Proved)

    @pytest.mark.parametrize(
        "opts, message",
        [
            (RunOptions(max_k=-1), "max_k"),
            (RunOptions(increment=0), "increment"),
            (RunOptions(increment=-2), "increment"),
            (RunOptions(d_max=-1), "d_max"),
            (RunOptions(d_max=-1, incremental=False), "d_max"),
            (RunOptions(d_max=-1, scheme="general-buchi"), "d_max"),
        ],
    )
    def test_out_of_range_options_are_rejected(self, opts, message):
        with pytest.raises(Exception, match=message):
            run_bmc(COUNTER, "!(F (x3 & O (x4 & O x5)))", opts)

    def test_verdict_lines(self):
        assert verdict_line(Proved(k=4)) == "VERDICT PROVED k=4"
        assert verdict_line(BoundExhausted(max_k=9)) == "VERDICT UNKNOWN max_k=9"


def build_simple_path(inc):
    """Pairwise distinctness over 0 <= i < j <= k of the session ``inc`` at
    bound k."""
    return inc.vm.and_(*[inc.simple_path_pair(i, j) for j in range(1, inc.k + 1) for i in range(j)])


def pinned_to_model(src, dst):
    """Literals of session ``dst`` that give every timed variable the value
    its namesake has in the last model of session ``src``; both sessions
    ran the same steps."""
    value, theirs = src.solver.model_value, src.vm.lits
    return [lit if value(theirs[key]) else -lit for key, lit in dst.vm.lits.items()]


# A two-bit counter that holds its value while the input ``stall`` is set:
# its completeness queries at k=15 take several refinement rounds that each
# need conflicts.
STALL = parse_model(
    """VAR lo hi stall
INPUT stall
INIT !lo & !hi
TRANS stall -> ((next(lo) <-> lo) & (next(hi) <-> hi))
TRANS !stall -> ((next(lo) <-> !lo) & (next(hi) <-> (hi <-> !lo)))
DEFINE top := lo & hi
DEFINE zero := !lo & !hi
"""
)


def stall_session(k=15):
    """A session stepped to bound k whose solver records, per solve call,
    (conflict budget, conflicts used, result, clauses after the call)."""
    inc = IncrementalEncoder(STALL, to_pnf(s_not(parse_formula("G !(top & zero)"))))
    for j in range(k + 1):
        inc.step(j)
    inc.rounds = []
    solve = inc.solver.solve

    def recording_solve(assumptions=(), conflict_budget=None):
        before = inc.solver.conflicts
        res = solve(assumptions, conflict_budget)
        used = inc.solver.conflicts - before
        inc.rounds.append((conflict_budget, used, res, len(inc.solver.db)))
        return res

    inc.solver.solve = recording_solve
    return inc


class TestEventualityCompleteness:
    """On a future formula the eventuality session is the pltl session
    (plus the check that the formula has no past), so its termination check
    is pltl's."""

    def test_the_session_database_is_pltls(self):
        rng = random.Random(163)
        for _ in range(12):
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]))
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, allow_past=False)
            pltl, ev = (IncrementalEncoder(m, psi, style=check.SCHEMES[s].style) for s in ("pltl", "eventuality"))
            for k in range(6):
                for inc in (pltl, ev):
                    inc.step(k)
                    inc.query_completeness()
                    inc.query_witness(simple_path=True)
                assert (ev.solver.nvars, ev.solver.db) == (pltl.solver.nvars, pltl.solver.db)

    def test_complete_verdicts_are_pltls(self):
        rng = random.Random(167)
        kinds = set()
        for _ in range(30):
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]))
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, allow_past=False)
            for increment in (1, 2):
                pltl, ev = (
                    run_bmc(m, psi, RunOptions(scheme=s, completeness=True, increment=increment, max_k=16))
                    for s in ("pltl", "eventuality")
                )
                assert ev == pltl  # the verdict, its k and any witness
                kinds.add(type(ev))
        assert {Proved, WitnessFound} <= kinds


class TestConflictBudget:
    def test_the_rounds_of_one_query_share_its_budget(self):
        free = stall_session()
        assert free.query_completeness() == SAT
        total = sum(used for _, used, _, _ in free.rounds)
        assert len(free.rounds) > 2 and total > 0
        capped = stall_session()
        assert capped.query_completeness(conflict_budget=total) == SAT
        assert [r[1:] for r in capped.rounds] == [r[1:] for r in free.rounds]
        spent = 0
        for budget, used, _, _ in capped.rounds:
            assert budget == total - spent  # what the earlier rounds left
            spent += used

    def test_an_interrupted_round_adds_no_pairs(self):
        free = stall_session()
        free.query_completeness()
        total = sum(used for _, used, _, _ in free.rounds)
        capped = stall_session()
        assert capped.query_completeness(conflict_budget=total - 1) == INTERRUPTED
        assert capped.rounds[-1][2] == INTERRUPTED
        assert len(capped.solver.db) == capped.rounds[-1][3]
        assert len(capped.rounds) <= len(free.rounds)
        # the session stays usable: an unbounded query answers as before
        assert capped.query_completeness() == SAT


class TestSimplePath:
    def test_k0_is_vacuous(self):
        inc = IncrementalEncoder(COUNTER, pnf("F x4"))
        inc.step(0)
        assert build_simple_path(inc) == inc.vm.TRUE
        # a position never differs from itself
        assert inc.simple_path_pair(0, 0) == inc.vm.FALSE

    def test_identical_positions_violate_the_constraint(self):
        m = parse_model("VAR a b\nINIT true\nTRANS true\n")
        psi = pnf("F a")
        inc = IncrementalEncoder(m, psi)
        for k in range(3):
            inc.step(k)
        s, vm = inc.solver, inc.vm
        sp = build_simple_path(inc)
        act = vm.activation_lit(2)
        assert s.solve([act]) == SAT
        # two identical stem positions with equal formula bits are allowed
        # without the constraint but contradict it
        pins = [vm.iff(vm.fvar(f, 0, 0), vm.fvar(f, 1, 0)) for f in closure(psi)]
        eq_state = vm.and_(*[vm.iff(vm.state_bit(0, n), vm.state_bit(1, n)) for n in m.vars])
        eq_inloop = vm.iff(vm.in_loop(0), vm.in_loop(1))
        assert s.solve([act, eq_state, eq_inloop] + pins) == SAT
        assert s.solve([act, sp, eq_state, eq_inloop] + pins) == UNSAT

    def test_lazy_pairs_agree_with_every_pair_up_front(self):
        """At every bound, both simple path queries answer as a reference
        session that asks for all pairs at once, and each SAT model of the
        lazy refinement is a simple path of the reference constraint."""
        rng = random.Random(149)
        for n in range(32):
            past, d_max = [(False, None), (True, None), (False, 1), (True, 1)][n % 4]
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]))
            while True:
                psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2, allow_past=past)
                if (past_depth(psi) > 0) == past:
                    break
            lazy = IncrementalEncoder(m, psi, d_max=d_max)
            ref = IncrementalEncoder(m, psi, d_max=d_max)
            for k in range(7):
                lazy.step(k)
                ref.step(k)
                sp = build_simple_path(ref)
                for witness in (False, True):
                    act = ref.vm.activation_lit
                    assumptions = [act(j) if witness and j == k else -act(j) for j in range(k + 1)]
                    want = ref.solver.solve(assumptions + [sp])
                    if witness:
                        got = lazy.query_witness(simple_path=True)
                    else:
                        got = lazy.query_completeness()
                    assert got == want, (n, k, witness)
                    if got == SAT:
                        pins = pinned_to_model(lazy, ref)
                        assert ref.solver.solve(assumptions + [sp] + pins) == SAT, (n, k, witness)

    def test_counter_completeness_depth_is_stable(self):
        """CTrans and the simple path formula go unsatisfiable at the golden
        bound recorded for the fixture (regression guard)."""
        inc = IncrementalEncoder(COUNTER, pnf("F p7"))
        depths = []
        for k in range(12):
            inc.step(k)
            depths.append(inc.query_completeness())
        assert depths.index(UNSAT) == 10


def counter(width):
    """A binary counter over b0..b{width-1} from zero, least significant bit
    first, with ``top`` (all ones) and ``zero`` (all zeros): it visits its
    2**width values in order and wraps around."""
    names = [f"b{i}" for i in range(width)]
    lines = ["VAR " + " ".join(names), "INIT " + " & ".join("!" + b for b in names)]
    for i, b in enumerate(names):
        carry = " & ".join(names[:i]) if i else "true"
        lines.append(f"TRANS next({b}) <-> !({b} <-> ({carry}))")
    lines.append("DEFINE top := " + " & ".join(names))
    lines.append("DEFINE zero := " + " & ".join("!" + b for b in names))
    return parse_model("\n".join(lines))


class TestProofBounds:
    """The bound at which the termination check closes on the counters.
    A proof closes once no simple path is left, and a position's class
    holds its state and its in-loop flag: a width-n counter has 2**n states,
    each taken outside and then inside the loop, so its proof closes at
    2**(n+1).  The stall counter's 8 states close at 16 the same way."""

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_counter_proof_closes_at_twice_its_states(self, width):
        v = run_bmc(counter(width), "G (top -> O zero)", RunOptions(completeness=True, max_k=80))
        assert v == Proved(k=2 ** (width + 1))

    @pytest.mark.parametrize("width", [2, 3, 4])
    def test_counter_loop_witness_spans_its_states(self, width):
        v = run_bmc(counter(width), "F G !top", RunOptions(completeness=True, max_k=80))
        assert isinstance(v, WitnessFound) and v.k == 2**width

    def test_stall_proof_closes_at_16(self):
        v = run_bmc(STALL, "G !(top & zero)", RunOptions(completeness=True, max_k=80))
        assert v == Proved(k=16)


class TestWitnessExtraction:
    def _solve_pltl(self, m, psi, k):
        vm = TimedVarMap(Solver())
        vm.solver.add_clause([encode_pltl(m, psi, k, vm)])
        assert vm.solver.solve() == SAT
        return vm.solver, vm

    def test_counter_loop_witness(self):
        s, vm = self._solve_pltl(COUNTER, pnf("G F x4"), 6)
        w = extract_witness(s.model_value, vm, COUNTER, 6)
        assert w.loop_start == 3
        assert "x4" in w.labels[4]

    def test_no_loop_witness_has_no_loop_start(self):
        s, vm = self._solve_pltl(COUNTER, pnf("F x2"), 2)
        w = extract_witness(s.model_value, vm, COUNTER, 2)
        assert w.loop_start is None

    def test_corrupted_assignment_is_rejected(self):
        s, vm = self._solve_pltl(COUNTER, pnf("F x2"), 2)
        good = s.model_value

        def corrupted(lit):
            if abs(lit) == abs(vm.state_bit(1, "b0")):
                return not good(lit)
            return good(lit)

        with pytest.raises(WitnessValidationError):
            extract_witness(corrupted, vm, COUNTER, 2)

    def test_decoded_witness_satisfies_the_bounded_semantics(self):
        rng = random.Random(127)
        budget = Budget()
        done = 0
        while done < 15:
            m = random_symbolic_model(rng, bits=2)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2)
            v = run_bmc(m, to_pnf(psi), RunOptions(max_k=5))
            if not isinstance(v, WitnessFound):
                continue
            done += 1
            em = explicit_expand(m)
            idx = [
                sum(bool(st[n]) << j for j, n in enumerate(m.vars))
                for st in v.witness.states
            ]
            bp = BoundedPath(em, idx, v.witness.loop_start)
            bp.check()
            assert eval_bounded(bp, psi, 0)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_define_labels_match_evaluating_each_define(self, reverse):
        bodies = ["!{} | b", "{} & a", "{} <-> b"]
        defines = ["DEFINE d0 := a"] + [
            f"DEFINE d{i} := " + bodies[i % 3].format(f"d{i - 1}") for i in range(1, 40)
        ]
        if reverse:
            defines.reverse()
        m = parse_model(
            "\n".join(["VAR a b", "INIT !a & !b", "TRANS next(a) <-> !a", "TRANS next(b) <-> (a | b)"] + defines)
        )
        v = run_bmc(m, "F G !a", RunOptions(max_k=8))
        assert isinstance(v, WitnessFound) and v.k == 4
        for st, labels in zip(v.witness.states, v.witness.labels):
            want = {n for n, x in st.items() if x}
            want |= {n for n, e in m.defines if eval_expr(e, st, None, m.define_map)}
            assert labels == want
        assert len({labels for labels in v.witness.labels}) > 2

    def test_validation_evaluates_each_define_once(self):
        # d21 names d20 twice, d20 names d19 twice, and so on
        defines = ["DEFINE d0 := a & b"] + [f"DEFINE d{i} := d{i - 1} <-> (b | d{i - 1})" for i in range(1, 22)]
        m = parse_model("\n".join(["VAR a b", "TRANS next(a) <-> !d21"] + defines))
        start = time.perf_counter()
        v = run_bmc(m, "X false", RunOptions(max_k=3))
        elapsed = time.perf_counter() - start
        assert isinstance(v, WitnessFound) and v.k == 1
        assert elapsed < 0.5

    def test_trace_lines_mark_the_loop(self):
        s, vm = self._solve_pltl(COUNTER, pnf("G F x4"), 6)
        w = extract_witness(s.model_value, vm, COUNTER, 6)
        lines = trace_lines(w)
        assert lines[3] == "-- loop starts here --"
        assert lines[0].startswith("state 0: b0=0 b1=0 b2=0")


# Properties over the v0.. variables of random_symbolic_model whose
# counterexamples on the small random models are a few steps long.
RETIRED_SPECS = [
    "G !(v0 & v1)",
    "G F v0",
    "F G !v1",
    "G (v0 -> O v1)",
    "G !(v0 & Y (v1 & Y !v0))",
    "F v1",
    "G (v1 -> X !v1)",
]


class TestRetiredActivators:
    """Once bound j is past, ``step`` fixes activation_lit(j) false at
    level 0; the verdicts stay those of the monolithic encoding."""

    @pytest.mark.parametrize("increment", [1, 2])
    @pytest.mark.parametrize("completeness", [False, True])
    def test_past_activators_are_false_at_level_0(self, monkeypatch, completeness, increment):
        sessions = record_sessions(monkeypatch)
        rng = random.Random(151 + 2 * increment + completeness)
        max_k = 12 if completeness else 6
        retired = 0
        for _ in range(14):
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]))
            spec = rng.choice(RETIRED_SPECS)
            v = run_bmc(m, spec, RunOptions(completeness=completeness, increment=increment, max_k=max_k))
            (inc,) = sessions
            sessions.clear()
            solver = inc.solver
            assert inc.k >= 0 and not solver.trail_lim
            # a solver found unsatisfiable at level 0 takes no more units
            for j in range(inc.k if solver.ok else 0):
                act = inc.vm.activation_lit(j)
                assert solver.value(act) == -1 and solver.level[abs(act)] == 0
                retired += 1
            ref = run_bmc(m, spec, RunOptions(incremental=False, increment=increment, max_k=max_k))
            if isinstance(v, Proved):
                assert isinstance(ref, BoundExhausted)
            else:
                assert type(v) == type(ref)
                if isinstance(v, WitnessFound):
                    assert v.k == ref.k
        assert retired > 20

    def test_the_session_steps_to_the_last_bound_it_queries(self, monkeypatch):
        sessions = record_sessions(monkeypatch)
        v = run_bmc(COUNTER, "G !p7", RunOptions(increment=2, max_k=5))
        assert v == BoundExhausted(max_k=5)
        (inc,) = sessions
        assert inc.k == 4

    def test_every_scheme_but_fixpoint_runs_one_session(self, monkeypatch):
        sessions = record_sessions(monkeypatch)
        m = random_symbolic_model(random.Random(5), bits=2)
        external = (sys.executable, os.path.join(os.path.dirname(__file__), "external_dpll.py"))
        for scheme in check.SCHEMES:
            opts = RunOptions(scheme=scheme, max_k=3)
            run_bmc(m, "G F v0", opts)
            assert [inc.style for inc in sessions] == ([] if scheme == "fixpoint" else [check.SCHEMES[scheme].style])
            sessions.clear()
            for monolithic in (
                dataclasses.replace(opts, incremental=False),
                dataclasses.replace(opts, external_solver=external),
            ):
                run_bmc(m, "G F v0", monolithic)
                assert sessions == []


class TestSchemeRecords:
    @pytest.mark.parametrize("name", sorted(check.SCHEMES))
    def test_each_field_has_its_effect(self, monkeypatch, name):
        """``encode`` is what the monolithic driver asserts at each bound;
        a ``style`` makes the scheme run as a session of that style, which
        admits completeness with the eventuality chains only; a
        ``future_only`` scheme rejects past operators in either driver; an
        ``automaton`` scheme unrolls a product of the model."""
        scheme = check.SCHEMES[name]
        bounds = []

        def encode(m, psi, k, vm):
            bounds.append(k)
            return scheme.encode(m, psi, k, vm)

        monkeypatch.setitem(check.SCHEMES, name, scheme._replace(encode=encode))
        sessions = record_sessions(monkeypatch)
        psi = pnf("G F x4")
        assert run_bmc(COUNTER, psi, RunOptions(scheme=name, incremental=False, max_k=8)).k == 6
        assert bounds == list(range(7)) and sessions == []
        assert run_bmc(COUNTER, psi, RunOptions(scheme=name, max_k=8)).k == 6
        assert [inc.style for inc in sessions] == ([scheme.style] if scheme.style else [])
        complete = RunOptions(scheme=name, completeness=True, max_k=30)
        if scheme.style is eventuality_style:
            assert run_bmc(COUNTER, "G !p7", complete) == Proved(k=10)
        else:
            with pytest.raises(CheckError, match="completeness"):
                run_bmc(COUNTER, "G !p7", complete)
        for incremental in (True, False):
            opts = RunOptions(scheme=name, incremental=incremental, max_k=8)
            if scheme.future_only:
                with pytest.raises(PastOperatorError):
                    run_bmc(COUNTER, pnf("F (x3 & Y x2)"), opts)
            else:
                assert isinstance(run_bmc(COUNTER, pnf("F (x3 & Y x2)"), opts), WitnessFound)
        target = scheme_model(COUNTER, psi, RunOptions(scheme=name))
        assert (target is not COUNTER) == scheme.automaton
        assert set(COUNTER.vars) <= set(target.vars)


def record_sessions(monkeypatch):
    """The list of every ``IncrementalEncoder`` that ``run_bmc`` builds from
    now on, in order."""
    sessions = []

    class Recorded(IncrementalEncoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr(check, "IncrementalEncoder", Recorded)
    return sessions


def assert_valid_witness(m, psi, v):
    """The witness is a path of m (with its loop, a fair one) on which the
    bounded semantics makes psi true at position 0."""
    w = v.witness
    idx = [sum(bool(st[n]) << j for j, n in enumerate(m.vars)) for st in w.states]
    bp = BoundedPath(explicit_expand(m), idx, w.loop_start)
    bp.check()
    assert eval_bounded(bp, psi, 0)
    if w.loop_start is not None:
        loop = w.states[w.loop_start :]
        for e in m.fairness:
            assert any(eval_expr(e, st, None, m.define_map) for st in loop)


class TestIncrementalSessions:
    """The eventuality, buchi and general-buchi sessions against their
    monolithic partners, on seeded random models and formulas: future
    formulas for the LTL schemes, PLTL formulas and fair models for
    general-buchi."""

    CASES = [("eventuality", None), ("buchi", None), ("general-buchi", None), ("general-buchi", 1)]

    @staticmethod
    def instances(seed, scheme, count):
        rng = random.Random(seed)
        for _ in range(count):
            fair_sets = rng.choice([0, 1, 2]) if scheme == "general-buchi" else 0
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]), fair_sets=fair_sets)
            past = scheme == "general-buchi"
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2, allow_past=past)
            yield m, psi

    @pytest.mark.parametrize("increment", [1, 2])
    @pytest.mark.parametrize("scheme,d_max", CASES)
    def test_verdicts_match_the_monolithic_driver(self, monkeypatch, scheme, d_max, increment):
        sessions = record_sessions(monkeypatch)
        witnesses = 0
        seed = 163 + 7 * increment + 3 * self.CASES.index((scheme, d_max))
        for m, psi in self.instances(seed, scheme, 24):
            opts = RunOptions(scheme=scheme, d_max=d_max, increment=increment, max_k=6)
            v = run_bmc(m, psi, opts)
            assert len(sessions) == 1
            sessions.clear()
            ref = run_bmc(m, psi, dataclasses.replace(opts, incremental=False))
            assert sessions == []
            assert type(v) == type(ref)
            if isinstance(v, WitnessFound):
                assert v.k == ref.k
                assert v.witness.display_vars == m.vars
                for found in (v, ref):
                    assert_valid_witness(m, psi, found)
                witnesses += 1
        assert witnesses >= 5

    @pytest.mark.parametrize("scheme,d_max", CASES)
    def test_each_bound_answers_as_encode_bound(self, scheme, d_max):
        sat = 0
        for m, psi in self.instances(173 + self.CASES.index((scheme, d_max)), scheme, 6):
            opts = RunOptions(scheme=scheme, d_max=d_max)
            target = scheme_model(m, psi, opts)
            inc = IncrementalEncoder(target, psi, d_max=d_max, style=check.SCHEMES[scheme].style)
            for k in range(7):
                inc.step(k)
                s, _ = encode_bound(target, psi, k, opts)
                want = s.solve()
                assert inc.query_witness() == want, (scheme, k, str(psi))
                sat += want == SAT
        assert sat > 0


def solver_state(s):
    """What a solver's answers and its next changes depend on, in order."""
    return (
        s.nvars, s.db, s._clauses, s.watches, s.bins, s._heap, s.trail,
        s.vals, s.level, s.saved, s.activity, s.qhead, s.ok,
    )


class TestMonolithicPrefix:
    """The monolithic driver lowers the model unrolling once per run and
    encodes each bound on a copy of it: every bound's solver is the one
    ``encode_bound`` builds on a fresh solver."""

    @staticmethod
    def instances(seed, scheme, count):
        rng = random.Random(seed)
        past = scheme in ("pltl", "general-buchi")
        for _ in range(count):
            fair_sets = rng.choice([0, 1, 2]) if scheme == "general-buchi" else 0
            m = random_symbolic_model(rng, bits=rng.choice([2, 3]), fair_sets=fair_sets)
            yield m, random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2, allow_past=past)

    @pytest.mark.parametrize("increment", [1, 2])
    @pytest.mark.parametrize("d_max", [None, 0, 1])
    @pytest.mark.parametrize("scheme", sorted(check.SCHEMES))
    def test_each_bound_the_driver_solves_equals_a_fresh_encoding(
        self, monkeypatch, scheme, d_max, increment
    ):
        targets = []

        def recorded_scheme_model(m, psi, opts):
            targets.append(scheme_model(m, psi, opts))
            return targets[-1]

        solve = check._solve
        bounds = []

        def compared_solve(s, opts, k):
            fresh, _ = encode_bound(targets[-1], psi, k, opts)
            assert solver_state(s) == solver_state(fresh), k
            res = solve(s, opts, k)
            assert res[0] == fresh.solve()
            assert s.stats() == fresh.stats()
            bounds.append(k)
            return res

        monkeypatch.setattr(check, "scheme_model", recorded_scheme_model)
        monkeypatch.setattr(check, "_solve", compared_solve)
        seed = 191 + 11 * sorted(check.SCHEMES).index(scheme) + 3 * (d_max or 0) + increment
        for m, psi in self.instances(seed, scheme, 8):
            opts = RunOptions(scheme=scheme, d_max=d_max, incremental=False, increment=increment, max_k=5)
            before = len(bounds)
            v = run_bmc(m, psi, opts)
            k_last = v.k if isinstance(v, WitnessFound) else opts.max_k - (opts.max_k % increment)
            assert bounds[before:] == list(range(0, k_last + 1, increment))
        assert max(bounds) >= 4 and len(bounds) >= 12, bounds

    @pytest.mark.parametrize("scheme", sorted(check.SCHEMES))
    def test_solving_a_bound_leaves_the_prefix_intact(self, scheme):
        for m, psi in self.instances(197, scheme, 3):
            opts = RunOptions(scheme=scheme, d_max=1)
            target = scheme_model(m, psi, opts)
            prefix = TimedVarMap(Solver(), d_max=1)
            for k in range(6):
                s, vm = encode_bound(target, psi, k, opts, prefix)
                fresh, fresh_vm = encode_bound(target, psi, k, opts)
                assert solver_state(s) == solver_state(fresh)
                assert vars(vm).keys() == vars(fresh_vm).keys()
                assert vm.lits == fresh_vm.lits
                unrolled = copy.deepcopy((solver_state(prefix.solver), prefix.steps, prefix.lits))
                assert s.solve() == fresh.solve()
                s.add_clause([s.nvars])
                s.solve()
                assert (solver_state(prefix.solver), prefix.steps, prefix.lits) == unrolled
                assert len(prefix.steps) == k + 1 and len(prefix.solver.db) < len(s.db)
        with pytest.raises(CheckError, match="past bound 2"):
            encode_bound(target, psi, 2, opts, prefix)

    def test_an_external_solver_reads_the_cnf_of_a_fresh_encoding(self, monkeypatch, tmp_path):
        external = (sys.executable, os.path.join(os.path.dirname(__file__), "external_dpll.py"))
        read = []

        def spy(cmd, path):
            read.append(open(path).read())
            return run_external_solver(cmd, path)

        monkeypatch.setattr(check, "run_external_solver", spy)
        for scheme in sorted(check.SCHEMES):
            for increment in (1, 2):
                ((m, psi),) = self.instances(199 + increment, scheme, 1)
                opts = RunOptions(scheme=scheme, increment=increment, max_k=4, external_solver=external)
                read.clear()
                v = run_bmc(m, psi, opts)
                target = scheme_model(m, psi, opts)
                written = []
                for n, k in enumerate(range(0, opts.max_k + 1, increment)[: len(read)]):
                    s, _ = encode_bound(target, psi, k, opts)
                    export_dimacs(s, tmp_path / f"{n}.cnf")
                    written.append((tmp_path / f"{n}.cnf").read_text())
                assert read == written
                ref = run_bmc(m, psi, dataclasses.replace(opts, external_solver=None, incremental=False))
                assert type(v) == type(ref) and getattr(v, "k", None) == getattr(ref, "k", None)


class TestAgainstOracle:
    def test_verdicts_and_minimality(self):
        rng = random.Random(131)
        budget = Budget()
        for _ in range(20):
            m = random_symbolic_model(rng, bits=2)
            em = explicit_expand(m)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2)
            kmin = minimal_witness_k(em, psi, 5, budget)
            v = run_bmc(m, to_pnf(psi), RunOptions(max_k=5))
            if kmin is None:
                assert isinstance(v, BoundExhausted)
            else:
                assert isinstance(v, WitnessFound) and v.k == kmin

    def test_completeness_terminates_and_is_sound(self):
        rng = random.Random(137)
        budget = Budget()
        for _ in range(12):
            m = random_symbolic_model(rng, bits=2)
            em = explicit_expand(m)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=5, max_delta=1)
            kmin = minimal_witness_k(em, psi, 6, budget)
            v = run_bmc(m, to_pnf(psi), RunOptions(completeness=True, max_k=40))
            if kmin is not None:
                assert isinstance(v, WitnessFound) and v.k == kmin
            else:
                # no witness within the oracle bound: a proof must not lie
                if isinstance(v, WitnessFound):
                    assert v.k > 6
                else:
                    assert isinstance(v, Proved)


def test_run_bmc_negates_the_spec():
    """run_bmc searches for counterexamples of the specification."""
    v = run_bmc(COUNTER, "F x4", RunOptions(max_k=8, completeness=True))
    assert isinstance(v, Proved)  # every path of the counter reaches x=4
