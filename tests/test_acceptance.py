"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The random grids are
seeded, so reruns are bit-identical.  Criteria touching the shared grid use
the module-scoped fixture below; its construction parameters match the
stated sizes (at least 200 models, 300 formulas, 100-instance side grids).
"""

import os
import random
import sys
import time

import pytest

from pltlbmc.model import parse_model, explicit_expand, model_to_text
from pltlbmc.pltl import parse_formula, to_pnf, closure, past_depth
from pltlbmc.sat import SAT, UNSAT, Solver, export_dimacs, run_external_solver
from pltlbmc.encode import IncrementalEncoder
from pltlbmc.check import Proved, RunOptions, WitnessFound, encode_bound, run_bmc, scheme_model
from pltlbmc.l2s import Reachable, Unreachable, check_l2s_reachability, l2s_transform
from pltlbmc.oracle import (
    BoundedPath,
    Budget,
    d_unrolling_index,
    eval_bounded,
    eval_lasso,
    exists_witness_bounded,
    fair_lasso_exists,
    fair_lasso_search,
    make_lasso,
)
from pltlbmc.tightba import build_tight_ba, product

from _fixtures import FIXTURES
from _grid import (
    random_cnf,
    random_lasso_word,
    random_pnf_formula,
    random_symbolic_model,
    word_model,
)
from test_sat import brute_force_sat

COUNTER = parse_model((FIXTURES / "counter.mod").read_text())
MAX_K = 6
N_MODELS = 200
N_FORMULAS = 300

_passed = []


def report(number, name, detail):
    line = f"ACCEPTANCE {number} ({name}): PASS  [{detail}]"
    print("\n" + line)
    _passed.append(line)


class Grid:
    """Shared evaluation grid: (model, explicit, formula) triples with the
    oracle verdict for every bound, plus bookkeeping reused by later
    criteria (satisfiable instances, witnesses of the pltl scheme).

    Pairs whose verdict settles at bound 0 or 1 teach nothing, so candidates
    are resampled until the minimal witness bound is at least 2 or there is
    no witness within the bound range at all."""

    def __init__(self):
        rng = random.Random(20240)
        self.models = []
        for i in range(N_MODELS):
            bits = rng.choices([1, 2, 3, 4], weights=[10, 45, 35, 10])[0]
            self.models.append(random_symbolic_model(rng, bits=bits))
        self.ems = [explicit_expand(m) for m in self.models]
        budget = Budget(max_bits=6, max_k=MAX_K + 1)
        self.pairs = []
        self.oracle = []
        want_none = int(N_FORMULAS * 0.4)
        mi = 0
        while len(self.pairs) < N_FORMULAS:
            mi = (mi + 1) % N_MODELS
            m = self.models[mi]
            em = self.ems[mi]
            psi = self._candidate(rng, m)
            verdicts = [exists_witness_bounded(em, psi, k, budget) for k in range(MAX_K + 1)]
            kmin = next((k for k, v in enumerate(verdicts) if v), None)
            if kmin is not None and kmin < 2:
                continue
            if kmin is None:
                if want_none <= 0:
                    continue
                want_none -= 1
            self.pairs.append((mi, psi))
            self.oracle.append(verdicts)

    @staticmethod
    def _candidate(rng, m):
        from pltlbmc import pltl as P

        allow_past = rng.random() < 0.6
        psi = random_pnf_formula(
            rng, list(m.vars), max_cl=7, max_delta=3, allow_past=allow_past
        )
        # bias towards loop-sensitive shapes
        wrap = rng.random()
        if wrap < 0.35:
            psi = P.mk_release(P.FALSE, P.mk_until(P.TRUE, psi))  # G F psi
        elif wrap < 0.55:
            psi = P.mk_until(P.TRUE, psi)  # F psi
        elif wrap < 0.7:
            psi = P.mk_release(P.FALSE, psi)  # G psi
        return psi


@pytest.fixture(scope="module")
def grid():
    return Grid()


def solve_monolithic(scheme, m, psi, k, d_max=None):
    opts = RunOptions(scheme=scheme, d_max=d_max)
    s, vm = encode_bound(scheme_model(m, psi, opts), psi, k, opts)
    return s.solve() == SAT, s, vm


def test_criterion_1_and_2_oracle_equivalence_and_scheme_agreement(grid):
    t0 = time.time()
    checked = 0
    sat_instances = []  # stashed for criterion 4
    grid.sat_instances = sat_instances
    for idx, (mi, psi) in enumerate(grid.pairs):
        m = grid.models[mi]
        future_only = past_depth(psi) == 0
        inc = IncrementalEncoder(m, psi)
        for k in range(MAX_K + 1):
            expected = grid.oracle[idx][k]
            got, s, vm = solve_monolithic("pltl", m, psi, k)
            assert got == expected, f"pltl vs oracle: pair {idx} k={k} {psi}"
            if got and len(sat_instances) < 120:
                sat_instances.append((mi, psi, k))
            inc.step(k)
            inc_got = inc.query_witness() == SAT
            assert inc_got == expected, f"incremental vs oracle: pair {idx} k={k} {psi}"
            if future_only:
                for scheme in ("fixpoint", "eventuality", "buchi"):
                    sgot, _, _ = solve_monolithic(scheme, m, psi, k)
                    assert sgot == expected, f"{scheme} vs oracle: pair {idx} k={k} {psi}"
            checked += 1
    future_pairs = sum(1 for _, psi in grid.pairs if past_depth(psi) == 0)
    report(
        1,
        "oracle equivalence",
        f"{len(grid.pairs)} pairs x {MAX_K + 1} bounds = {checked} verdicts, "
        f"{time.time() - t0:.1f}s",
    )
    report(
        2,
        "scheme agreement",
        f"future-only pairs: {future_pairs}, incremental matched monolithic on all "
        f"{checked} verdicts",
    )


def test_criterion_3_running_example():
    v = run_bmc(COUNTER, "!(F (x3 & O (x4 & O x5)))", RunOptions(max_k=8))
    assert isinstance(v, WitnessFound) and v.k == 6 and v.witness.loop_start == 3
    got6, _, _ = solve_monolithic("pltl", COUNTER, to_pnf(parse_formula("F (x3 & O (x4 & O x5))")), 6, d_max=0)
    assert not got6
    psi = to_pnf(parse_formula("F (x3 & O (x4 & O x5))"))
    firsts = [k for k in range(13) if solve_monolithic("pltl", COUNTER, psi, k, d_max=0)[0]]
    assert firsts and firsts[0] == 11  # golden value, frozen from the first run
    report(3, "running example", "witness (6,3) at full unrolling; capped depth first fires at k=11")


def test_criterion_4_unique_model_property(grid):
    if not hasattr(grid, "sat_instances"):
        pytest.skip("criterion 1 must run first")
    assert len(grid.sat_instances) >= 100
    t0 = time.time()
    checked = 0
    for mi, psi, k in grid.sat_instances[:110]:
        m = grid.models[mi]
        got, s, vm = solve_monolithic("pltl", m, psi, k)
        assert got
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
                if d > 0 and (loop is None or i < loop):
                    continue  # light nodes stay free
            elif role != "aux":
                continue
            blocking.append(-var if s.model_value(var) else var)
        s.add_clause(blocking)
        assert s.solve(pin) == UNSAT, f"model not unique: {psi} k={k}"
        checked += 1
    report(4, "unique model property", f"{checked} satisfiable instances, {time.time() - t0:.1f}s")


def test_criterion_5_liveness_to_safety():
    t0 = time.time()
    rng = random.Random(50401)
    verdicts = 0
    with_inputs = 0
    for i in range(100):
        bits = rng.choices([2, 3, 4], weights=[45, 40, 15])[0]
        m = random_symbolic_model(rng, bits=bits, fair_sets=rng.randint(0, 2))
        add_input = rng.random() < 0.35
        if add_input:
            m = parse_model(model_to_text(m) + "\nVAR free_in\nINPUT free_in\n")
        em = explicit_expand(m)
        found = fair_lasso_search(em)
        r = check_l2s_reachability(l2s_transform(m), max_bits=14)
        if found is None:
            assert isinstance(r, Unreachable), f"instance {i}"
        else:
            assert isinstance(r, Reachable), f"instance {i}"
            assert r.depth == found[0], f"instance {i}: depth {r.depth} vs minimal {found[0]}"
        if add_input:
            opt = check_l2s_reachability(l2s_transform(m, optimise=True), max_bits=14)
            assert isinstance(opt, Reachable) == isinstance(r, Reachable), f"instance {i}"
            if isinstance(r, Reachable):
                assert opt.depth == r.depth
            with_inputs += 1
        verdicts += 1
    report(
        5,
        "liveness-to-safety",
        f"{verdicts} fair models ({with_inputs} with declared inputs), {time.time() - t0:.1f}s",
    )


def test_criterion_6_completeness(grid):
    t0 = time.time()
    proved = witnesses = late_witnesses = 0
    for idx, (mi, psi) in enumerate(grid.pairs):
        m = grid.models[mi]
        em = grid.ems[mi]
        kmin = next((k for k in range(MAX_K + 1) if grid.oracle[idx][k]), None)
        v = run_bmc(m, psi, RunOptions(completeness=True, max_k=60))
        if kmin is not None:
            assert isinstance(v, WitnessFound), f"pair {idx}: lost the witness ({psi})"
            assert v.k == kmin, f"pair {idx}: k={v.k} but oracle minimum is {kmin} ({psi})"
            witnesses += 1
        elif isinstance(v, WitnessFound):
            # witness beyond the oracle bound: re-validate it directly
            assert v.k > MAX_K
            states = [
                sum(bool(st[n]) << j for j, n in enumerate(m.vars))
                for st in v.witness.states
            ]
            bp = BoundedPath(em, states, v.witness.loop_start)
            bp.check()
            assert eval_bounded(bp, psi, 0), f"contradicting witness at pair {idx}"
            late_witnesses += 1
        else:
            assert isinstance(v, Proved), f"pair {idx}: no verdict within k=60 ({psi})"
            proved += 1
    report(
        6,
        "completeness",
        f"{proved} proved, {witnesses} minimal witnesses, {late_witnesses} beyond "
        f"the oracle bound, {time.time() - t0:.1f}s",
    )


def test_criterion_7_tight_buechi():
    t0 = time.time()
    rng = random.Random(70707)
    atoms = ("p", "q", "r")
    done = accepted = 0
    while done < 100:
        psi = random_pnf_formula(rng, list(atoms), max_cl=7, max_delta=2)
        ba = build_tight_ba(psi)
        if len(ba.model.vars) - len(ba.atom_names) > 8:
            continue
        word = random_lasso_word(rng, list(atoms), max_total=6)
        prod = product(word_model(word, atoms), ba)
        em = explicit_expand(prod, max_bits=12, require_total=False)
        member = fair_lasso_exists(em)
        expected = eval_lasso(word, psi, 0)
        assert member == expected, f"language mismatch: {psi} on {word}"
        if expected:
            assert _shape_run(em, word), f"no shape-matching run: {psi} on {word}"
            accepted += 1
        done += 1
    report(
        7,
        "tight automaton",
        f"{done} formula/word pairs, {accepted} accepted with shape-matching runs, "
        f"{time.time() - t0:.1f}s",
    )


def _shape_run(em, word):
    stem, period = len(word.prefix), word.period
    layer = set(em.initial)
    for _ in range(stem):
        layer = {t for s in layer for t in em.succ[s]}
    nfair = len(em.fair_sets)
    full = (1 << nfair) - 1

    def hits(state):
        return sum(1 << i for i in range(nfair) if state in em.fair_sets[i])

    for q in layer:
        reach = {(q, hits(q))}
        for _ in range(period):
            reach = {(t, mask | hits(t)) for (s, mask) in reach for t in em.succ[s]}
        if any(s == q and mask == full for (s, mask) in reach):
            return True
    return False


def test_criterion_8_stabilisation():
    t0 = time.time()
    rng = random.Random(80808)
    checked = 0
    for _ in range(120):
        word = random_lasso_word(rng, ["p", "q", "r"], max_total=6)
        if not word.prefix:
            word = make_lasso([word.loop[0]], list(word.loop[1:]) + [word.loop[0]])
        psi = random_pnf_formula(rng, ["p", "q", "r"], max_cl=8, max_delta=3)
        l = len(word.prefix)
        p = word.period
        k = l + p - 1
        for f in closure(psi):
            delta = past_depth(f)
            for i in range(l, l + (delta + 4) * p):
                d = d_unrolling_index(i, k, l)
                if d >= delta:
                    j = i - (d - delta) * p
                    assert eval_lasso(word, f, i) == eval_lasso(word, f, j), (
                        f"{f} at {i} vs {j} on {word}"
                    )
                    checked += 1
    report(8, "stabilisation", f"{checked} position pairs, {time.time() - t0:.1f}s")


def test_criterion_9_sat_layer(tmp_path):
    t0 = time.time()
    rng = random.Random(90909)
    external = (sys.executable, os.path.join(os.path.dirname(__file__), "external_dpll.py"))
    n_checked = n_external = 0
    for i in range(1000):
        nv = rng.randint(1, 20)
        nc = rng.randint(1, int(nv * 4.4) + 1)
        clauses = random_cnf(rng, nv, nc)
        s = Solver()
        for _ in range(nv):
            s.new_var()
        for c in clauses:
            s.add_clause(c)
        mine = s.solve()
        expected = brute_force_sat(nv, clauses)
        assert (mine == SAT) == expected, f"instance {i}"
        if mine == SAT:
            for clause in clauses:
                assert any(s.model_value(l) for l in clause)
        n_checked += 1
        if i % 7 == 0 and nv <= 13:
            path = tmp_path / "ext.cnf"
            export_dimacs(s, path)
            theirs, _ = run_external_solver(external, path)
            assert mine == theirs, f"external disagrees on instance {i}"
            n_external += 1
    report(
        9,
        "sat layer",
        f"{n_checked} CNFs vs enumeration, {n_external} cross-checked externally, "
        f"{time.time() - t0:.1f}s",
    )


def test_zz_summary():
    print("\n".join([""] + _passed))
    assert len(_passed) >= 9
