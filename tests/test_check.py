import random

import pytest

from pltlbmc.model import parse_model, explicit_expand
from pltlbmc.pltl import parse_formula, to_pnf, closure, s_not
from pltlbmc.sat import SAT, UNSAT, Solver, CircuitBuilder
from pltlbmc.encode import IncrementalEncoder, TimedVarMap, encode_pltl, simple_path_pair
from pltlbmc.check import (
    BoundExhausted,
    CheckError,
    Proved,
    RunOptions,
    WitnessFound,
    WitnessValidationError,
    extract_witness,
    run_bmc,
    trace_lines,
    verdict_line,
)
from pltlbmc.oracle import (
    BoundedPath,
    Budget,
    eval_bounded,
    exists_witness_bounded,
    minimal_witness_k,
)

from _grid import random_pnf_formula, random_symbolic_model


def pnf(text):
    return to_pnf(parse_formula(text))


COUNTER = parse_model(open("fixtures/counter.mod").read())


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
        with pytest.raises(Exception, match="future"):
            run_bmc(COUNTER, "!(F (x3 & O x4))", RunOptions(scheme="fixpoint"))

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


def build_simple_path(k, vm, b, cl, model_vars):
    """Pairwise distinctness over 0 <= i < j <= k."""
    return b.and_(
        *[simple_path_pair(b, vm, cl, model_vars, i, j) for j in range(1, k + 1) for i in range(j)]
    )


class TestSimplePath:
    def test_k0_is_vacuous(self):
        s = Solver()
        b = CircuitBuilder(s)
        vm = TimedVarMap(b)
        psi = pnf("F x4")
        encode_pltl(COUNTER, psi, 0, None, b, vm)
        assert build_simple_path(0, vm, b, closure(psi), COUNTER.vars) == b.TRUE
        # a position never differs from itself
        assert simple_path_pair(b, vm, closure(psi), COUNTER.vars, 0, 0) == b.FALSE

    def test_identical_positions_violate_the_constraint(self):
        m = parse_model("VAR a b\nINIT true\nTRANS true\n")
        s = Solver()
        b = CircuitBuilder(s)
        vm = TimedVarMap(b)
        psi = pnf("F a")
        b.assert_(encode_pltl(m, psi, 2, None, b, vm))
        sp = build_simple_path(2, vm, b, closure(psi), m.vars)
        assert s.solve() == SAT
        # two identical stem positions with equal formula bits are allowed
        # without the constraint but contradict it
        pins = [b.iff(vm.fvar(f, 0, 0), vm.fvar(f, 1, 0)) for f in closure(psi)]
        eq_state = b.and_(*[b.iff(vm.state_bit(0, n), vm.state_bit(1, n)) for n in m.vars])
        eq_inloop = b.iff(vm.in_loop(0), vm.in_loop(1))
        assert s.solve([eq_state, eq_inloop] + pins) == SAT
        assert s.solve([sp, eq_state, eq_inloop] + pins) == UNSAT

    def test_counter_completeness_depth_is_stable(self):
        """CTrans and the simple path formula go unsatisfiable at the golden
        bound recorded for the fixture (regression guard)."""
        inc = IncrementalEncoder(COUNTER, pnf("F p7"))
        depths = []
        for k in range(12):
            inc.step(k)
            depths.append(inc.query_completeness())
        assert depths.index(UNSAT) == 10


class TestWitnessExtraction:
    def _solve_pltl(self, m, psi, k):
        s = Solver()
        b = CircuitBuilder(s)
        vm = TimedVarMap(b)
        b.assert_(encode_pltl(m, psi, k, None, b, vm))
        assert s.solve() == SAT
        return s, vm

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

    def test_trace_lines_mark_the_loop(self):
        s, vm = self._solve_pltl(COUNTER, pnf("G F x4"), 6)
        w = extract_witness(s.model_value, vm, COUNTER, 6)
        lines = trace_lines(w)
        assert lines[3] == "-- loop starts here --"
        assert lines[0].startswith("state 0: b0=0 b1=0 b2=0")


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
