import random

import pytest

from pltlbmc.model import parse_model, explicit_expand
from pltlbmc.pltl import parse_formula, to_pnf, past_depth
from pltlbmc.oracle import (
    BoundedPath,
    BudgetExceeded,
    OracleError,
    d_unrolling_index,
    eval_bounded,
    eval_lasso,
    eval_lasso_scan,
    exists_witness_bounded,
    fair_lasso_exists,
    fair_lasso_search,
    make_lasso,
    minimal_witness_k,
    path_rows,
)

from _fixtures import FIXTURES
from _grid import random_lasso_word, random_pnf_formula, random_symbolic_model


def pnf(text):
    return to_pnf(parse_formula(text))


COUNTER = parse_model((FIXTURES / "counter.mod").read_text())
COUNTER_FAIR = parse_model((FIXTURES / "counter_fair.mod").read_text())


@pytest.fixture(scope="module")
def counter_em():
    return explicit_expand(COUNTER)


@pytest.fixture(scope="module")
def counter_loop(counter_em):
    return BoundedPath(counter_em, [0, 1, 2, 3, 4, 5, 2], 3)


class TestExactLassoEvaluation:
    def test_yyy_only_at_time_three(self, counter_loop):
        w = counter_loop.word()
        f = pnf("x3 & Y Y Y x0")
        names = counter_loop.em.names()
        assert eval_lasso(w, f, 3, names) is True
        assert eval_lasso(w, f, 7, names) is False
        assert all(not eval_lasso(w, f, i, names) for i in range(12) if i != 3)

    def test_once_chain_first_true_at_eight(self, counter_loop):
        w = counter_loop.word()
        f = pnf("O (x4 & O x5)")
        vals = [eval_lasso(w, f, i) for i in range(16)]
        assert vals.index(True) == 8
        assert all(vals[8:])

    def test_subformula_periodicity(self, counter_loop):
        """After enough unrollings the truth values repeat with the period."""
        w = counter_loop.word()
        f = pnf("x3 & O (x4 & O x5)")
        p = w.period
        start = len(w.prefix) + past_depth(f) * p
        for i in range(start, start + 3 * p):
            assert eval_lasso(w, f, i) == eval_lasso(w, f, i + p)

    def test_running_example_holds_at_zero(self, counter_loop):
        assert eval_lasso(counter_loop.word(), pnf("F (x3 & O (x4 & O x5))"), 0)

    def test_unknown_atom_rejected(self, counter_loop):
        with pytest.raises(OracleError, match="atom"):
            eval_bounded(counter_loop, pnf("nosuch"), 0)
        # without a loop, where x0 already decides the disjunction
        with pytest.raises(OracleError, match="atom"):
            eval_bounded(BoundedPath(counter_loop.em, [0], None), pnf("x0 | nosuch"), 0)

    def test_two_evaluators_agree(self):
        rng = random.Random(41)
        for _ in range(250):
            f = random_pnf_formula(rng, ["p", "q", "r"], max_cl=8, max_delta=3)
            w = random_lasso_word(rng, ["p", "q", "r"], max_total=6)
            for pos in range(0, len(w.prefix) + 2 * w.period + 1):
                assert eval_lasso(w, f, pos) == eval_lasso_scan(w, f, pos)


class TestBoundedSemantics:
    def test_next_false_at_the_end_without_loop(self, counter_em):
        path = BoundedPath(counter_em, [0, 1], None)
        assert eval_bounded(path, pnf("X x2"), 1) is False
        assert eval_bounded(path, pnf("X x1"), 0) is True

    def test_until_must_be_fulfilled_in_the_prefix(self, counter_em):
        path = BoundedPath(counter_em, [0, 1, 2], None)
        assert eval_bounded(path, pnf("F x2"), 0) is True
        assert eval_bounded(path, pnf("F x3"), 0) is False

    def test_release_needs_a_release_point_without_loop(self, counter_em):
        path = BoundedPath(counter_em, [0, 1], None)
        # G-shaped formulas cannot hold on a plain prefix
        assert eval_bounded(path, pnf("G true"), 0) is False

    def test_past_operators_on_prefix(self, counter_em):
        path = BoundedPath(counter_em, [0, 1, 2], None)
        assert eval_bounded(path, pnf("Y x1"), 2) is True
        assert eval_bounded(path, pnf("Z false"), 0) is True
        assert eval_bounded(path, pnf("O x0"), 2) is True
        assert eval_bounded(path, pnf("H !x3"), 2) is True

    def test_position_out_of_range(self, counter_loop):
        with pytest.raises(OracleError, match="position"):
            eval_bounded(counter_loop, pnf("x0"), 7)

    def test_invalid_loop_choice_rejected(self, counter_em):
        # states[0] != states[2], so there is no (2,1)-loop to evaluate on
        path = BoundedPath(counter_em, [0, 1, 2], 1)
        for call in (path.check, lambda: eval_bounded(path, pnf("G F x1"), 0)):
            with pytest.raises(OracleError, match="invalid loop choice"):
                call()

    def test_loop_case_equals_exact_semantics(self, counter_loop):
        f = pnf("G F x4")
        assert eval_bounded(counter_loop, f, 0) is True


def random_labels(rng, atoms, n):
    return [frozenset(a for a in atoms if rng.random() < 0.5) for _ in range(n)]


def words_extending(rng, labels, atoms):
    """Lasso words whose first positions carry ``labels``: the path's own
    lasso for every loop start, and the path followed by a random lasso."""
    words = [make_lasso(labels[:l], labels[l:]) for l in range(len(labels))]
    tail = random_lasso_word(rng, atoms, max_total=4)
    return words + [make_lasso(labels + list(tail.prefix), tail.loop)]


class TestLoopFreeSemantics:
    """The loop-free rows of ``path_rows`` against the lasso semantics of
    ``eval_lasso``, which ``eval_lasso_scan`` cross-checks."""

    ATOMS = ["p", "q", "r"]

    def test_a_value_that_holds_holds_on_every_extension(self):
        rng = random.Random(53)
        held = 0
        for _ in range(300):
            f = random_pnf_formula(rng, self.ATOMS, max_cl=8, max_delta=2)
            labels = random_labels(rng, self.ATOMS, rng.randint(1, 5))
            row = path_rows(labels, None, f, set(self.ATOMS))[f.fid]
            for w in words_extending(rng, labels, self.ATOMS):
                for i, value in enumerate(row):
                    if value:
                        held += 1
                        assert eval_lasso(w, f, i), (f, labels, w, i)
        assert held > 300

    def test_past_formulas_read_only_the_prefix(self):
        rng = random.Random(59)
        for _ in range(300):
            f = random_pnf_formula(rng, self.ATOMS, max_cl=8, max_delta=3, allow_future=False)
            labels = random_labels(rng, self.ATOMS, rng.randint(1, 5))
            row = path_rows(labels, None, f)[f.fid]
            for w in words_extending(rng, labels, self.ATOMS):
                assert row == [eval_lasso(w, f, i) for i in range(len(labels))], (f, labels, w)


class TestWitnessSearch:
    def test_running_example_bounds(self, counter_em):
        f = pnf("F (x3 & O (x4 & O x5))")
        assert exists_witness_bounded(counter_em, f, 6)
        assert not exists_witness_bounded(counter_em, f, 5)

    def test_unreachable_atom(self, counter_em):
        f = pnf("F p7")
        assert all(not exists_witness_bounded(counter_em, f, k) for k in range(9))

    def test_true_at_zero(self, counter_em):
        assert exists_witness_bounded(counter_em, pnf("true"), 0)

    def test_budget_guards(self, counter_em):
        with pytest.raises(BudgetExceeded):
            exists_witness_bounded(counter_em, pnf("true"), 9)
        big = parse_model(
            "VAR " + " ".join(f"v{i}" for i in range(7)) + "\nINIT true\nTRANS true\n"
        )
        with pytest.raises(BudgetExceeded):
            exists_witness_bounded(explicit_expand(big), pnf("true"), 1)

    def test_minimal_k(self, counter_em):
        assert minimal_witness_k(counter_em, pnf("F x4"), 8) == 4
        assert minimal_witness_k(counter_em, pnf("G F x4"), 8) == 6

    def test_bounded_witness_implies_exact_truth(self):
        """Whenever a loop witness exists at k, the exact semantics agrees."""
        rng = random.Random(43)
        for _ in range(30):
            m = random_symbolic_model(rng, bits=2)
            em = explicit_expand(m)
            f = random_pnf_formula(rng, list(m.vars), max_cl=6, max_delta=2)
            for k in range(0, 5):
                for path in _all_paths(em, k):
                    for l in range(1, k + 1):
                        if path[l - 1] != path[k]:
                            continue
                        bp = BoundedPath(em, path, l)
                        if eval_bounded(bp, f, 0):
                            assert eval_lasso(bp.word(), f, 0)


def _all_paths(em, k):
    out = [[s] for s in em.initial]
    for _ in range(k):
        out = [p + [t] for p in out for t in em.succ[p[-1]]]
    return out


class TestDUnrolling:
    def test_time_seven_is_in_the_first_unrolling(self):
        assert d_unrolling_index(7, 6, 3) == 1

    def test_time_sixteen_maps_back_to_eight(self):
        d = d_unrolling_index(16, 6, 3)
        assert d == 3
        p = 6 - 3 + 1
        assert 16 - (d - 1) * p == 8  # back at depth one

    def test_loop_start_is_in_the_zero_unrolling(self):
        assert d_unrolling_index(3, 6, 3) == 0

    def test_prefix_positions(self):
        assert d_unrolling_index(0, 6, 3) == 0
        assert d_unrolling_index(2, 6, 3) == 0

    def test_stabilisation_property(self):
        """Positions beyond a formula's depth evaluate like the depth copy."""
        rng = random.Random(47)
        for _ in range(40):
            w = random_lasso_word(rng, ["p", "q"], max_total=5)
            if not w.prefix:  # rotate one loop step into the prefix so l >= 1
                w = make_lasso([w.loop[0]], list(w.loop[1:]) + [w.loop[0]])
            f = random_pnf_formula(rng, ["p", "q"], max_cl=7, max_delta=3)
            l = len(w.prefix)
            p = w.period
            k = l + p - 1
            delta = past_depth(f)
            for i in range(l, l + 6 * p):
                d = d_unrolling_index(i, k, l)
                if d >= delta:
                    j = i - (d - delta) * p
                    assert eval_lasso(w, f, i) == eval_lasso(w, f, j)


class TestFairLasso:
    def test_counter_fair(self):
        em = explicit_expand(COUNTER_FAIR)
        assert fair_lasso_search(em) == (6, 3, [0, 1, 2, 3, 4, 5, 2])

    def test_cycle_missing_the_fair_set(self):
        m = parse_model(
            "VAR a\nINIT !a\nTRANS next(a) <-> a\nDEFINE hit := a\nFAIRNESS hit\n"
        )
        em = explicit_expand(m)
        assert fair_lasso_exists(em) is False
        assert fair_lasso_search(em) is None

    def test_no_fair_sets_self_loop(self):
        m = parse_model("VAR a\nINIT !a\nTRANS next(a) <-> a\n")
        em = explicit_expand(m)
        assert fair_lasso_search(em) == (1, 1, [0, 0])

    def test_two_fair_sets(self):
        m = parse_model(
            "VAR a\nINIT !a\nTRANS next(a) <-> !a\nFAIRNESS a\nFAIRNESS !a\n"
        )
        em = explicit_expand(m)
        k, l, path = fair_lasso_search(em)
        assert k == 2 and l == 1 and path == [0, 1, 0]
