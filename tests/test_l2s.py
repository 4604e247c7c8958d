import random
import time

import pytest

from pltlbmc.model import ModelError, TotalityError, parse_model, explicit_expand, model_to_text
from pltlbmc.l2s import (
    L2SError,
    Reachable,
    Unreachable,
    check_l2s_reachability,
    l2s_transform,
)
from pltlbmc.check import WitnessFound, run_bmc
from pltlbmc.oracle import fair_lasso_search

from _fixtures import FIXTURES
from _grid import random_symbolic_model

COUNTER_FAIR = parse_model((FIXTURES / "counter_fair.mod").read_text())


class TestTransform:
    def test_counter_reaches_loopclosed_at_depth_six(self):
        r = check_l2s_reachability(l2s_transform(COUNTER_FAIR))
        assert isinstance(r, Reachable)
        assert r.depth == 6
        # the loop copy was guessed at x=2
        last = r.trace[-1]
        assert (last["b0"], last["b1"], last["b2"]) == (False, True, False)
        assert (last["l2s_copy_b0"], last["l2s_copy_b1"], last["l2s_copy_b2"]) == (
            False,
            True,
            False,
        )

    def test_trace_ends_in_a_loopclosed_state(self):
        t = l2s_transform(COUNTER_FAIR)
        r = check_l2s_reachability(t)
        em = explicit_expand(t.model)
        last = r.trace[-1]
        state = sum(bool(last[v]) << j for j, v in enumerate(t.model.vars))
        assert t.target in em.labels[state]

    def test_cycle_missing_the_fair_set_is_unreachable(self):
        m = parse_model(
            "VAR a\nINIT !a\nTRANS next(a) <-> a\nDEFINE hit := a\nFAIRNESS hit\n"
        )
        assert isinstance(check_l2s_reachability(l2s_transform(m)), Unreachable)

    def test_zero_acceptance_sets(self):
        m = parse_model("VAR a\nINIT !a\nTRANS next(a) <-> !a\n")
        r = check_l2s_reachability(l2s_transform(m))
        assert isinstance(r, Reachable) and r.depth == 2

    def test_state_space_doubles_plus_flags(self):
        t = l2s_transform(COUNTER_FAIR)
        assert len(t.model.vars) == 3 + 3 + 2 + 1
        assert t.model.spec_text == "G !LoopClosed"

    def test_output_parses_and_validates(self):
        t = l2s_transform(COUNTER_FAIR)
        m2 = parse_model(model_to_text(t.model))
        assert m2.vars == t.model.vars

    def test_reserved_name_clash_rejected(self):
        m = parse_model("VAR l2s_save\nINIT true\nTRANS true\nFAIRNESS l2s_save\n")
        with pytest.raises(L2SError, match="reserved"):
            l2s_transform(m)

    def test_copy_name_clash_rejected(self):
        m = parse_model("VAR a l2s_copy_a\nINIT true\nTRANS true\n")
        with pytest.raises(L2SError, match="reserved.*'l2s_copy_a'"):
            l2s_transform(m)

    def test_transformed_model_is_total(self):
        rng = random.Random(79)
        for _ in range(5):
            m = random_symbolic_model(rng, bits=2, fair_sets=1)
            explicit_expand(l2s_transform(m).model)  # raises on a deadlock


class TestEquivalence:
    def test_matches_fair_lasso_search(self):
        rng = random.Random(83)
        for _ in range(25):
            m = random_symbolic_model(rng, bits=rng.randint(1, 2), fair_sets=rng.randint(0, 2))
            em = explicit_expand(m)
            found = fair_lasso_search(em)
            r = check_l2s_reachability(l2s_transform(m))
            if found is None:
                assert isinstance(r, Unreachable)
            else:
                assert isinstance(r, Reachable)
                assert r.depth == found[0]

    def test_optimisation_preserves_the_verdict(self):
        rng = random.Random(89)
        for _ in range(15):
            base = random_symbolic_model(rng, bits=2, fair_sets=1)
            m = parse_model(model_to_text(base) + "\nVAR free_in\nINPUT free_in\n")
            plain = check_l2s_reachability(l2s_transform(m, optimise=False))
            opt = check_l2s_reachability(l2s_transform(m, optimise=True))
            assert isinstance(plain, Reachable) == isinstance(opt, Reachable)
            if isinstance(plain, Reachable):
                assert plain.depth == opt.depth

    def test_optimisation_drops_the_copy(self):
        base = random_symbolic_model(random.Random(97), bits=2, fair_sets=1)
        m = parse_model(model_to_text(base) + "\nVAR free_in\nINPUT free_in\n")
        t = l2s_transform(m, optimise=True)
        assert t.optimised_out == ("free_in",)
        assert "l2s_copy_free_in" not in t.model.vars
        assert "l2s_copy_v0" in t.model.vars


def expanded_search(t):
    """The search over the full expansion: BFS over ``explicit_expand``'s
    edges, layer by layer, first reacher of a state as its parent."""
    em = explicit_expand(t.model)
    parent = {}
    frontier = list(em.initial)
    seen = set(frontier)
    depth = 0
    while frontier:
        hit = next((s for s in frontier if t.target in em.labels[s]), None)
        if hit is not None:
            trace = [em.assignment(hit)]
            while hit in parent:
                hit = parent[hit]
                trace.append(em.assignment(hit))
            return Reachable(depth=depth, trace=tuple(reversed(trace)))
        nxt = []
        for s in frontier:
            for t2 in em.succ[s]:
                if t2 not in seen:
                    seen.add(t2)
                    parent[t2] = s
                    nxt.append(t2)
        frontier = nxt
        depth += 1
    return Unreachable()


class TestOnTheFlySearch:
    def test_matches_the_search_over_the_full_expansion(self):
        """Same depth and same trace on 200 random fair models, with and
        without the input optimisation.  Transformed models are kept to at
        most 11 bits so that the full expansion stays cheap."""
        rng = random.Random(131)
        compared = reached = 0
        while compared < 200:
            m = random_symbolic_model(
                rng, bits=rng.randint(2, 4), fair_sets=rng.randint(0, 2), n_inputs=rng.randint(0, 1)
            )
            if rng.random() < 0.3:
                m = parse_model(model_to_text(m) + "\nVAR free_in\nINPUT free_in\n")
            t = l2s_transform(m, optimise=rng.random() < 0.5)
            if len(t.model.vars) > 11:
                continue
            r = check_l2s_reachability(t)
            assert r == expanded_search(t)
            compared += 1
            reached += isinstance(r, Reachable)
        assert 0 < reached < compared

    def test_max_bits_guard(self):
        t = l2s_transform(COUNTER_FAIR)
        with pytest.raises(ModelError, match="^model has 9 state bits, limit is 8$"):
            check_l2s_reachability(t, max_bits=8)
        assert isinstance(check_l2s_reachability(t, max_bits=9), Reachable)

    def test_a_model_with_thousands_of_trans_lines(self):
        lines = ["VAR a b", "INIT !a & !b"]
        lines += ["TRANS next(a) -> (a | !a)", "TRANS next(b) <-> a"] * 1500
        r = check_l2s_reachability(l2s_transform(parse_model("\n".join(lines) + "\n")))
        assert isinstance(r, Reachable) and r.depth == 1


class TestTotality:
    """The search reports a dead end only when it expands one; the full
    expansion reports every dead end."""

    def test_an_expanded_dead_end_raises_and_names_the_state(self):
        m = parse_model("VAR a b\nINIT !a & !b\nTRANS !a & next(a) & (next(b) <-> b)\n")
        with pytest.raises(TotalityError, match="state a=1 b=0 l2s_copy_a=. l2s_copy_b=0 "):
            check_l2s_reachability(l2s_transform(m))

    def test_an_unreachable_dead_end_is_not_reported(self):
        m = parse_model("VAR a b\nINIT !a\nTRANS !a & !next(a)\n")
        t = l2s_transform(m)
        with pytest.raises(TotalityError):
            explicit_expand(t.model)
        assert isinstance(check_l2s_reachability(t), Reachable)

    def test_the_layer_holding_the_target_is_not_expanded(self):
        """State a=1 is a dead end reached at depth 1, in the same layer as
        LoopClosed, which ends the search before that layer is expanded."""
        m = parse_model("VAR a\nINIT !a\nTRANS !a\n")
        r = check_l2s_reachability(l2s_transform(m))
        assert isinstance(r, Reachable) and r.depth == 1


def nested_fairness(n):
    """A FAIRNESS define d_{n-1} in which d_i names d_{i-1} twice:
    ``l2s_transform`` inlines it through ``shift``, which shares each d_i,
    so its transition relation is a DAG of 2^n paths."""
    lines = ["VAR a b", "TRANS next(a) <-> !a", "DEFINE d0 := a"]
    lines += [f"DEFINE d{i} := d{i - 1} <-> (b | d{i - 1})" for i in range(1, n)]
    return parse_model("\n".join(lines + [f"FAIRNESS d{n - 1}"]) + "\n")


class TestNestedFairnessDefines:
    """Each shared node of the shifted fairness is evaluated once."""

    def test_witness_validation(self):
        t = l2s_transform(nested_fairness(24))
        start = time.perf_counter()
        v = run_bmc(t.model, "G !LoopClosed")
        elapsed = time.perf_counter() - start
        assert isinstance(v, WitnessFound)
        assert elapsed < 0.5

    def test_the_search_and_the_expansion(self):
        t = l2s_transform(nested_fairness(18))
        start = time.perf_counter()
        r = check_l2s_reachability(t)
        em = explicit_expand(t.model)
        elapsed = time.perf_counter() - start
        assert isinstance(r, Reachable) and r.depth == 2
        assert em.nstates == 128 and len(em.initial) == 16
        assert elapsed < 0.5
