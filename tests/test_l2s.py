import random

import pytest

from pltlbmc.model import parse_model, explicit_expand, model_to_text
from pltlbmc.l2s import (
    L2SError,
    Reachable,
    Unreachable,
    check_l2s_reachability,
    l2s_transform,
)
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
