import random

import pytest

from pltlbmc.model import parse_model, explicit_expand, model_to_text
from pltlbmc.pltl import parse_formula, to_pnf, past_depth, closure
from pltlbmc.sat import SAT, UNSAT, Solver
from pltlbmc.encode import TimedVarMap, encode_general_buchi, encode_pltl
from pltlbmc.tightba import TightBAError, build_tight_ba, product
from pltlbmc.oracle import eval_lasso, fair_lasso_exists, make_lasso

from _fixtures import FIXTURES
from _grid import random_lasso_word, random_pnf_formula, random_symbolic_model, word_model


def pnf(text):
    return to_pnf(parse_formula(text))


COUNTER = parse_model((FIXTURES / "counter.mod").read_text())


def own_bits(ba):
    return len(ba.model.vars) - len(ba.atom_names)


def accepts(ba, word, atoms):
    prod = product(word_model(word, atoms), ba)
    em = explicit_expand(prod, max_bits=12, require_total=False)
    return fair_lasso_exists(em)


def shape_run_exists(ba, word, atoms):
    """Accepting run whose stem and loop lengths equal the word's."""
    prod = product(word_model(word, atoms), ba)
    em = explicit_expand(prod, max_bits=12, require_total=False)
    stem, period = len(word.prefix), word.period
    layer = set(em.initial)
    for _ in range(stem):
        layer = {t for s in layer for t in em.succ[s]}
    nfair = len(em.fair_sets)
    full = (1 << nfair) - 1
    for q in layer:
        # cycle of length exactly `period` from q back to q hitting all sets
        reach = {(q, _hits(em, q, nfair))}
        for _ in range(period):
            reach = {
                (t, mask | _hits(em, t, nfair))
                for (s, mask) in reach
                for t in em.succ[s]
            }
        if any(s == q and mask == full for (s, mask) in reach):
            return True
    return False


def _hits(em, state, nfair):
    return sum(1 << i for i in range(nfair) if state in em.fair_sets[i])


class TestConstruction:
    def test_pure_future_formula_has_single_unrolling(self):
        ba = build_tight_ba(pnf("G p"))
        assert ba.model.vars == ("p", "ba2d0", "ba_inloop", "ba_le")
        assert accepts(ba, make_lasso([], [{"p"}]), ("p",))
        assert not accepts(ba, make_lasso([], [{"p"}, set()]), ("p",))

    def test_variable_count(self):
        psi = pnf("F (x3 & O (x4 & O x5))")
        ba = build_tight_ba(psi)
        # one variable per temporal subformula and unrolling, plus two oracles
        expected = sum(
            past_depth(f) + 1
            for f in closure(psi)
            if f.kind in ("X", "U", "R", "Y", "Z", "S", "T")
        )
        own = [v for v in ba.model.vars if v.startswith("ba")]
        assert len(own) == expected + 2

    def test_output_is_a_valid_model_file(self):
        ba = build_tight_ba(pnf("F (p & Y q)"))
        m2 = parse_model(model_to_text(ba.model))
        assert set(m2.vars) == set(ba.model.vars)
        assert len(m2.fairness) == len(ba.model.fairness)

    def test_previous_example_word(self):
        ba = build_tight_ba(pnf("F (p & Y q)"))
        assert accepts(ba, make_lasso([], [{"q"}, {"p"}]), ("p", "q"))
        assert not accepts(ba, make_lasso([], [set()]), ("p", "q"))

    def test_yyy_on_the_counter_word(self):
        """Acceptance settles at time point 3, where x=3 and x was 0 three
        steps earlier; tightness makes the shape bound |stem|+|loop| enough.
        The automaton is too wide for explicit expansion, so membership runs
        through the fair-loop encoding of the product."""
        atoms = ("x0", "x1", "x2", "x3", "x4", "x5")
        ba = build_tight_ba(pnf("F (x3 & Y Y Y x0)"))
        word = make_lasso([{"x0"}, {"x1"}, {"x2"}], [{"x3"}, {"x4"}, {"x5"}, {"x2"}])
        assert eval_lasso(word, pnf("F (x3 & Y Y Y x0)"), 0)
        prod = product(word_model(word, atoms), ba)
        assert self._buchi_sat(prod, 7) == SAT
        shifted = make_lasso([{"x1"}, {"x1"}, {"x2"}], [{"x3"}, {"x4"}, {"x5"}, {"x2"}])
        assert not eval_lasso(shifted, pnf("F (x3 & Y Y Y x0)"), 0)
        prod = product(word_model(shifted, atoms), ba)
        for k in range(10):
            assert self._buchi_sat(prod, k) == UNSAT

    @staticmethod
    def _buchi_sat(prod, k):
        vm = TimedVarMap(Solver())
        vm.solver.add_clause([encode_general_buchi(prod, None, k, vm)])
        return vm.solver.solve()

    # an oracle variable, the define of the and/or node ``ba3d0 & q``, and
    # a word of the model grammar
    @pytest.mark.parametrize("spec, atom", [("F ba_le", "ba_le"), ("F (ba3d0 & q)", "ba3d0"), ("F next", "next")])
    def test_atom_name_clash_rejected(self, spec, atom):
        with pytest.raises(TightBAError, match=f"collide.*'{atom}'"):
            build_tight_ba(pnf(spec))


class TestLanguage:
    ATOMS = ("p", "q")

    def test_language_agreement_on_random_words(self):
        rng = random.Random(101)
        done = 0
        while done < 25:
            psi = random_pnf_formula(rng, list(self.ATOMS), max_cl=6, max_delta=2)
            ba = build_tight_ba(psi)
            if own_bits(ba) > 8:
                continue
            done += 1
            word = random_lasso_word(rng, list(self.ATOMS), max_total=5)
            assert accepts(ba, word, self.ATOMS) == eval_lasso(word, psi, 0), str(psi)

    def test_tightness_shape_matching_runs(self):
        rng = random.Random(103)
        done = 0
        while done < 15:
            psi = random_pnf_formula(rng, list(self.ATOMS), max_cl=6, max_delta=2)
            ba = build_tight_ba(psi)
            if own_bits(ba) > 8:
                continue
            word = random_lasso_word(rng, list(self.ATOMS), max_total=5)
            if not eval_lasso(word, psi, 0):
                continue
            done += 1
            assert shape_run_exists(ba, word, self.ATOMS), str(psi)

    def test_false_formula_has_empty_language(self):
        ba = build_tight_ba(pnf("false"))
        rng = random.Random(107)
        for _ in range(5):
            word = random_lasso_word(rng, ["p"], max_total=4)
            assert not accepts(ba, word, ("p",))


class TestProduct:
    def test_counter_times_running_example(self):
        psi = pnf("F (x3 & O (x4 & O x5))")
        prod = product(COUNTER, build_tight_ba(psi))
        for k, expected in ((5, UNSAT), (6, SAT)):
            vm = TimedVarMap(Solver())
            vm.solver.add_clause([encode_general_buchi(prod, psi, k, vm)])
            assert vm.solver.solve() == expected

    def test_emptiness_matches_direct_encoding(self):
        """Loop witnesses of the product are bounded witnesses of the model,
        and nonemptiness of the product tracks witness existence."""
        rng = random.Random(109)
        checked = 0
        while checked < 12:
            m = random_symbolic_model(rng, bits=2)
            psi = random_pnf_formula(rng, list(m.vars), max_cl=5, max_delta=1)
            ba = build_tight_ba(psi)
            prod = product(m, ba)
            if len(prod.vars) > 12:
                continue
            checked += 1

            def sat_at(encode, k):
                vm = TimedVarMap(Solver())
                vm.solver.add_clause([encode(k, vm)])
                return vm.solver.solve() == SAT

            buchi = [sat_at(lambda k, vm: encode_general_buchi(prod, psi, k, vm), k) for k in range(7)]
            pltl = [sat_at(lambda k, vm: encode_pltl(m, psi, k, vm), k) for k in range(7)]
            nonempty = fair_lasso_exists(explicit_expand(prod, max_bits=12, require_total=False))
            for k in range(7):
                if buchi[k]:
                    assert pltl[k], (k, str(psi))
            if any(pltl):
                assert nonempty, str(psi)
            if not nonempty:
                assert not any(buchi) and not any(pltl), str(psi)

    # the state variable of X q and the define of p & X q in the automaton
    # of F (p & X q)
    @pytest.mark.parametrize("taken", ["ba3d0", "ba4d0"])
    def test_model_names_clashing_with_the_automaton_rejected(self, taken):
        m = parse_model(f"VAR p q\nDEFINE {taken} := p\nINIT true\nTRANS true\n")
        with pytest.raises(TightBAError, match=f"clash.*'{taken}'"):
            product(m, build_tight_ba(pnf("F (p & X q)")))

    def test_unresolved_atom(self):
        with pytest.raises(TightBAError, match="unresolved"):
            product(COUNTER, build_tight_ba(pnf("F nosuch")))


class TestDegeneration:
    def test_future_formulas_collapse_to_depth_zero(self):
        rng = random.Random(113)
        for _ in range(10):
            psi = random_pnf_formula(rng, ["p", "q"], max_cl=6, allow_past=False)
            full = build_tight_ba(psi, d_max=None)
            capped = build_tight_ba(psi, d_max=0)
            assert model_to_text(full.model) == model_to_text(capped.model)
            word = random_lasso_word(rng, ["p", "q"], max_total=4)
            assert accepts(full, word, ("p", "q")) == accepts(capped, word, ("p", "q"))