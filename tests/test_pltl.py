import random

import pytest
from hypothesis import given, settings, strategies as st

from pltlbmc import pltl
from pltlbmc.pltl import (
    ParseError,
    closure,
    embed,
    format_formula,
    parse_formula,
    past_depth,
    s_not,
    to_pnf,
)
from pltlbmc.oracle import eval_lasso

from _grid import random_lasso_word, random_surface_formula


def pnf(text):
    return to_pnf(parse_formula(text))


class TestParsing:
    def test_g_implication(self):
        f = parse_formula("G (p -> F q)")
        assert f.kind == "G"
        assert f.left.kind == "->"
        assert f.left.right.kind == "F"

    def test_until_right_associative(self):
        f = parse_formula("p U q U r")
        assert f.kind == "U"
        assert f.left.kind == "atom" and f.left.name == "p"
        assert f.right.kind == "U"

    def test_negated_until_parses_without_rewriting(self):
        f = parse_formula("!(p U q)")
        assert f.kind == "!"
        assert f.left.kind == "U"

    def test_precedence_ladder(self):
        f = parse_formula("a & b | c -> d <-> e")
        assert f.kind == "<->"
        assert f.left.kind == "->"
        assert f.left.left.kind == "|"
        assert f.left.left.left.kind == "&"

    def test_unary_binds_tighter_than_until(self):
        f = parse_formula("X p U q")
        assert f.kind == "U"
        assert f.left.kind == "X"

    def test_implication_right_associative(self):
        f = parse_formula("a -> b -> c")
        assert f.kind == "->" and f.right.kind == "->"

    def test_atoms_may_contain_equals(self):
        f = parse_formula("x=3 & x=4")
        assert f.left.name == "x=3" and f.right.name == "x=4"

    def test_operator_letters_are_not_atoms(self):
        with pytest.raises(ParseError):
            parse_formula("U")

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p &\n& q")
        assert err.value.line == 2

    def test_unknown_character(self):
        with pytest.raises(ParseError):
            parse_formula("p @ q")

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse_formula("(p U q")


class TestPnf:
    def test_until_duality(self):
        assert pnf("!(p U q)") is pnf("!p R !q")

    def test_prev_duality(self):
        assert pnf("!Y p") is pnf("Z !p")

    def test_double_negation(self):
        assert pnf("!!p") is pnf("p")

    def test_derived_operators(self):
        assert pnf("F a") is pnf("true U a")
        assert pnf("G a") is pnf("false R a")
        assert pnf("O a") is pnf("true S a")
        assert pnf("H a") is pnf("false T a")

    def test_negation_appears_only_on_atoms(self):
        f = pnf("!((a -> b) <-> G (c S d))")
        for g in closure(f):
            assert g.kind in pltl.PNF_KINDS

    def test_structural_sharing(self):
        f = pnf("(p U q) & (p U q)")
        assert f.left is f.right


class TestPastDepth:
    def test_atom(self):
        assert past_depth(pnf("p")) == 0

    def test_once_chain(self):
        assert past_depth(pnf("O (x=4 & O x=5)")) == 2
        assert past_depth(pnf("O x=5")) == 1

    def test_running_example(self):
        assert past_depth(pnf("F (x=3 & O (x=4 & O x=5))")) == 2

    def test_next_does_not_add(self):
        assert past_depth(pnf("X Y p")) == 1

    def test_since_adds_one(self):
        assert past_depth(pnf("(Y p) S (Z q)")) == 2


def spine(f, side):
    """The kinds down ``f``'s chain of left or right operands."""
    kinds = []
    while f is not None:
        kinds.append(f.kind)
        f = getattr(f, side)
    return kinds


class TestDeepFormulas:
    """Formulas far deeper than the recursion limit parse and print."""

    def test_nested_parentheses(self):
        assert parse_formula("(" * 1500 + "p" + ")" * 1500) == pltl.s_atom("p")

    def test_negations(self):
        f = parse_formula("!" * 1500 + "p")
        assert spine(f, "left") == ["!"] * 1500 + ["atom"]
        assert format_formula(f) == "!" * 1500 + "p"
        assert to_pnf(f) is pnf("p")

    def test_globally(self):
        text = "G " * 1500 + "p"
        f = parse_formula(text)
        assert spine(f, "left") == ["G"] * 1500 + ["atom"]
        assert format_formula(f) == text

    def test_until_chain(self):
        text = " U ".join(["p"] * 1500)
        f = parse_formula(text)
        assert spine(f, "right") == ["U"] * 1499 + ["atom"]
        assert format_formula(f) == format_formula(to_pnf(f)) == text

    def test_deep_formulas_compare_hash_and_print(self):
        for op in ("U", "->"):
            text = f" {op} ".join(["x0"] * 1500)
            f, same = parse_formula(text), parse_formula(text)
            assert f == same and hash(f) == hash(same)
            assert f != parse_formula(text + f" {op} x1")
            leaf = "SurfaceFormula(kind='atom', name='x0', left=None, right=None)"
            node = f"SurfaceFormula(kind='{op}', name=None, left={leaf}, right="
            assert repr(f) == node * 1499 + leaf + ")" * 1499

    def test_pnf_formula(self):
        g = pltl.mk_atom("p")
        for n in range(1500):
            g = [pltl.mk_next, pltl.mk_prevz][n % 2](pltl.mk_release(pltl.mk_natom("q"), pltl.mk_or(g, pltl.TRUE)))
        text = format_formula(g)
        assert text.startswith("Z (!q R (X (!q R (") and text.count("(") == 3000
        assert to_pnf(parse_formula(text)) is g
        assert to_pnf(embed(g)) is g


class TestClosure:
    def test_atom(self):
        f = pnf("p")
        assert closure(f) == [f]

    def test_until(self):
        f = pnf("p U q")
        assert [format_formula(g) for g in closure(f)] == ["p", "q", "p U q"]

    def test_running_example_has_nine_members(self):
        f = pnf("F (x=3 & O (x=4 & O x=5))")
        assert len(closure(f)) == 9

    def test_children_before_parents(self):
        f = pnf("(p & q) U (p | q)")
        cl = closure(f)
        pos = {g.fid: n for n, g in enumerate(cl)}
        for g in cl:
            for child in (g.left, g.right):
                if child is not None:
                    assert pos[child.fid] < pos[g.fid]

    def test_top_formula_is_a_member(self):
        f = pnf("G (p -> F q)")
        assert closure(f)[-1] is f


def _surface_strategy():
    atom = st.sampled_from(["p", "q", "r"]).map(pltl.s_atom)
    leaf = st.one_of(atom, st.just(pltl.S_TRUE), st.just(pltl.S_FALSE))

    def extend(children):
        unary = st.sampled_from(["!", "X", "F", "G", "Y", "Z", "O", "H"])
        binary = st.sampled_from(["&", "|", "->", "<->", "U", "R", "S", "T"])
        return st.one_of(
            st.tuples(unary, children).map(lambda t: pltl.s_unop(*t)),
            st.tuples(binary, children, children).map(lambda t: pltl.s_binop(t[0], t[1], t[2])),
        )

    return st.recursive(leaf, extend, max_leaves=6)


@given(_surface_strategy())
@settings(max_examples=150, deadline=None)
def test_pnf_idempotent(f):
    g = to_pnf(f)
    assert to_pnf(embed(g)) is g


@given(_surface_strategy())
@settings(max_examples=300, deadline=None)
def test_surface_formulas_round_trip_through_text(f):
    assert parse_formula(format_formula(f)) == f


@given(_surface_strategy().map(to_pnf))
@settings(max_examples=300, deadline=None)
def test_pnf_formulas_round_trip_through_text(g):
    assert to_pnf(parse_formula(format_formula(g))) is g


@given(_surface_strategy())
@settings(max_examples=150, deadline=None)
def test_negation_commutes_with_past_depth(f):
    assert past_depth(to_pnf(s_not(f))) == past_depth(to_pnf(f))


def test_pnf_preserves_semantics_on_lasso_words():
    rng = random.Random(7)
    for _ in range(300):
        f = random_surface_formula(rng, ["p", "q", "r"], size=rng.randint(1, 6))
        word = random_lasso_word(rng, ["p", "q", "r"], max_total=5)
        direct = _eval_surface(word, f, 0)
        assert eval_lasso(word, to_pnf(f), 0) == direct


def _eval_surface(word, top, position):
    """Reference evaluation of surface formulas straight from the quantifier
    semantics of each connective, memoised per (subformula, position)."""
    memo = {}
    horizon = len(word.prefix) + (_surface_depth(top) + 2 + _surface_size(top)) * word.period

    def ev(f, pos):
        key = (id(f), pos)
        if key in memo:
            return memo[key]
        k = f.kind
        if k == "atom":
            v = f.name in word.at(pos)
        elif k == "true":
            v = True
        elif k == "false":
            v = False
        elif k == "!":
            v = not ev(f.left, pos)
        elif k == "&":
            v = ev(f.left, pos) and ev(f.right, pos)
        elif k == "|":
            v = ev(f.left, pos) or ev(f.right, pos)
        elif k == "->":
            v = (not ev(f.left, pos)) or ev(f.right, pos)
        elif k == "<->":
            v = ev(f.left, pos) == ev(f.right, pos)
        elif k == "X":
            v = ev(f.left, pos + 1)
        elif k == "Y":
            v = pos > 0 and ev(f.left, pos - 1)
        elif k == "Z":
            v = pos == 0 or ev(f.left, pos - 1)
        elif k in ("F", "G", "U", "R"):
            v = k in ("G", "R")
            for j in range(pos, pos + horizon):
                if k == "F" and ev(f.left, j):
                    v = True
                    break
                if k == "G" and not ev(f.left, j):
                    v = False
                    break
                if k == "U":
                    if ev(f.right, j):
                        v = True
                        break
                    if not ev(f.left, j):
                        v = False
                        break
                if k == "R":
                    if not ev(f.right, j):
                        v = False
                        break
                    if ev(f.left, j):
                        v = True
                        break
        elif k in ("O", "H", "S", "T"):
            v = k in ("H", "T")
            for j in range(pos, -1, -1):
                if k == "O" and ev(f.left, j):
                    v = True
                    break
                if k == "H" and not ev(f.left, j):
                    v = False
                    break
                if k == "S":
                    if ev(f.right, j):
                        v = True
                        break
                    if not ev(f.left, j):
                        v = False
                        break
                if k == "T":
                    if not ev(f.right, j):
                        v = False
                        break
                    if ev(f.left, j):
                        v = True
                        break
        else:
            raise AssertionError(k)
        memo[key] = v
        return v

    return ev(top, position)


def _surface_depth(f):
    if f is None:
        return 0
    d = max(_surface_depth(f.left), _surface_depth(f.right))
    if f.kind in ("Y", "Z", "O", "H", "S", "T"):
        return d + 1
    return d


def _surface_size(f):
    if f is None:
        return 0
    return 1 + _surface_size(f.left) + _surface_size(f.right)
