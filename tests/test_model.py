import dataclasses
import gc
import itertools
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltlbmc.model import (
    BTRUE,
    BoolExpr,
    ModelError,
    TotalityError,
    _names,
    band,
    band_all,
    biff,
    bimp,
    bnext,
    bnot,
    bor,
    bvar,
    compile_expr,
    eval_expr,
    eval_expr_np,
    explicit_expand,
    expr_to_text,
    input_vars_irrelevant_for_fairness,
    model_to_text,
    nary_program,
    parse_expr,
    parse_model,
    reachable_states,
    successors,
    valuations,
)
from pltlbmc.encode import TimedVarMap, _expr_lit, unroll_model
from pltlbmc.sat import SAT, Solver

from _fixtures import FIXTURES
from _grid import minterm, random_symbolic_model

COUNTER = (FIXTURES / "counter.mod").read_text()

# Expressions over the state variables a, b, c and the next-state copies of
# a and b.
BOOL_EXPRS = st.recursive(
    st.one_of(
        st.sampled_from(["a", "b", "c"]).map(bvar),
        st.sampled_from(["a", "b"]).map(bnext),
        st.sampled_from([BoolExpr("true"), BoolExpr("false")]),
    ),
    lambda children: st.one_of(
        children.map(lambda a: BoolExpr("!", args=(a,))),
        st.tuples(st.sampled_from(["&", "|", "->", "<->"]), children, children).map(
            lambda t: BoolExpr(t[0], args=t[1:])
        ),
    ),
    max_leaves=8,
)


class TestParsing:
    def test_counter_fixture(self):
        m = parse_model(COUNTER)
        assert m.vars == ("b0", "b1", "b2")
        assert [n for n, _ in m.defines][:6] == ["x0", "x1", "x2", "x3", "x4", "x5"]
        assert m.spec_text == "!(F (x3 & O (x4 & O x5)))"

    def test_missing_trans_means_complete_graph(self):
        m = parse_model("VAR a b\nINIT true\n")
        em = explicit_expand(m)
        assert em.nstates == 4
        assert sum(len(s) for s in em.succ) == 16

    def test_cyclic_define_rejected(self):
        with pytest.raises(ModelError, match="cyclic"):
            parse_model("VAR a\nDEFINE d := d | a\nINIT true\n")

    def test_mutual_cyclic_define_rejected(self):
        with pytest.raises(ModelError, match="cyclic"):
            parse_model("VAR a\nDEFINE d := e\nDEFINE e := d\nINIT true\n")

    def test_next_outside_trans_rejected(self):
        with pytest.raises(ModelError, match="next"):
            parse_model("VAR a\nINIT next(a)\n")

    def test_undefined_name_rejected(self):
        with pytest.raises(ModelError, match="undefined"):
            parse_model("VAR a\nINIT b\n")

    def test_input_must_be_declared(self):
        with pytest.raises(ModelError):
            parse_model("VAR a\nINPUT b\nINIT true\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("VAR a 1x\nINIT a\n", "line 1: bad VAR name '1x'"),
            ("VAR a\nVAR b-c\n", "line 2: bad VAR name 'b-c'"),
            ("VAR a\nDEFINE d e := a\n", "line 2: bad DEFINE name 'd e'"),
            ("VAR a\n\nDEFINE n(a) := a\n", "line 3: bad DEFINE name 'n(a)'"),
            ("VAR a\nDEFINE := a\n", "line 2: bad DEFINE name ''"),
        ],
    )
    def test_a_declared_name_must_be_a_name_token(self, text, message):
        """Every declared name is one name token, so expressions, the l2s
        output and the tight automaton can all refer to it."""
        with pytest.raises(ModelError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_names_with_digits_underscores_and_equals_parse(self):
        m = parse_model("VAR _a a1 b=1\nDEFINE d_2 := a1 & b=1\nINIT _a | d_2\n")
        assert m.vars == ("_a", "a1", "b=1") and m.define_map["d_2"] is not None

    def test_duplicate_init_rejected(self):
        with pytest.raises(ModelError, match="duplicate INIT"):
            parse_model("VAR a\nINIT a\nINIT !a\n")

    @pytest.mark.parametrize(
        "text",
        [
            "VAR a\nVAR a\n",
            "VAR a\nDEFINE a := true\n",
            "DEFINE a := true\nVAR a\n",
        ],
        ids=["var-var", "var-define", "define-var"],
    )
    def test_a_name_is_declared_once(self, text):
        # a variable shadowed by a define made check and oracle disagree
        with pytest.raises(ModelError, match="duplicate name 'a'"):
            parse_model(text + "INIT !a\nTRANS !next(a)\n")

    def test_trans_lines_conjoin(self):
        m = parse_model("VAR a\nINIT !a\nTRANS next(a)\nTRANS next(a) <-> !a\n")
        em = explicit_expand(m, require_total=False)
        # next(a) must hold and also equal !a: only 0 -> 1 survives
        assert em.succ == ((1,), ())

    def test_comments_and_blank_lines(self):
        m = parse_model("# header\n\nVAR a  # trailing\nINIT a\n")
        assert m.vars == ("a",)

    def test_spec_returned_verbatim(self):
        m = parse_model("VAR a\nINIT a\nSPEC G a\n")
        assert m.spec_text == "G a"

    def test_an_unexpected_character_gives_its_column_in_the_line(self):
        with pytest.raises(ModelError, match=r"^line 2, column 8: unexpected character '@'$"):
            parse_model("VAR a\nINIT a @ a\n")

    def test_a_missing_operand_gives_its_column_in_the_line(self):
        with pytest.raises(ModelError, match=r"^line 2, column 15: expected an expression, got '&'$"):
            parse_model("VAR a\n  TRANS   a & & a\n")

    def test_an_unopened_parenthesis_gives_its_column_in_the_line(self):
        with pytest.raises(ModelError, match=r"^line 2, column 17: expected an expression, got '\)'$"):
            parse_model("VAR a\nDEFINE d := a | )\n")

    def test_the_end_of_line_is_the_column_after_the_expression(self):
        with pytest.raises(ModelError, match=r"^line 2, column 9: expected an expression, got 'end of line'$"):
            parse_model("VAR a\nINIT a &  # comment\n")


class TestExpansion:
    def test_counter_shape(self):
        em = explicit_expand(parse_model(COUNTER))
        assert em.nstates == 8
        reach = reachable_states(em)
        assert len(reach) == 6
        edges = {(s, t) for s in reach for t in em.succ[s]}
        assert edges == {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 2)}

    def test_totality_error_names_state(self):
        m = parse_model("VAR a\nINIT a\nTRANS false\n")
        with pytest.raises(TotalityError) as err:
            explicit_expand(m)
        assert "a=" in str(err.value)

    def test_partial_deadlock_detected(self):
        # only state a=1 has a successor
        m = parse_model("VAR a\nINIT a\nTRANS a & next(a)\n")
        with pytest.raises(TotalityError, match="a=0"):
            explicit_expand(m)

    def test_require_total_false_skips_the_check(self):
        m = parse_model("VAR a\nINIT a\nTRANS a & next(a)\n")
        em = explicit_expand(m, require_total=False)
        assert em.succ[0] == ()
        assert em.succ[1] == (1,)

    def test_two_var_complete_graph(self):
        m = parse_model("VAR a b\nINIT true\nTRANS true\n")
        em = explicit_expand(m)
        assert em.nstates == 4 and all(len(s) == 4 for s in em.succ)

    def test_labels_include_defines(self):
        em = explicit_expand(parse_model(COUNTER))
        assert "x0" in em.labels[0]
        assert "x4" in em.labels[4] and "b2" in em.labels[4]

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reverse"])
    def test_a_define_chain_labels_as_each_define_evaluated_alone(self, reverse):
        """Labels, initial states and fair sets read a 40-deep define chain
        as evaluating each define on its own does, whichever order the
        chain is declared in."""
        defines = ["DEFINE d0 := a & !c"] + [f"DEFINE d{i} := d{i - 1} <-> {'abc'[i % 3]}" for i in range(1, 40)]
        if reverse:
            defines.reverse()
        m = parse_model("\n".join(["VAR a b c", "INIT d39 | c", "TRANS true"] + defines + ["FAIRNESS d20"]) + "\n")
        em = explicit_expand(m)
        cur = valuations(m.vars, np.arange(em.nstates))

        def states(expr):
            return np.nonzero(np.broadcast_to(eval_expr_np(expr, cur, None, m.define_map), (em.nstates,)))[0].tolist()

        for name, expr in m.defines:
            assert [s for s in range(em.nstates) if name in em.labels[s]] == states(expr), name
        assert len({frozenset(states(expr)) for _, expr in m.defines}) > 2
        assert list(em.initial) == states(m.init)
        assert em.fair_sets == (frozenset(states(m.fairness[0])),)

    def test_fair_sets(self):
        m = parse_model("VAR a\nINIT true\nTRANS true\nFAIRNESS a\n")
        em = explicit_expand(m)
        assert em.fair_sets == (frozenset({1}),)

    def test_max_bits_guard(self):
        m = parse_model("VAR " + " ".join(f"v{i}" for i in range(8)) + "\nINIT true\n")
        with pytest.raises(ModelError, match="state bits"):
            explicit_expand(m, max_bits=6)

    def test_successors_of_any_states_in_any_order(self):
        """Twelve bits make four chunks of 1024 rows; each state's successor
        is the state with its bits shifted up by one."""
        names = [f"v{j}" for j in range(12)]
        trans = " & ".join(["!next(v0)"] + [f"(next(v{j + 1}) <-> v{j})" for j in range(11)])
        m = parse_model(f"VAR {' '.join(names)}\nINIT true\nTRANS {trans}\n")
        states = list(range(4096))
        random.Random(5).shuffle(states)
        states += states[:10]
        assert successors(m, states) == [((s << 1) & 4095,) for s in states]
        assert successors(m, []) == []

    def test_successors_report_the_first_dead_end_they_are_given(self):
        m = parse_model("VAR a b\nINIT true\nTRANS !a & !b\n")
        assert successors(m, [0]) == [(0, 1, 2, 3)]
        with pytest.raises(TotalityError, match="state a=0 b=1 has"):
            successors(m, [0, 2, 1])
        assert successors(m, [2, 0], require_total=False) == [(), (0, 1, 2, 3)]

    def test_against_slow_evaluator(self):
        """Edge relation equals pointwise evaluation of TRANS on all pairs,
        initial states and fair sets that of INIT and FAIRNESS."""
        rng = random.Random(11)
        for _ in range(12):
            m = random_symbolic_model(rng, bits=rng.randint(1, 3), fair_sets=1)
            em = explicit_expand(m)
            nvars = len(m.vars)
            for s in range(em.nstates):
                cur = {v: bool((s >> j) & 1) for j, v in enumerate(m.vars)}
                expected = set()
                for t in range(em.nstates):
                    nxt = {v: bool((t >> j) & 1) for j, v in enumerate(m.vars)}
                    if eval_expr(m.trans, cur, nxt, m.define_map):
                        expected.add(t)
                assert set(em.succ[s]) == expected
                assert (s in em.initial) == eval_expr(m.init, cur, None, m.define_map)
                assert [s in fs for fs in em.fair_sets] == [
                    eval_expr(e, cur, None, m.define_map) for e in m.fairness
                ]


class TestInputOptimisation:
    MODEL = (
        "VAR s i\nINPUT i\nINIT !s & !i\n"
        "TRANS next(s) <-> !s\n"
        "FAIRNESS s\n"
    )

    def test_unconstrained_input_is_reported(self):
        m = parse_model(self.MODEL)
        assert input_vars_irrelevant_for_fairness(m) == {"i"}

    def test_input_mentioned_by_fairness_is_kept(self):
        m = parse_model(self.MODEL + "FAIRNESS i\n")
        assert input_vars_irrelevant_for_fairness(m) == frozenset()

    def test_input_mentioned_via_define_is_kept(self):
        m = parse_model(
            "VAR s i\nINPUT i\nINIT !s\nTRANS next(s) <-> !s\n"
            "DEFINE good := s & i\nFAIRNESS good\n"
        )
        assert input_vars_irrelevant_for_fairness(m) == frozenset()

    def test_input_constrained_by_trans_is_kept(self):
        m = parse_model(
            "VAR s i\nINPUT i\nINIT !s\nTRANS (next(s) <-> !s) & (next(i) <-> i)\nFAIRNESS s\n"
        )
        assert input_vars_irrelevant_for_fairness(m) == frozenset()

    def test_counter_has_no_inputs(self):
        assert input_vars_irrelevant_for_fairness(parse_model(COUNTER)) == frozenset()

    def test_flip_property(self):
        """Flipping a reported input in any transition target stays a transition."""
        rng = random.Random(5)
        for _ in range(20):
            base = random_symbolic_model(rng, bits=2, fair_sets=1)
            m = parse_model(model_to_text(base) + "\nVAR free_in\nINPUT free_in\n")
            free = input_vars_irrelevant_for_fairness(m)
            assert free == {"free_in"}
            em = explicit_expand(m, require_total=False)
            j = m.vars.index("free_in")
            for s in range(em.nstates):
                for t in em.succ[s]:
                    assert (t ^ (1 << j)) in em.succ[s]


class TestEvaluation:
    def test_connectives_short_circuit_left_to_right(self):
        """The right operand is not evaluated when the left one decides:
        an unknown name there raises only when it is reached."""
        cur = {"t": True, "f": False}
        assert eval_expr(parse_expr("f & nope"), cur) is False
        assert eval_expr(parse_expr("t | nope"), cur) is True
        assert eval_expr(parse_expr("f -> nope"), cur) is True
        for text in ("t & nope", "f | nope", "t -> nope", "f <-> nope", "!nope"):
            with pytest.raises(ModelError, match="unknown name 'nope'"):
                eval_expr(parse_expr(text), cur)

    def test_values_are_those_of_the_operands(self):
        cur = {"a": 0, "b": 1}
        assert eval_expr(parse_expr("a & b"), cur) == 0
        assert eval_expr(parse_expr("b | a"), cur) == 1
        assert eval_expr(parse_expr("!a <-> b"), cur) is True

    def test_current_state_names_shadow_defines(self):
        defines = {"d": parse_expr("!a")}
        assert eval_expr(parse_expr("d & a"), {"a": True}, None, defines) is False
        assert eval_expr(parse_expr("d"), {"a": True, "d": True}, None, defines) is True

    def test_next_needs_a_next_state(self):
        e = parse_expr("next(a) | a", allow_next=True)
        assert eval_expr(e, {"a": False}, {"a": True}) is True
        with pytest.raises(ModelError, match="without a next state"):
            eval_expr(e, {"a": False})

    def test_deep_chains_evaluate_without_recursion(self):
        chain = band_all([bvar("a")] * 5000)
        assert eval_expr(chain, {"a": True}) is True
        assert eval_expr(chain, {"a": False}) is False

    def test_vectorised_evaluation_of_deep_chains(self):
        chain = band_all([parse_expr("a | !next(b)", allow_next=True)] * 5000)
        a = np.array([False, False, True, True])
        b = np.array([False, True, False, True])
        assert eval_expr_np(chain, {"a": a}, {"b": b}).tolist() == [True, False, True, True]

    def test_vectorised_evaluation_matches_pointwise_evaluation(self):
        defines = {"d": parse_expr("a <-> !b"), "e": parse_expr("d -> c | false")}
        text = "(e & !d | next(a) <-> true) -> d & (next(c) | e)"
        expr = parse_expr(text, allow_next=True)
        idx = np.arange(64)
        cur = {v: ((idx >> j) & 1).astype(bool) for j, v in enumerate("abc")}
        nxt = {v: ((idx >> (j + 3)) & 1).astype(bool) for j, v in enumerate("abc")}
        got = eval_expr_np(expr, cur, nxt, defines).tolist()
        for s in range(64):
            c = {v: bool(cur[v][s]) for v in "abc"}
            n = {v: bool(nxt[v][s]) for v in "abc"}
            assert got[s] == eval_expr(expr, c, n, defines)


class TestGatePrograms:
    def test_equal_subexpressions_share_a_slot(self):
        e = parse_expr("(a & !b) | (a & !b) -> next(c) <-> (a & !b)", allow_next=True)
        assert compile_expr(e, {}) == (
            ("var", "a", None),
            ("var", "b", None),
            ("!", 1, None),
            ("&", 0, 2),
            ("|", 3, 3),
            ("next", "c", None),
            ("->", 4, 5),
            ("<->", 6, 3),
        )

    def test_defines_are_inlined_once(self):
        defines = {"d": parse_expr("a | b"), "e": parse_expr("d & true")}
        assert compile_expr(parse_expr("e <-> !d"), defines) == (
            ("var", "a", None),
            ("var", "b", None),
            ("|", 0, 1),
            ("true", None, None),
            ("&", 2, 3),
            ("!", 2, None),
            ("<->", 4, 5),
        )

    def test_minterm_models_compile_to_fewer_steps_than_nodes(self):
        m = random_symbolic_model(random.Random(4), bits=4)
        nodes, stack = 0, [m.trans]
        while stack:
            e = stack.pop()
            nodes += 1
            stack.extend(e.args)
        assert len(m.trans_program) < nodes / 4

    def test_deep_chains_compile_without_recursion(self):
        prog = compile_expr(band_all([parse_expr("a -> b")] * 3000), {})
        assert len(prog) == 3 + 2999 and prog[-1] == ("&", 3000, 2)

    def test_programs_are_compiled_at_first_use_and_kept_on_the_model(self):
        m = parse_model("VAR a b\nDEFINE d := a & b\nINIT d\nTRANS next(a) <-> !d\nFAIRNESS !d\n")
        assert not {"init_program", "trans_program", "fairness_programs"} & set(vars(m))
        assert m.trans_program is m.trans_program
        assert m.define_program("d") is m.define_program("d")
        assert m.fairness_programs == (
            (("var", "a", None), ("var", "b", None), ("&", 0, 1), ("!", 2, None)),
        )

    @given(BOOL_EXPRS)
    @settings(max_examples=150, deadline=None)
    def test_the_lowered_root_is_the_value_of_the_expression(self, e):
        vm = TimedVarMap(Solver())
        bits = {(i, n): vm.state_bit(i, n) for i, names in ((0, "abc"), (1, "ab")) for n in names}
        root = _expr_lit(vm, nary_program(compile_expr(e, {})), 0, 1)
        for values in itertools.product((False, True), repeat=len(bits)):
            point = dict(zip(bits, values))
            assumptions = [lit if point[key] else -lit for key, lit in bits.items()]
            assert vm.solver.solve(assumptions) == SAT
            cur = {n: point[0, n] for n in "abc"}
            nxt = {n: point[1, n] for n in "ab"}
            assert vm.solver.model_value(root) == eval_expr(e, cur, nxt)

    @given(BOOL_EXPRS)
    @settings(max_examples=300, deadline=None)
    def test_the_nary_program_is_no_larger_than_the_binary_one(self, e):
        def inputs(prog):
            return sum(
                len(x) if isinstance(x, tuple) else 1 + (y is not None)
                for k, x, y in prog
                if k in ("!", "&", "|", "->", "<->")
            )

        binary = compile_expr(e, {})
        nary = nary_program(binary)
        assert len(nary) <= len(binary) and inputs(nary) <= inputs(binary)

    def test_chains_fold_into_one_step(self):
        e = parse_expr("a & b & c | (a -> next(b) | c | a) | !c", allow_next=True)
        assert nary_program(compile_expr(e, {})) == (
            ("var", "a", None),
            ("var", "b", None),
            ("var", "c", None),
            ("&", (0, 1, 2), None),
            ("next", "b", None),
            ("!", 0, None),
            ("|", (5, 4, 2, 0), None),
            ("!", 2, None),
            ("|", (3, 6, 7), None),
        )

    def test_a_3000_term_disjunction_lowers_to_one_gate(self):
        names = [f"v{n}" for n in range(1500)]
        terms = [t for n in names for t in (n, f"next({n})")]
        m = parse_model(f"VAR {' '.join(names)}\nINIT true\nTRANS {' | '.join(terms)}\n")
        assert len(m.trans_program) == 3001
        vm = TimedVarMap(Solver())
        unroll_model(m, 1, vm)
        assert len(vm.cache) == 1

    def test_a_subterm_used_twice_stays_one_gate(self):
        m = parse_model("VAR a b c d\nINIT true\nTRANS (a & b) & c & ((a & b) | d)\n")
        assert [k for k, _, _ in m.trans_program if k in ("&", "|")] == ["&", "|", "&"]
        vm = TimedVarMap(Solver())
        unroll_model(m, 1, vm)
        a, b = vm.state_bit(0, "a"), vm.state_bit(0, "b")
        # a & b, (a & b) | d, and one gate over a & b, c and the disjunction
        assert len(vm.cache) == 3 and ("and", (a, b)) in vm.cache
        assert sorted(len(ins) for _, ins in vm.cache) == [2, 2, 3]

    def test_unknown_kinds_are_rejected(self):
        with pytest.raises(ModelError, match="unknown expression kind 'xor'"):
            compile_expr(BoolExpr("xor", args=(bvar("a"), bvar("b"))), {})


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_symbolic_model(rng, bits=2, fair_sets=1)
            m2 = parse_model(model_to_text(m))
            e1 = explicit_expand(m)
            e2 = explicit_expand(m2)
            assert e1.succ == e2.succ and e1.initial == e2.initial
            assert e1.fair_sets == e2.fair_sets

    def test_deep_chains_print_without_recursion(self):
        chain = band_all([parse_expr("a -> b | c")] * 3000)
        text = expr_to_text(chain)
        assert text == " & ".join(["(a -> b | c)"] * 3000)
        assert expr_to_text(parse_expr(text)) == text

    def test_parentheses_follow_precedence_and_associativity(self):
        texts = (
            "a & (b | c) -> !(d <-> e)",
            "(a -> b) -> c",
            "a -> b -> c",
            "a & b & c",
            "a & (b & c)",
            "(a <-> b) <-> c",
            "!!a | (a | b)",
            "next(a) | true & !false",
        )
        for text in texts:
            assert expr_to_text(parse_expr(text, allow_next=True)) == text

    @given(BOOL_EXPRS)
    @settings(max_examples=300, deadline=None)
    def test_expressions_round_trip_through_text(self, e):
        assert parse_expr(expr_to_text(e), allow_next=True) == e

    def test_deep_nesting_parses_and_prints(self):
        assert parse_expr("(" * 1500 + "a" + ")" * 1500) == bvar("a")
        e = parse_expr("!" * 1500 + "next(a)", allow_next=True)
        for _ in range(1500):
            assert e.kind == "!"
            e = e.args[0]
        assert e == bnext("a")
        text = " -> ".join(["a"] * 1500)
        e = parse_expr(text)
        assert expr_to_text(e) == text
        for _ in range(1499):
            assert e.kind == "->" and e.args[0] == bvar("a")
            e = e.args[1]
        assert e == bvar("a")

    def test_deep_expressions_compare_hash_and_print(self):
        text = " -> ".join(["a"] * 1500)
        e, same = parse_expr(text), parse_expr(text)
        assert e == same and hash(e) == hash(same)
        assert e != parse_expr(text + " -> b") and e != parse_expr(text.replace("->", "<->"))
        leaf = "BoolExpr(kind='var', name='a', args=())"
        node = f"BoolExpr(kind='->', name=None, args=({leaf}, "
        assert repr(e) == node * 1499 + leaf + "))" * 1499

    def test_equality_hash_and_repr_are_structural(self):
        a, b = bvar("a"), bvar("b")
        assert bnot(band(a, b)) != band(bnot(a), b)
        assert band(a, b) != band(b, a) and band(a, b) == band(bvar("a"), b)
        assert hash(band(a, bnext("b"))) == hash(band(bvar("a"), bnext("b")))
        assert band(a, b) != BTRUE and band(a, b) != ("&", None, (a, b))
        assert repr(bnot(a)) == "BoolExpr(kind='!', name=None, args=(BoolExpr(kind='var', name='a', args=()),))"

    def test_parse_expr_precedence(self):
        e = parse_expr("a & b | c")
        assert e.kind == "|"
        assert e.args[0].kind == "&"


def distinct_nodes(*roots):
    """The distinct nodes under ``roots``, by id."""
    seen, stack = {}, list(roots)
    while stack:
        e = stack.pop()
        if id(e) not in seen:
            seen[id(e)] = e
            stack.extend(e.args)
    return seen


def model_nodes(m):
    return distinct_nodes(m.init, m.trans, *m.fairness, *(e for _, e in m.defines))


def unshared(e):
    """A copy of ``e`` in which no node has two parents."""
    return BoolExpr(e.kind, e.name, tuple(map(unshared, e.args)))


SHARED = """VAR a b c
DEFINE d := a & !b
DEFINE e := d | (a & !b) | c
INIT !a & !b | d
TRANS d -> next(a) & !next(b)
TRANS (a & !b) -> (next(c) <-> c)
TRANS !d -> (next(a) <-> (a & !b))
FAIRNESS e & (a & !b)
FAIRNESS !d
"""


def minterm_text(rng, bits=3):
    """A model in the style of the benchmark's: minterm TRANS lines that
    repeat each minterm many times."""
    lines = ["VAR " + " ".join(f"v{j}" for j in range(bits)), f"INIT {minterm(bits, 0)}"]
    for s in range(1 << bits):
        succ = rng.sample(range(1 << bits), 2)
        succ_text = " | ".join(f"({minterm(bits, t, True)})" for t in succ)
        lines.append(f"TRANS ({minterm(bits, s)}) -> {succ_text}")
    lines.append(f"DEFINE f := ({minterm(bits, 1)}) | ({minterm(bits, 2)})")
    lines.append(f"FAIRNESS f | ({minterm(bits, 3)})")
    return "\n".join(lines) + "\n"


def parsed_line_by_line(text):
    """The model of ``text`` with each expression parsed by a ``parse_expr``
    call of its own, and the TRANS lines conjoined by ``band_all``."""
    m = parse_model(text)
    exprs = {"INIT": [], "TRANS": [], "FAIRNESS": [], "DEFINE": []}
    for line in text.splitlines():
        head, rest = line.split(None, 1)
        if head == "DEFINE":
            name, body = rest.split(":=")
            exprs[head].append((name.strip(), parse_expr(body)))
        elif head in exprs:
            exprs[head].append(parse_expr(rest, allow_next=head == "TRANS"))
    return m, dataclasses.replace(
        m,
        init=exprs["INIT"][0],
        trans=band_all(exprs["TRANS"]),
        defines=tuple(exprs["DEFINE"]),
        fairness=tuple(exprs["FAIRNESS"]),
    )


class TestHashConsing:
    def test_equal_subterms_of_one_model_are_one_node(self):
        m = parse_model(SHARED)
        body = m.define_map["d"]
        first, second, third = m.trans.args[0].args[0], m.trans.args[0].args[1], m.trans.args[1]
        # a & !b: the body of d, a subterm of two TRANS lines, a FAIRNESS line and the body of e
        assert second.args[0] is body and third.args[1].args[1] is body
        assert m.fairness[0].args[1] is body and m.define_map["e"].args[0].args[1] is body
        assert m.init.args[0].args[1] is body.args[1]  # !b
        # one leaf per name, and the define names d are one node
        leaves = [n for n in model_nodes(m).values() if not n.args]
        assert sorted(n.kind + (n.name or "") for n in leaves) == sorted(
            ["vara", "varb", "varc", "vard", "vare", "nexta", "nextb", "nextc"]
        )
        assert first.args[0] is third.args[0].args[0] and first.args[0] is m.fairness[1].args[0]

    def test_the_conjunction_of_the_trans_lines_shares_with_the_lines(self):
        m = parse_model("VAR a\nTRANS a | next(a)\nTRANS a | next(a)\nTRANS (a | next(a)) & (a | next(a))\n")
        left, right = m.trans.args
        assert left is right and left.args[0] is left.args[1]
        init = parse_model("VAR a\nINIT true & !true\n").init
        assert init.args[0] is init.args[1].args[0]

    def test_parse_expr_shares_within_its_call_only(self):
        e, f = parse_expr("(a -> b) & !(a -> b)"), parse_expr("(a -> b) & !(a -> b)")
        assert e.args[0] is e.args[1].args[0]
        assert e == f and not set(distinct_nodes(e)) & set(distinct_nodes(f))

    def test_two_models_share_no_node_and_a_dropped_model_is_freed(self):
        m, same = parse_model(SHARED), parse_model(SHARED)
        assert model_to_text(m) == model_to_text(same)
        assert not set(model_nodes(m)) & set(model_nodes(same))
        ref = weakref.ref(m.define_map["d"])
        assert m.trans_program
        del m
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_nodes_lower_and_print_as_lines_parsed_one_by_one(self, seed):
        text = SHARED if seed == 0 else minterm_text(random.Random(seed))
        m, lines = parsed_line_by_line(text)
        assert len(model_nodes(m)) < len(model_nodes(lines))
        assert m.init_program == lines.init_program and m.trans_program == lines.trans_program
        assert m.fairness_programs == lines.fairness_programs
        assert all(m.define_program(n) == lines.define_program(n) for n, _ in m.defines)
        assert model_to_text(m) == model_to_text(lines)


def random_dag(rng, size=40):
    """``size`` nodes over a, b, c, next(a), next(b) and the define names
    d0 and d1, each operator reading earlier nodes at random, so that nodes
    are shared at several depths; with the defines, bodies from the DAG."""
    nodes = [bvar("a"), bvar("b"), bvar("c"), bnext("a"), bnext("b"), BTRUE]
    defines = {}
    for n in range(size):
        if n in (size // 3, size // 2):
            name = f"d{len(defines)}"
            defines[name] = rng.choice(nodes[6:])
            nodes.append(bvar(name))
            continue
        k = rng.choice(["!", "&", "|", "->", "<->"])
        pick = lambda: nodes[-1 - min(int(rng.expovariate(0.3)), len(nodes) - 1)]
        nodes.append(BoolExpr(k, args=(pick(),) if k == "!" else (pick(), pick())))
    return nodes[6:], defines


class TestEvaluationOnDags:
    def test_a_shared_node_at_several_depths_and_a_define_read_twice(self):
        s = band(bvar("a"), bnot(bnext("b")))
        defines = {"d": bor(s, bvar("c"))}
        d = bvar("d")
        e = bor(biff(bimp(s, d), band(d, bor(s, bnot(s)))), band(bnext("a"), d))
        self._agree(e, defines)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_dags_evaluate_alike(self, seed):
        nodes, defines = random_dag(random.Random(seed))
        self._agree(nodes[-1], defines)

    def test_a_deep_dag_evaluates_in_linear_time(self):
        e = bvar("a")
        for _ in range(60):
            e = biff(e, bor(bvar("b"), e))
        self._agree(e, {})

    @staticmethod
    def _agree(e, defines):
        idx = np.arange(32)
        cur = {v: ((idx >> j) & 1).astype(bool) for j, v in enumerate("abc")}
        nxt = {v: ((idx >> (j + 3)) & 1).astype(bool) for j, v in enumerate("ab")}
        got = np.broadcast_to(eval_expr_np(e, cur, nxt, defines), (32,)).tolist()
        for s in range(32):
            c = {v: bool(cur[v][s]) for v in "abc"}
            n = {v: bool(nxt[v][s]) for v in "ab"}
            assert got[s] == eval_expr(e, c, n, defines)

    @pytest.mark.parametrize("seed", range(10))
    def test_names_of_a_dag_are_those_of_the_equal_tree(self, seed):
        e = band_all(random_dag(random.Random(seed), size=16)[0])
        tree = unshared(e)
        assert tree == e and len(distinct_nodes(tree)) > len(distinct_nodes(e))
        assert _names(e) == _names(tree)
