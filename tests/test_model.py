import random

import numpy as np
import pytest

from pltlbmc.model import (
    BoolExpr,
    ModelError,
    TotalityError,
    band_all,
    bvar,
    compile_expr,
    eval_expr,
    eval_expr_np,
    explicit_expand,
    expr_to_text,
    input_vars_irrelevant_for_fairness,
    model_to_text,
    parse_expr,
    parse_model,
    reachable_states,
    successors,
)

from _fixtures import FIXTURES
from _grid import random_symbolic_model

COUNTER = (FIXTURES / "counter.mod").read_text()


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

    def test_parse_expr_precedence(self):
        e = parse_expr("a & b | c")
        assert e.kind == "|"
        assert e.args[0].kind == "&"
