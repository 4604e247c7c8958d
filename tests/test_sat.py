import copy
import itertools
import os
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pltlbmc.sat import (
    INTERRUPTED,
    SAT,
    UNSAT,
    CircuitBuilder,
    Solver,
    export_dimacs,
    run_external_solver,
)

from _grid import random_cnf

EXTERNAL = (sys.executable, os.path.join(os.path.dirname(__file__), "external_dpll.py"))


def brute_force_sat(nvars, clauses):
    """Vectorised exhaustive check over all assignments."""
    n = 1 << nvars
    idx = np.arange(n, dtype=np.int64)
    ok = np.ones(n, dtype=bool)
    for clause in clauses:
        mask = np.zeros(n, dtype=bool)
        for lit in clause:
            bit = ((idx >> (abs(lit) - 1)) & 1).astype(bool)
            mask |= bit if lit > 0 else ~bit
        ok &= mask
        if not ok.any():
            return False
    return bool(ok.any())


def check_model(solver, clauses):
    for clause in clauses:
        assert any(solver.model_value(l) for l in clause)


def pigeonhole(pigeons, holes):
    """A solver holding the unsatisfiable pigeonhole clauses."""
    s = Solver()
    p = {(i, j): s.new_var() for i in range(pigeons) for j in range(holes)}
    for i in range(pigeons):
        s.add_clause([p[i, j] for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                s.add_clause([-p[i1, j], -p[i2, j]])
    return s


class TestSolverBasics:
    def test_empty_db_is_sat(self):
        assert Solver().solve() == SAT

    def test_unit_conflict(self):
        s = Solver()
        x = s.new_var()
        s.add_clause([x])
        s.add_clause([-x])
        assert s.solve() == UNSAT

    def test_assumption_against_unit(self):
        s = Solver()
        x = s.new_var()
        s.add_clause([-x])
        assert s.solve([x]) == UNSAT
        assert s.solve([-x]) == SAT
        assert s.solve() == SAT  # assumptions do not persist

    def test_tautology_from_a_generator_is_recorded_whole(self):
        s = Solver()
        a = s.new_var()
        s.add_clause(x for x in [a, -a])
        assert s.db == [[a, -a]]

    def test_model_covers_all_variables(self):
        s = Solver()
        vs = [s.new_var() for _ in range(10)]
        s.add_clause([vs[0], vs[1]])
        assert s.solve() == SAT
        assert len(s.model) == s.nvars + 1

    def test_pigeonhole_4_into_3(self):
        s = Solver()
        holes = 3
        p = {(i, j): s.new_var() for i in range(4) for j in range(holes)}
        for i in range(4):
            s.add_clause([p[i, j] for j in range(holes)])
        for j in range(holes):
            for i1 in range(4):
                for i2 in range(i1 + 1, 4):
                    s.add_clause([-p[i1, j], -p[i2, j]])
        assert s.solve() == UNSAT

    def test_conflict_budget_interrupts(self):
        s = pigeonhole(7, 6)
        assert s.solve(conflict_budget=3) == INTERRUPTED
        assert s.solve() == UNSAT  # a later unbounded call still finishes

    def test_stats_count_the_search_over_every_call(self):
        s = pigeonhole(7, 6)
        assert s.solve(conflict_budget=3) == INTERRUPTED
        first = s.stats()
        assert first["conflicts"] == 4  # the budget's three, then the one past it
        assert first["decisions"] >= 3 and first["propagations"] > 0
        assert first["restarts"] == 0  # the first restart comes at 100 conflicts
        assert s.solve() == UNSAT
        total = s.stats()
        assert total["conflicts"] > 100 and total["restarts"] >= 1
        assert all(total[key] >= first[key] for key in first)
        assert (total["vars"], total["clauses"]) == (42, 133)

    def test_adding_clauses_never_unsats_a_sat_answer_backwards(self):
        """Once UNSAT under fixed assumptions, adding clauses keeps it UNSAT."""
        rng = random.Random(17)
        for _ in range(30):
            nv = rng.randint(3, 8)
            s = Solver()
            for _ in range(nv):
                s.new_var()
            assumption = [rng.choice([1, -1]) * rng.randint(1, nv)]
            unsat_seen = False
            clauses = []
            for _ in range(nv * 6):
                c = random_cnf(rng, nv, 1)[0]
                clauses.append(c)
                s.add_clause(c)
                res = s.solve(assumption)
                if res == UNSAT:
                    unsat_seen = True
                if unsat_seen:
                    assert res == UNSAT


class TestAddClause:
    """What ``add_clause`` records: the database entry, the watched copy,
    and the units it enqueues at level 0."""

    def setup_method(self):
        self.s = Solver()
        self.a, self.b, self.c, self.x = (self.s.new_var() for _ in range(4))

    def test_duplicates_fold_in_first_occurrence_order(self):
        s, a, b, c = self.s, self.a, self.b, self.c
        s.add_clause([b, -a, b, c, -a, c])
        assert s.db == [[b, -a, c]]
        assert s._clauses == [[b, -a, c]]
        assert s.watches[b] == [[b, -a, c]] and s.watches[-a] == [[b, -a, c]]
        assert s.watches[c] == []

    def test_database_entry_is_a_copy_of_the_watched_clause(self):
        s, a, b, c = self.s, self.a, self.b, self.c
        s.add_clause([a, b, c])
        assert s.db[0] == s._clauses[0] and s.db[0] is not s._clauses[0]

    def test_a_two_literal_clause_goes_to_the_binary_lists(self):
        s, a, b = self.s, self.a, self.b
        s.add_clause([a, -b])
        clause = s._clauses[0]
        assert s.db == [[a, -b]] and clause == [a, -b] and s.db[0] is not clause
        assert s.bins[a] == [(-b, clause)] and s.bins[-b] == [(a, clause)]
        assert all(ws == [] for ws in s.watches.values())
        assert all(bs == [] for lit, bs in s.bins.items() if lit not in (a, -b))

    def test_a_clause_with_a_false_literal_is_stored_whole(self):
        s, a, b, c, x = self.s, self.a, self.b, self.c, self.x
        s.add_clause([-x])
        s.add_clause([a, x, b, c])
        assert s.db == [[-x], [a, x, b, c]]
        assert s._clauses == [[a, b, c]]
        assert s.watches[a] == [[a, b, c]] and s.watches[b] == [[a, b, c]]
        # without its false literal a three-literal clause is binary
        s.add_clause([a, x, b])
        assert s._clauses[1] == [a, b] and s.bins[a] == [(b, s._clauses[1])]

    def test_a_clause_satisfied_at_level_0_is_stored_and_not_watched(self):
        s, a, b, x = self.s, self.a, self.b, self.x
        s.add_clause([x])
        s.add_clause([a, b, x])
        assert s.db == [[x], [a, b, x]]
        assert s._clauses == []
        assert all(ws == [] for ws in s.watches.values())
        assert all(bs == [] for bs in s.bins.values())

    def test_a_tautology_is_stored_and_not_watched(self):
        s, a, b = self.s, self.a, self.b
        s.add_clause([a, b, a, -a])
        assert s.db == [[a, b, -a]]
        assert s._clauses == []
        assert all(bs == [] for bs in s.bins.values())

    def test_units_enqueue_in_order(self):
        s, a, b, x = self.s, self.a, self.b, self.x
        s.add_clause([-x])
        s.add_clause([x, b])  # unit once x is false
        s.add_clause([a, a])
        assert s.trail == [-x, b, a]
        assert s._clauses == []

    def test_a_clause_with_only_false_literals_makes_the_solver_unsat(self):
        s, a, b = self.s, self.a, self.b
        s.add_clause([-a])
        s.add_clause([-b])
        s.add_clause([a, b, a])
        assert s.db == [[-a], [-b], [a, b]]
        assert not s.ok and s.solve() == UNSAT
        s.add_clause([b, -a])
        assert s.db[-1] == [b, -a] and s._clauses == []

    def test_solve_agrees_with_brute_force_over_the_database(self):
        """Random clauses with duplicates, tautologies and units: the
        database is the deduplicated input and solve() answers it."""
        rng = random.Random(5)
        for _ in range(60):
            nv = rng.randint(2, 7)
            s = Solver()
            for _ in range(nv):
                s.new_var()
            clauses = []
            for _ in range(rng.randint(1, 4 * nv)):
                width = rng.choice([1, 1, 2, 3, 5])
                clauses.append([rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(width)])
            for c in clauses:
                s.add_clause(c)
            assert s.db == [list(dict.fromkeys(c)) for c in clauses]
            res = s.solve()
            assert res == (SAT if brute_force_sat(nv, clauses) else UNSAT)
            if res == SAT:
                assert all(any(s.model_value(l) for l in c) for c in clauses)


class TestSolverAgainstBruteForce:
    def test_random_cnfs(self):
        rng = random.Random(23)
        for round_ in range(250):
            nv = rng.randint(1, 12)
            nc = rng.randint(1, int(nv * 4.5) + 1)
            clauses = random_cnf(rng, nv, nc)
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            res = s.solve()
            expected = brute_force_sat(nv, clauses)
            assert (res == SAT) == expected, f"round {round_}"
            if res == SAT:
                check_model(s, clauses)

    def test_incremental_assumption_sweep(self):
        rng = random.Random(29)
        for _ in range(40):
            nv = rng.randint(2, 9)
            clauses = random_cnf(rng, nv, rng.randint(1, nv * 3))
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            for v in range(1, nv + 1):
                for sign in (1, -1):
                    res = s.solve([sign * v])
                    expected = brute_force_sat(nv, clauses + [[sign * v]])
                    assert (res == SAT) == expected


@given(st.integers(min_value=1, max_value=6), st.data())
@settings(max_examples=120, deadline=None)
def test_solver_matches_enumeration_hypothesis(nv, data):
    nc = data.draw(st.integers(min_value=0, max_value=nv * 4))
    clauses = [
        data.draw(
            st.lists(
                st.integers(min_value=1, max_value=nv).flatmap(
                    lambda v: st.sampled_from([v, -v])
                ),
                min_size=1,
                max_size=3,
            )
        )
        for _ in range(nc)
    ]
    s = Solver()
    for _ in range(nv):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    assert (s.solve() == SAT) == brute_force_sat(nv, clauses)


class TestCircuits:
    def test_and_with_true_folds(self):
        s = Solver()
        b = CircuitBuilder(s)
        x = b.var()
        assert b.and_(x, b.TRUE) == x
        assert b.and_(x, b.FALSE) == b.FALSE
        assert b.or_(x, b.TRUE) == b.TRUE

    def test_iff_folds(self):
        s = Solver()
        b = CircuitBuilder(s)
        x = b.var()
        assert b.iff(x, x) == b.TRUE
        assert b.iff(x, -x) == b.FALSE
        assert b.iff(x, b.TRUE) == x

    def test_structural_hashing(self):
        s = Solver()
        b = CircuitBuilder(s)
        x, y = b.var(), b.var()
        assert b.and_(x, y) == b.and_(y, x)
        assert b.or_(x, y) == b.or_(y, x)

    def test_ite_truth_table(self):
        for bits in itertools.product([False, True], repeat=3):
            s = Solver()
            b = CircuitBuilder(s)
            c, x, y = b.var(), b.var(), b.var()
            g = b.ite(c, x, y)
            for var, val in zip((c, x, y), bits):
                s.add_clause([var if val else -var])
            assert s.solve() == SAT
            expected = bits[1] if bits[0] else bits[2]
            assert s.model_value(g) == expected

    def test_xor_gate(self):
        s = Solver()
        b = CircuitBuilder(s)
        x, y = b.var(), b.var()
        g = b.xor(x, y)
        s.add_clause([x])
        s.add_clause([-y])
        assert s.solve() == SAT and s.model_value(g)


def random_circuit(rng, b, inputs, depth):
    if depth == 0 or rng.random() < 0.3:
        lit = rng.choice(inputs)
        return lit if rng.random() < 0.5 else -lit
    op = rng.randrange(4)
    a = random_circuit(rng, b, inputs, depth - 1)
    c = random_circuit(rng, b, inputs, depth - 1)
    if op == 0:
        return b.and_(a, c)
    if op == 1:
        return b.or_(a, c)
    if op == 2:
        return b.iff(a, c)
    return b.ite(a, c, random_circuit(rng, b, inputs, depth - 1))


def eval_circuit_lit(b, lit, values):
    """Evaluate ``lit`` from the builder's gate table, independently of the CNF."""
    defs = {g: key for key, g in b.cache.items()}

    def ev(lit):
        var = abs(lit)
        if var in defs:
            kind, ins = defs[var]
            if kind == "and":
                v = all(ev(x) for x in ins)
            elif kind == "iff":
                v = ev(ins[0]) == ev(ins[1])
            else:
                c, x, y = ins
                v = ev(x) if ev(c) else ev(y)
        elif var == b.TRUE:
            v = True
        else:
            v = values[var]
        return v if lit > 0 else not v

    return ev(lit)


class TestTseitin:
    # Every gate is defined in the solver as soon as it exists, so asserting
    # the root and assuming it must give the same answers.
    @pytest.mark.parametrize("assumed", [False, True])
    def test_equisatisfiable_and_model_projective(self, assumed):
        rng = random.Random(31)
        for _ in range(60):
            s = Solver()
            b = CircuitBuilder(s)
            inputs = [b.var() for _ in range(4)]
            root = random_circuit(rng, b, inputs, 3)
            if assumed:
                res = s.solve([root])
            else:
                s.add_clause([root])
                res = s.solve()
            # compare against direct evaluation over all input assignments
            expected = False
            for bits in itertools.product([False, True], repeat=4):
                values = dict(zip(inputs, bits))
                if eval_circuit_lit(b, root, values):
                    expected = True
                    break
            assert (res == SAT) == expected
            if res == SAT:
                values = {v: s.model_value(v) for v in inputs}
                assert eval_circuit_lit(b, root, values)


class TestDimacs:
    def test_empty_db(self, tmp_path):
        s = Solver()
        path = tmp_path / "empty.cnf"
        export_dimacs(s, path)
        assert path.read_text() == "p cnf 0 0\n"

    def test_single_clause_format(self, tmp_path):
        s = Solver()
        s.new_var()
        s.new_var()
        s.add_clause([1, -2])
        path = tmp_path / "one.cnf"
        export_dimacs(s, path)
        assert path.read_text() == "p cnf 2 1\n1 -2 0\n"

    def test_round_trip_against_external_solver(self, tmp_path):
        rng = random.Random(37)
        for i in range(100):
            nv = rng.randint(1, 10)
            clauses = random_cnf(rng, nv, rng.randint(1, nv * 4))
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            mine = s.solve()
            path = tmp_path / f"rt{i}.cnf"
            export_dimacs(s, path)
            theirs, values = run_external_solver(EXTERNAL, path)
            assert mine == theirs
            if theirs == SAT:
                for clause in clauses:
                    assert any(values.get(abs(l), False) == (l > 0) for l in clause)


def random_clause(rng, nvars):
    """A clause of up to four literals, mostly two; it may repeat a literal
    or hold one with its complement."""
    width = rng.choice([1, 2, 2, 2, 3, 4])
    return [rng.choice([1, -1]) * rng.randint(1, nvars) for _ in range(width)]


def definition_clauses(rng, g, nvars):
    """Clauses around the fresh variable g as a gate's Tseitin definition
    has them: each holds g or -g and distinct inputs, none complemented."""
    inputs = rng.sample(range(1, g), min(g - 1, rng.randint(1, 3)))
    clauses = []
    for _ in range(rng.randint(2, 4)):
        picked = rng.sample(inputs, rng.randint(1, len(inputs)))
        clauses.append([rng.choice([g, -g])] + [rng.choice([x, -x]) for x in picked])
    return clauses


def check_heap(s):
    """The heap is in binary-heap order, every variable has one live heap
    entry (its current activity as the key) exactly when it is marked in
    the heap, and every unassigned variable is marked."""
    heap = s._heap
    assert all(heap[(n - 1) // 2] <= heap[n] for n in range(1, len(heap)))
    live = {}
    for key, var in s._heap:
        if -key == s.activity[var]:
            live[var] = live.get(var, 0) + 1
    for var in range(1, s.nvars + 1):
        assert live.get(var, 0) == (1 if s._in_heap[var] else 0), var
        if s.value(var) == 0:
            assert s._in_heap[var], var


def checked_backtracks(s):
    """Check the heap after every backtrack of s; returns the levels."""
    levels = []
    backtrack = s._backtrack

    def checked(level):
        backtrack(level)
        check_heap(s)
        levels.append(level)

    s._backtrack = checked
    return levels


class TestIncrementalSessions:
    """Seeded random sessions that interleave new variables, clauses,
    trusted gate definitions and solves under assumptions and small
    conflict budgets; every answer is checked against brute force over the
    database."""

    def test_random_sessions_against_brute_force(self):
        rng = random.Random(43)
        answers = {SAT: 0, UNSAT: 0, INTERRUPTED: 0}
        for _ in range(60):
            s, ref = Solver(), Solver()  # ref gets every clause by add_clause
            for _ in range(rng.randint(2, 5)):
                s.new_var()
                ref.new_var()
            for _ in range(rng.randint(10, 40)):
                op = rng.random()
                if op < 0.1 and s.nvars < 12:
                    s.new_var()
                    ref.new_var()
                elif op < 0.5:
                    clause = random_clause(rng, s.nvars)
                    s.add_clause(clause)
                    ref.add_clause(clause)
                elif op < 0.65 and s.nvars < 12:
                    g = s.new_var()
                    ref.new_var()
                    clauses = definition_clauses(rng, g, s.nvars)
                    s.add_definition([list(c) for c in clauses])
                    for c in clauses:
                        ref.add_clause(c)
                else:
                    assumptions = [
                        rng.choice([1, -1]) * rng.randint(1, s.nvars)
                        for _ in range(rng.randint(0, 3))
                    ]
                    budget = rng.choice([None, None, 0, 1, 3])
                    res = s.solve(assumptions, conflict_budget=budget)
                    answers[res] += 1
                    if res == INTERRUPTED:
                        assert budget is not None
                        continue
                    units = [[a] for a in assumptions]
                    assert (res == SAT) == brute_force_sat(s.nvars, s.db + units)
                    if res == SAT:
                        check_model(s, s.db + units)
                    assert ref.solve(assumptions) == res
            # the trusted insert records exactly what add_clause records
            assert s.db == ref.db
        assert min(answers.values()) > 0, answers

    def test_trusted_insert_filters_level_0_literals(self):
        s = Solver()
        a, b, x, g = (s.new_var() for _ in range(4))
        s.add_clause([-x])  # x is false at level 0 from here on
        s.add_definition([[-g, a, x], [g, -a], [g, x, b]])
        assert s.db == [[-x], [-g, a, x], [g, -a], [g, x, b]]
        assert s._clauses == [[-g, a], [g, -a], [g, b]]
        assert s.bins[-g] == [(a, s._clauses[0])] and s.watches == {lit: [] for lit in s.watches}
        h = s.new_var()
        s.add_clause([a])
        s.add_definition([[-h, x], [h, -a, b]])  # -h is a unit, and then so is b
        assert s.db[-2:] == [[-h, x], [h, -a, b]]
        assert s.trail == [-x, a, -h, b] and len(s._clauses) == 3
        assert s.solve() == SAT and s.model_value(b) and s.model_value(g)

    def test_literals_outside_the_variables_are_rejected(self):
        s = Solver()
        a = s.new_var()
        for clause in ([a, 2], [0], [-2]):
            with pytest.raises(ValueError, match="names no variable"):
                s.add_clause(clause)
        with pytest.raises(ValueError, match="names no variable"):
            s.solve([a, -3])
        assert s.db == [] and s.solve([a]) == SAT


def solver_state(s):
    """What the solver's answers and its next changes depend on, in order."""
    return (
        s.nvars, s.db, s._clauses, s.watches, s.bins, s._heap, s.trail,
        s.vals, s.level, s.saved, s.activity, s.qhead, s.ok, s.stats(),
    )


class TestCopy:
    @pytest.mark.parametrize("solved", [False, True])
    def test_a_copy_answers_as_the_original_and_leaves_it_alone(self, solved):
        """Before any solve the copy is the original's state exactly; after
        solves, which move watches, it gives the same answers."""
        rng = random.Random(47 + solved)
        answers = {SAT: 0, UNSAT: 0}
        for _ in range(40):
            s = Solver()
            for _ in range(rng.randint(3, 8)):
                s.new_var()
            for _ in range(rng.randint(5, 30)):
                s.add_clause(random_clause(rng, s.nvars))
                if solved and rng.random() < 0.2:
                    s.solve([rng.choice([1, -1]) * rng.randint(1, s.nvars)])
            c = s.copy()
            for name, value in vars(c).items():
                if isinstance(value, (list, dict)):
                    assert value is not vars(s)[name], name
            before = copy.deepcopy(solver_state(s))
            twin = copy.deepcopy(s)
            for _ in range(rng.randint(3, 12)):
                if not solved:
                    assert solver_state(c) == solver_state(twin)
                if rng.random() < 0.5:
                    clause = random_clause(rng, c.nvars)
                    c.add_clause(clause)
                    twin.add_clause(clause)
                else:
                    assumptions = [rng.choice([1, -1]) * rng.randint(1, c.nvars) for _ in range(2)]
                    res = c.solve(assumptions)
                    assert twin.solve(assumptions) == res
                    answers[res] += 1
            assert solver_state(s) == before
        assert min(answers.values()) > 0, answers

    def test_a_copied_builder_continues_the_gates_of_its_template(self):
        s = Solver()
        b = CircuitBuilder(s)
        x, y = b.var(), b.var()
        g = b.and_(x, y)
        c = b.copy()
        assert (c.TRUE, c.FALSE) == (b.TRUE, b.FALSE)
        assert c.and_(x, y) == g and c.solver.nvars == s.nvars
        h = c.or_(x, y)
        assert s.nvars == 4 and c.solver.nvars == 5 and len(c.cache) == len(b.cache) + 1
        assert b.or_(x, y) == h  # the same number, made on each side apart


class TestRetiredAssumptions:
    def test_an_assumption_true_at_level_0_opens_no_level(self):
        s = Solver()
        a, b, c = (s.new_var() for _ in range(3))
        s.add_clause([-a])
        s.add_clause([-b, c])
        levels = []
        decide = s._decide

        def recording_decide():
            levels.append(len(s.trail_lim))
            return decide()

        s._decide = recording_decide
        assert s.solve([-a, b]) == SAT and s.model_value(c)
        # -a is fixed at level 0, so only b opens a level before deciding
        assert levels[0] == 1
        assert s.solve([a]) == UNSAT


class TestHeap:
    def test_one_live_entry_per_unassigned_variable(self):
        rng = random.Random(47)
        for _ in range(30):
            nv = rng.randint(4, 12)
            clauses = random_cnf(rng, nv, rng.randint(nv, nv * 5))
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            levels = checked_backtracks(s)
            for n in range(3):
                if n:
                    # new variables between solves: their entries are
                    # appended, in heap order behind the bumped ones
                    for _ in range(n):
                        s.new_var()
                        check_heap(s)
                assumptions = [rng.choice([1, -1]) * rng.randint(1, nv) for _ in range(2)]
                res = s.solve(assumptions)
                units = [[a] for a in assumptions]
                assert (res == SAT) == brute_force_sat(nv, clauses + units)
            assert levels  # every solve backtracks at least once
            check_heap(s)
            c = s.copy()
            check_heap(c)
            c.new_var()
            check_heap(c)
            assert c.solve() == s.solve()
            check_heap(c)

    def test_a_copy_keeps_no_method_wrapped_on_the_original(self):
        """The checking wrapper set on one solver stays with it: the copy
        backtracks itself, and both answer as brute force does."""
        rng = random.Random(59)
        for _ in range(20):
            nv = rng.randint(4, 10)
            clauses = random_cnf(rng, nv, rng.randint(nv, nv * 4))
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            levels = checked_backtracks(s)
            c = s.copy()
            expected = brute_force_sat(nv, clauses)
            assert (c.solve() == SAT) == expected
            assert not levels  # the copy ran none of the original's backtracks
            check_heap(c)
            assert (s.solve() == SAT) == expected
            assert levels

    def test_activity_rescale_keeps_the_heap_and_the_answers(self):
        s = pigeonhole(6, 5)
        s.var_inc = 1e99  # a few bumps past the 1e100 rescale point
        checked_backtracks(s)
        assert s.solve() == UNSAT
        assert s.var_inc < 1e99  # only a rescale shrinks it
        assert max(s.activity) <= 1e100
        rng = random.Random(53)
        for _ in range(30):
            nv = rng.randint(4, 10)
            clauses = random_cnf(rng, nv, rng.randint(nv * 3, nv * 5))
            s = Solver()
            for _ in range(nv):
                s.new_var()
            for c in clauses:
                s.add_clause(c)
            s.var_inc = 1e100
            checked_backtracks(s)
            res = s.solve()
            assert (res == SAT) == brute_force_sat(nv, clauses)
            if res == SAT:
                check_model(s, clauses)
