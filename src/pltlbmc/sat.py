"""Propositional layer: circuits, CNF lowering, and an incremental CDCL solver.

Literals are signed integers (DIMACS convention, variable indices start at 1;
index 0 is reserved).  ``CircuitBuilder`` hands out gate literals with
constant folding and structural hashing and writes each new gate's full
Tseitin definition into the attached solver as soon as the gate is created.

The solver implements conflict-driven clause learning with two watched
literals, first-UIP learning, phase saving, restarts, and solving under
assumptions.  Clauses are never deleted; constraint retraction is modelled
by guarding clauses with activation literals that are simply not assumed.
"""

from __future__ import annotations

import heapq
import subprocess
from typing import Iterable

SAT = "sat"
UNSAT = "unsat"
INTERRUPTED = "interrupted"


class Solver:
    """Incremental CDCL solver over integer literals."""

    def __init__(self):
        self.nvars = 0
        self.db = []  # original clauses, for export
        self._clauses = []  # watched clause objects (lists), incl. learned
        self._nlearned = 0
        self.watches = {}
        self.assign = [0]  # var -> 0 unassigned, 1 true, -1 false
        self.level = [0]
        self.reason = [None]
        self.saved = [False]
        self.activity = [0.0]
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        self._heap = []
        self.model = []
        # search counters, summed over every solve() call
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- variables ----------------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        self.assign.append(0)
        self.level.append(0)
        self.reason.append(None)
        self.saved.append(False)
        self.activity.append(0.0)
        self.watches[self.nvars] = []
        self.watches[-self.nvars] = []
        heapq.heappush(self._heap, (0.0, self.nvars))
        return self.nvars

    def value(self, lit) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def model_value(self, lit) -> bool:
        v = self.model[abs(lit)]
        return v if lit > 0 else not v

    # -- clause management ---------------------------------------------------

    def add_clause(self, lits: Iterable[int]):
        """Add a clause at decision level 0; duplicates and tautologies fold.

        The clause database keeps the distinct literals in first-occurrence
        order.  The watched copy keeps the unassigned ones; a tautology or a
        clause with a true literal is not watched.
        """
        assert not self.trail_lim, "clauses must be added at decision level 0"
        distinct = dict.fromkeys(lits)
        self.db.append(list(distinct))
        if not self.ok:
            return
        # At level 0 every assigned literal is fixed for good.
        assign = self.assign
        live = []
        for lit in distinct:
            if -lit in distinct:
                return  # tautology
            v = assign[lit] if lit > 0 else -assign[-lit]
            if v > 0:
                return  # satisfied forever
            if v == 0:
                live.append(lit)
        if not live:
            self.ok = False
        elif len(live) == 1:
            self._enqueue(live[0], None)
        else:
            self._attach(live)

    def _attach(self, clause):
        self._clauses.append(clause)
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- trail ----------------------------------------------------------------

    def _enqueue(self, lit, reason) -> bool:
        v = self.value(lit)
        if v > 0:
            return True
        if v < 0:
            return False
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None."""
        watches = self.watches
        assign = self.assign
        start = self.qhead
        conflict = None
        while conflict is None and self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            watchers = watches[neg]
            kept = []
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                if clause[0] == neg:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = assign[first] if first > 0 else -assign[-first]
                if fv > 0:
                    kept.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    cand = clause[k]
                    cv = assign[cand] if cand > 0 else -assign[-cand]
                    if cv >= 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        watches[cand].append(clause)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(clause)
                if fv < 0:
                    kept.extend(watchers[i:])
                    conflict = clause
                    break
                self._enqueue(first, clause)
            watches[neg] = kept
        self.propagations += self.qhead - start
        return conflict

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict):
        learnt = []
        seen = [False] * (self.nvars + 1)
        counter = 0
        lit = None
        reason = conflict
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in reason:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            lit = self.trail[idx]
            var = abs(lit)
            seen[var] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[var]
        learnt.insert(0, -lit)
        if len(learnt) == 1:
            return learnt, 0
        bt = max(self.level[abs(q)] for q in learnt[1:])
        # watch the asserting literal and one literal from the backtrack level
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == bt:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, bt

    def _bump(self, var):
        self.activity[var] += self.var_inc
        if self.activity[var] > 1e100:
            for v in range(1, self.nvars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self._heap, (-self.activity[var], var))

    def _backtrack(self, level):
        while self.trail_lim and len(self.trail_lim) > level:
            lim = self.trail_lim.pop()
            for lit in reversed(self.trail[lim:]):
                var = abs(lit)
                self.saved[var] = lit > 0
                self.assign[var] = 0
                self.reason[var] = None
                heapq.heappush(self._heap, (-self.activity[var], var))
            del self.trail[lim:]
        # units added via add_clause since the last solve still need their
        # propagation pass, so never advance qhead past them
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self):
        while self._heap:
            _, var = heapq.heappop(self._heap)
            if self.assign[var] == 0:
                return var
        for var in range(1, self.nvars + 1):
            if self.assign[var] == 0:
                return var
        return 0

    # -- main search -----------------------------------------------------------

    def solve(self, assumptions=(), conflict_budget=None) -> str:
        """Solve the clause database under the given assumption literals."""
        assumptions = list(assumptions)
        self._backtrack(0)
        if not self.ok:
            return UNSAT
        conflicts = decisions = restarts = 0
        restart_unit = 100
        luby_idx = 1
        limit = restart_unit * _luby(luby_idx)
        result = None
        while result is None:
            conflict = self._propagate()
            if conflict is not None:
                conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    result = UNSAT
                    break
                if conflict_budget is not None and conflicts > conflict_budget:
                    result = INTERRUPTED
                    break
                learnt, bt = self._analyze(conflict)
                # Never backtrack above the assumption prefix: re-deciding
                # assumptions below re-establishes them.
                self._backtrack(bt)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        result = UNSAT
                        break
                else:
                    self._attach(learnt)
                    self._nlearned += 1
                    if not self._enqueue(learnt[0], learnt):
                        raise AssertionError("asserting literal not enqueueable")
                self.var_inc /= 0.95
                if conflicts >= limit:
                    luby_idx += 1
                    limit = conflicts + restart_unit * _luby(luby_idx)
                    restarts += 1
                    self._backtrack(0)
                continue
            # no conflict: place assumptions, then decide
            nlevel = len(self.trail_lim)
            if nlevel < len(assumptions):
                a = assumptions[nlevel]
                v = self.value(a)
                if v < 0:
                    result = UNSAT
                    break
                self.trail_lim.append(len(self.trail))
                if v == 0:
                    self._enqueue(a, None)
                continue
            var = self._decide()
            if var == 0:
                self.model = [False] + [self.assign[v] > 0 for v in range(1, self.nvars + 1)]
                result = SAT
                break
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.saved[var] else -var, None)
        self._backtrack(0)
        self.conflicts += conflicts
        self.decisions += decisions
        self.restarts += restarts
        return result

    def stats(self):
        return {
            "vars": self.nvars,
            "clauses": len(self.db),
            "learned": self._nlearned,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
        }


def _luby(x):
    """Luby sequence 1 1 2 1 1 2 4 ... (0-based index)."""
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x = x % size
    return 1 << seq


# ---------------------------------------------------------------------------
# Circuits
# ---------------------------------------------------------------------------


class CircuitBuilder:
    """Gate construction with folding, hashing, and eager Tseitin lowering.

    Every new gate writes its full Tseitin definition into the solver when it
    is created, so the clauses of a gate exist as soon as its literal does.
    """

    def __init__(self, solver: Solver):
        self.solver = solver
        self.cache = {}
        t = solver.new_var()
        self.TRUE = t
        self.FALSE = -t
        solver.add_clause([t])

    # -- variables and gates ---------------------------------------------------

    def var(self) -> int:
        return self.solver.new_var()

    def and_(self, *lits) -> int:
        return self._nary(lits)

    def or_(self, *lits) -> int:
        return -self._nary([-l for l in lits])

    def _nary(self, lits):
        true = self.TRUE
        ins = set()
        for l in lits:
            if l == true:
                continue
            if l == -true or -l in ins:
                return -true
            ins.add(l)
        if len(ins) < 2:
            return ins.pop() if ins else true
        key = ("and", tuple(sorted(ins)))
        g = self.cache.get(key)
        if g is None:
            g = self.solver.new_var()
            self.cache[key] = g
            add = self.solver.add_clause
            for x in key[1]:
                add([-g, x])
            add([g] + [-x for x in key[1]])
        return g

    def iff(self, a, b) -> int:
        if a == b:
            return self.TRUE
        if a == -b:
            return self.FALSE
        if a == self.TRUE:
            return b
        if a == self.FALSE:
            return -b
        if b == self.TRUE:
            return a
        if b == self.FALSE:
            return -a
        # canonical orientation: positive first literal
        x, y = (a, b) if abs(a) <= abs(b) else (b, a)
        if x < 0:
            x, y = -x, -y
        key = ("iff", (x, y))
        g = self.cache.get(key)
        if g is None:
            g = self.solver.new_var()
            self.cache[key] = g
            add = self.solver.add_clause
            add([-g, -x, y])
            add([-g, x, -y])
            add([g, x, y])
            add([g, -x, -y])
        return g

    def xor(self, a, b) -> int:
        return -self.iff(a, b)

    def implies(self, a, b) -> int:
        return self.or_(-a, b)

    def ite(self, c, a, b) -> int:
        if c == self.TRUE:
            return a
        if c == self.FALSE:
            return b
        if a == b:
            return a
        if a == self.TRUE:
            return self.or_(c, b)
        if a == self.FALSE:
            return self.and_(-c, b)
        if b == self.TRUE:
            return self.or_(-c, a)
        if b == self.FALSE:
            return self.and_(c, a)
        key = ("ite", (c, a, b))
        g = self.cache.get(key)
        if g is None:
            g = self.solver.new_var()
            self.cache[key] = g
            add = self.solver.add_clause
            add([-g, -c, a])
            add([-g, c, b])
            add([g, -c, -a])
            add([g, c, -b])
        return g

    def equal_vectors(self, xs, ys) -> int:
        assert len(xs) == len(ys)
        return self.and_(*[self.iff(x, y) for x, y in zip(xs, ys)])


# ---------------------------------------------------------------------------
# DIMACS and external solvers
# ---------------------------------------------------------------------------


def export_dimacs(solver: Solver, path, assumptions=(), assume_units=False):
    """Write the clause database as DIMACS CNF.

    With ``assume_units`` the assumption literals are appended as unit
    clauses, making the file equivalent to a solve() call under them.
    """
    clauses = [c for c in solver.db]
    if assume_units:
        clauses.extend([a] for a in assumptions)
    with open(path, "w") as fh:
        fh.write(f"p cnf {solver.nvars} {len(clauses)}\n")
        for clause in clauses:
            fh.write(" ".join(str(l) for l in clause) + " 0\n")


def parse_dimacs(text):
    nvars = nclauses = None
    clauses = []
    cur = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            nvars, nclauses = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(cur)
                cur = []
            else:
                cur.append(lit)
    if cur:
        clauses.append(cur)
    if nvars is None:
        raise ValueError("missing DIMACS header")
    return nvars, clauses


class ExternalSolverError(Exception):
    pass


def run_external_solver(cmd, cnf_path, timeout=300):
    """Run ``cmd cnf_path`` and parse the s/v answer lines.

    Returns (verdict, assignment) where assignment maps var -> bool for SAT
    answers.  Nonzero exit codes are tolerated (solvers use 10/20).
    """
    proc = subprocess.run(
        list(cmd) + [str(cnf_path)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    verdict = None
    values = {}
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("s "):
            token = line[2:].strip().upper()
            if token == "SATISFIABLE":
                verdict = SAT
            elif token == "UNSATISFIABLE":
                verdict = UNSAT
        elif line.startswith("v "):
            for tok in line[2:].split():
                lit = int(tok)
                if lit != 0:
                    values[abs(lit)] = lit > 0
    if verdict is None:
        raise ExternalSolverError(
            f"external solver produced no verdict (exit {proc.returncode}): {proc.stdout[:200]!r}"
        )
    return verdict, values
