"""Propositional layer: circuits, CNF lowering, and an incremental CDCL solver.

Literals are signed integers (DIMACS convention, variable indices start at 1;
index 0 is reserved).  ``CircuitBuilder`` hands out gate literals with
constant folding and structural hashing and lowers gate definitions to
clauses in the attached solver, either eagerly (full Tseitin, the default)
or lazily with polarity tracking (Plaisted-Greenbaum style).

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
        """Add a clause at decision level 0; duplicates and tautologies fold."""
        assert not self.trail_lim, "clauses must be added at decision level 0"
        seen = {}
        out = []
        for lit in lits:
            if lit in seen:
                continue
            if -lit in seen:
                self.db.append(list(dict.fromkeys(lits)))
                return  # tautology
            seen[lit] = True
            out.append(lit)
        self.db.append(list(out))
        if not self.ok:
            return
        out = [l for l in out if self.value(l) >= 0 or self.level[abs(l)] > 0]
        # At level 0 every assigned literal has level 0, so the filter keeps
        # only unassigned or true literals.
        if any(self.value(l) > 0 and self.level[abs(l)] == 0 for l in out):
            return  # satisfied forever
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            return
        self._attach(out)

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
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            neg = -lit
            watchers = watches[neg]
            kept = []
            conflict = None
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
            if conflict is not None:
                return conflict
        return None

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
        conflicts = 0
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
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.saved[var] else -var, None)
        self._backtrack(0)
        return result

    def stats(self):
        return {
            "vars": self.nvars,
            "clauses": len(self.db),
            "learned": self._nlearned,
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
    """Gate construction with folding, hashing, and CNF lowering.

    In the default mode every gate emits its full Tseitin definition when it
    is created.  With ``polarity_aware`` the definitions are deferred until a
    clause mentioning the gate is added, and only the needed direction of
    and/or gates is emitted (the circuit side of monotone encodings stays
    one-sided).  In that mode, clauses must go through :meth:`add_clause` /
    :meth:`assert_`, and solver assumptions should be plain variables or
    literals passed through :meth:`require` first, or their defining cone
    may be missing.
    """

    def __init__(self, solver: Solver, polarity_aware=False):
        self.solver = solver
        self.polarity_aware = polarity_aware
        self.cache = {}
        self.defs = {}  # gate var -> (kind, inputs)
        self.emitted = set()  # (var, polarity) pairs already lowered
        t = solver.new_var()
        self.TRUE = t
        self.FALSE = -t
        solver.add_clause([t])

    # -- variables and gates ---------------------------------------------------

    def var(self) -> int:
        return self.solver.new_var()

    def and_(self, *lits) -> int:
        return self._nary("and", lits)

    def or_(self, *lits) -> int:
        return -self._nary("and", [-l for l in _flat(lits)])

    def _nary(self, kind, lits):
        out = []
        seen = set()
        for l in _flat(lits):
            if l == self.TRUE or l in seen:
                continue
            if l == self.FALSE or -l in seen:
                return self.FALSE
            seen.add(l)
            out.append(l)
        if not out:
            return self.TRUE
        if len(out) == 1:
            return out[0]
        key = (kind, tuple(sorted(out)))
        g = self.cache.get(key)
        if g is None:
            g = self.solver.new_var()
            self.cache[key] = g
            self.defs[g] = ("and", key[1])
            if not self.polarity_aware:
                self._emit(g, 1)
                self._emit(g, -1)
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
            self.defs[g] = ("iff", (x, y))
            if not self.polarity_aware:
                self._emit(g, 1)
                self._emit(g, -1)
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
            self.defs[g] = ("ite", (c, a, b))
            if not self.polarity_aware:
                self._emit(g, 1)
                self._emit(g, -1)
        return g

    def equal_vectors(self, xs, ys) -> int:
        assert len(xs) == len(ys)
        return self.and_(*[self.iff(x, y) for x, y in zip(xs, ys)])

    # -- lowering ---------------------------------------------------------------

    def _emit(self, gvar, polarity):
        """Emit the clause set defining gate ``gvar`` in one polarity."""
        stack = [(gvar, polarity)]
        while stack:
            v, pol = stack.pop()
            if (v, pol) in self.emitted:
                continue
            self.emitted.add((v, pol))
            kind, ins = self.defs[v]
            if kind == "and":
                if pol > 0:
                    for x in ins:
                        self.solver.add_clause([-v, x])
                        stack.extend(self._needs(x, 1))
                else:
                    self.solver.add_clause([v] + [-x for x in ins])
                    for x in ins:
                        stack.extend(self._needs(x, -1))
            elif kind == "iff":
                x, y = ins
                self.solver.add_clause([-v, -x, y])
                self.solver.add_clause([-v, x, -y])
                self.solver.add_clause([v, x, y])
                self.solver.add_clause([v, -x, -y])
                self.emitted.add((v, -pol))
                for z in (x, y):
                    stack.extend(self._needs(z, 1))
                    stack.extend(self._needs(z, -1))
            elif kind == "ite":
                c, a, b = ins
                self.solver.add_clause([-v, -c, a])
                self.solver.add_clause([-v, c, b])
                self.solver.add_clause([v, -c, -a])
                self.solver.add_clause([v, c, -b])
                self.emitted.add((v, -pol))
                for z in (c, a, b):
                    stack.extend(self._needs(z, 1))
                    stack.extend(self._needs(z, -1))
            else:
                raise AssertionError(kind)

    def _needs(self, lit, polarity):
        v = abs(lit)
        if v not in self.defs:
            return []
        pol = polarity if lit > 0 else -polarity
        if (v, pol) in self.emitted:
            return []
        return [(v, pol)]

    def require(self, lit):
        """Make sure the definition cone of ``lit`` is in the solver."""
        v = abs(lit)
        if v in self.defs:
            self._emit(v, 1 if lit > 0 else -1)

    def add_clause(self, lits):
        lits = list(lits)
        for l in lits:
            self.require(l)
        self.solver.add_clause(lits)

    def assert_(self, lit):
        self.add_clause([lit])


def _flat(lits):
    for l in lits:
        if isinstance(l, (list, tuple)):
            yield from l
        else:
            yield l


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
