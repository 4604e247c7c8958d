"""Propositional layer: circuits, CNF lowering, and an incremental CDCL solver.

Literals are signed integers (DIMACS convention, variable indices start at 1;
index 0 is reserved).  ``CircuitBuilder`` hands out gate literals with
constant folding and structural hashing and writes each new gate's full
Tseitin definition into the attached solver as soon as the gate is created.

The solver implements conflict-driven clause learning, first-UIP learning,
phase saving, restarts, and solving under assumptions (after MiniSat: Een
and Soerensson, *An extensible SAT-solver*, SAT 2003).  It is built for many
short, propagation-bound queries over one growing database:

- Two-literal clauses, added or learned, live in binary implication lists
  (``bins``), scanned before the two-watched-literal lists of the longer
  clauses; propagation assigns and extends the trail inline.
- The decision heap holds one live entry per unassigned variable: a
  variable is pushed again only when it is not in the heap, and entries
  whose key is not the variable's current activity are skipped.  A new
  variable's entry is appended, which keeps heap order: its key -0.0 is
  the largest a key can be, and every older variable is smaller.
- A literal's watch and binary lists are made on first use, so a new
  variable costs no lists, and a copy copies only the lists that exist.
- ``CircuitBuilder`` writes each gate's Tseitin clauses through the trusted
  ``add_definition``, which skips the duplicate and tautology checks that
  ``add_clause`` runs, and attaches a clause with no assigned literal as it
  is; both record the same database.
- An assumption already true at level 0 opens no decision level.  A
  session retires a past bound's activation literal as a negative unit
  (``encode.IncrementalEncoder.step``), not as an assumption of every
  later query.

Clauses are never deleted; constraint retraction is modelled by guarding
clauses with activation literals that are simply not assumed.
"""

from __future__ import annotations

import heapq
import subprocess
from collections import defaultdict
from itertools import islice
from typing import Iterable

SAT = "sat"
UNSAT = "unsat"
INTERRUPTED = "interrupted"


class Solver:
    """Incremental CDCL solver over integer literals."""

    def __init__(self):
        self.nvars = 0
        self.db = []  # original clauses, for export
        self._clauses = []  # attached clause objects (lists), incl. learned
        self._nlearned = 0
        # lit -> clauses of three or more literals watching it
        self.watches = defaultdict(list)
        # lit -> (other, clause) for each two-literal clause of lit
        self.bins = defaultdict(list)
        # lit -> 0 unassigned, 1 true, -1 false; a negative literal indexes
        # from the end, and new_var keeps the list longer than 2 * nvars so
        # the two halves never meet
        self.vals = [0, 0]
        self.level = [0]
        self.reason = [None]
        self.saved = [0]  # var -> its literal of the last assignment
        self.activity = [0.0]
        self._seen = [False]  # _analyze's marks, all False between calls
        self.trail = []
        self.trail_lim = []
        self.qhead = 0
        self.ok = True
        self.var_inc = 1.0
        # (-activity, var) entries; the live one of a variable carries its
        # current activity, older ones are stale and skipped by _decide
        self._heap = []
        self._in_heap = [False]  # var -> has a live heap entry
        self.model = []
        # search counters, summed over every solve() call
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0

    # -- variables ----------------------------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        vals = self.vals
        half = len(vals) // 2
        if v >= half:
            # double the list: the negative half moves to the new end
            self.vals = vals[:half] + [0] * len(vals) + vals[half:]
        self.level.append(0)
        self.reason.append(None)
        self.saved.append(-v)
        self.activity.append(0.0)
        self._seen.append(False)
        self._in_heap.append(True)
        self._heap.append((-0.0, v))  # in heap order: see the module docstring
        return v

    def value(self, lit) -> int:
        return self.vals[lit]

    def model_value(self, lit) -> bool:
        v = self.model[abs(lit)]
        return v if lit > 0 else not v

    # -- clause management ---------------------------------------------------

    def add_clause(self, lits: Iterable[int]):
        """Add a clause at decision level 0; duplicates and tautologies fold.

        The clause database keeps the distinct literals in first-occurrence
        order.  The attached copy keeps the unassigned ones; a tautology or a
        clause with a true literal is not attached.
        """
        assert not self.trail_lim, "clauses must be added at decision level 0"
        distinct = dict.fromkeys(lits)
        clause = list(distinct)
        for lit in clause:
            if not 0 < abs(lit) <= self.nvars:
                raise ValueError(f"literal {lit} names no variable")
        self.db.append(clause)
        if self.ok and not any(-lit in distinct for lit in clause):  # tautology
            self._insert(clause)

    def add_definition(self, clauses):
        """Add the Tseitin clauses of a fresh gate at decision level 0.

        Trusted: the literals of each clause are distinct and none is the
        complement of another, so the database takes the clauses as given,
        just as ``add_clause`` would record them.  A clause with no assigned
        literal is attached as it is (a longer one as a copy, since
        propagation reorders it); the others go through ``_insert``, since a
        literal fixed at level 0 must never be watched.
        """
        assert not self.trail_lim, "clauses must be added at decision level 0"
        self.db.extend(clauses)
        vals = self.vals
        for clause in clauses:
            if not self.ok:
                return
            for lit in clause:
                if vals[lit]:
                    self._insert(clause)
                    break
            else:
                self._attach(clause if len(clause) == 2 else clause[:])

    def _insert(self, clause):
        """Attach the unassigned literals of a level-0 clause, or enqueue
        the only one, unless a literal is true."""
        # At level 0 every assigned literal is fixed for good.
        vals = self.vals
        live = []
        for lit in clause:
            v = vals[lit]
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
        a, b = clause[0], clause[1]
        if len(clause) == 2:
            self.bins[a].append((b, clause))
            self.bins[b].append((a, clause))
        else:
            self.watches[a].append(clause)
            self.watches[b].append(clause)

    # -- trail ----------------------------------------------------------------

    def _enqueue(self, lit, reason) -> bool:
        vals = self.vals
        v = vals[lit]
        if v > 0:
            return True
        if v < 0:
            return False
        vals[lit] = 1
        vals[-lit] = -1
        var = abs(lit)
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Unit propagation; returns a conflicting clause or None.

        For each literal taken off the trail, the two-literal clauses of its
        complement are scanned first, then the longer clauses watching it.
        Implied literals are assigned and put on the trail inline.  A long
        clause is touched only when its other watch is not true; the clauses
        that found a new watch leave the list in one pass at the end.
        """
        watches = self.watches
        bins = self.bins
        vals = self.vals
        level = self.level
        reason = self.reason
        trail = self.trail
        lvl = len(self.trail_lim)
        qhead = start = self.qhead
        conflict = None
        # the slice iterator also yields the literals appended on the way
        for qhead, lit in enumerate(islice(trail, start, None), start + 1):
            neg = -lit
            for other, clause in bins[neg]:
                ov = vals[other]
                if ov > 0:
                    continue
                if ov < 0:
                    conflict = clause
                    break
                vals[other] = 1
                vals[-other] = -1
                var = other if other > 0 else -other
                level[var] = lvl
                reason[var] = clause
                trail.append(other)
            if conflict is not None:
                break
            watchers = watches[neg]
            moved = False
            for clause in watchers:
                first = clause[0]
                if first == neg:
                    first = clause[1]
                fv = vals[first]
                if fv > 0:
                    continue
                clause[0] = first
                clause[1] = neg
                for k in range(2, len(clause)):
                    cand = clause[k]
                    if vals[cand] >= 0:
                        clause[1] = cand
                        clause[k] = neg
                        watches[cand].append(clause)
                        moved = True
                        break
                else:
                    if fv < 0:
                        conflict = clause
                        break
                    vals[first] = 1
                    vals[-first] = -1
                    var = first if first > 0 else -first
                    level[var] = lvl
                    reason[var] = clause
                    trail.append(first)
            if moved:
                kept = []
                for clause in watchers:
                    if clause[1] == neg or clause[0] == neg:
                        kept.append(clause)
                watches[neg] = kept
            if conflict is not None:
                break
        self.qhead = qhead
        self.propagations += qhead - start
        return conflict

    # -- conflict analysis ----------------------------------------------------

    def _analyze(self, conflict):
        learnt = []
        seen = self._seen
        level = self.level
        trail = self.trail
        counter = 0
        lit = None
        reason = conflict
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        while True:
            for q in reason:
                if q == lit:
                    continue
                var = abs(q)
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if level[var] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            lit = trail[idx]
            var = abs(lit)
            seen[var] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[var]
        # the current level's marks are cleared above; clear the rest
        for q in learnt:
            seen[abs(q)] = False
        learnt.insert(0, -lit)
        if len(learnt) == 1:
            return learnt, 0
        bt = max(level[abs(q)] for q in learnt[1:])
        # watch the asserting literal and one literal from the backtrack level
        for k in range(1, len(learnt)):
            if level[abs(learnt[k])] == bt:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, bt

    def _bump(self, var):
        activity = self.activity
        act = activity[var] + self.var_inc
        activity[var] = act
        if act > 1e100:
            for v in range(1, self.nvars + 1):
                activity[v] *= 1e-100
            self.var_inc *= 1e-100
            # every key changed: keep only the live entries, rekeyed
            in_heap = self._in_heap
            self._heap = [(-activity[v], v) for v in range(1, self.nvars + 1) if in_heap[v]]
            heapq.heapify(self._heap)
        elif self._in_heap[var]:
            heapq.heappush(self._heap, (-act, var))

    def _backtrack(self, level):
        trail_lim = self.trail_lim
        if len(trail_lim) > level:
            trail = self.trail
            lim = trail_lim[level]
            del trail_lim[level:]
            vals = self.vals
            saved = self.saved
            activity = self.activity
            in_heap = self._in_heap
            heap = self._heap
            push = heapq.heappush
            # reasons of unassigned variables are never read: not reset
            for lit in trail[lim:]:
                vals[lit] = 0
                vals[-lit] = 0
                var = lit if lit > 0 else -lit
                saved[var] = lit
                if not in_heap[var]:
                    in_heap[var] = True
                    push(heap, (-activity[var], var))
            del trail[lim:]
        # units added via add_clause since the last solve still need their
        # propagation pass, so never advance qhead past them
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self):
        """The unassigned variable of highest activity, or 0 if none is left.

        Stale entries are dropped; a live entry leaves the heap with its
        variable, and ``_backtrack`` puts the variable back once unassigned.
        """
        heap = self._heap
        activity = self.activity
        vals = self.vals
        in_heap = self._in_heap
        pop = heapq.heappop
        while heap:
            key, var = pop(heap)
            if -key != activity[var] or not in_heap[var]:
                continue  # stale
            in_heap[var] = False
            if vals[var] == 0:
                return var
        return 0

    # -- main search -----------------------------------------------------------

    def solve(self, assumptions=(), conflict_budget=None) -> str:
        """Solve the clause database under the given assumption literals.

        An assumption already true at level 0 opens no decision level.
        """
        assumptions = list(assumptions)
        for a in assumptions:
            if not 0 < abs(a) <= self.nvars:
                raise ValueError(f"assumption {a} names no variable")
        self._backtrack(0)
        if not self.ok:
            return UNSAT
        vals = self.vals
        assumptions = [a for a in assumptions if vals[a] <= 0]
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
                self.model = [v > 0 for v in vals[: self.nvars + 1]]
                result = SAT
                break
            decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(self.saved[var], None)
        self._backtrack(0)
        self.conflicts += conflicts
        self.decisions += decisions
        self.restarts += restarts
        return result

    def copy(self) -> "Solver":
        """An independent solver in the same state, taken at decision level 0.

        Recorded clauses are never mutated, and neither are two-literal
        clauses once attached, so the copy shares them; it gets its own
        copies of the binary lists that exist.  Propagation reorders the
        literals of longer clauses and their watch lists, so those clauses
        are copied, and the watch lists are rebuilt from the copies' first
        two literals, which are the watches, in attach order.  That is their order in a solver that
        has not solved yet (the monolithic driver copies such solvers), so
        such a copy continues exactly as the original would; after solves
        the copy gives the same answers, searching in its own order.
        """
        assert not self.trail_lim, "only a solver at decision level 0 can be copied"
        c = Solver.__new__(Solver)
        # named fields only: an attribute set on this instance (a wrapped
        # method, say) would act on this solver, not on the copy
        for name in ("nvars", "_nlearned", "qhead", "ok", "var_inc", "conflicts", "decisions", "propagations", "restarts"):
            setattr(c, name, getattr(self, name))
        for name in ("db", "vals", "level", "reason", "saved", "activity", "_seen", "_in_heap", "_heap", "trail"):
            setattr(c, name, getattr(self, name)[:])
        c.trail_lim = []
        c.model = []
        c.bins = defaultdict(list, zip(self.bins, map(list.copy, self.bins.values())))
        watches = c.watches = defaultdict(list)
        clauses = c._clauses = []
        append = clauses.append
        for clause in self._clauses:
            if len(clause) > 2:
                clause = clause[:]
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            append(clause)
        return c

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

    With ``template``, the builder continues ``template``'s gates on
    ``solver``, which must be a copy of the template's solver (``copy``).
    """

    def __init__(self, solver: Solver, template: "CircuitBuilder" = None):
        self.solver = solver
        if template is None:
            self.cache = {}
            t = solver.new_var()
            solver.add_clause([t])
        else:
            self.cache = template.cache.copy()
            t = template.TRUE
        self.TRUE = t
        self.FALSE = -t

    def copy(self) -> "CircuitBuilder":
        """A builder over a copy of this one's solver, with the same gates;
        what either adds leaves the other as it was.  The copy is made
        through ``__init__``, so code that wraps it (the benchmark's
        tracer) sees every builder."""
        return CircuitBuilder(self.solver.copy(), self)

    # -- variables and gates ---------------------------------------------------

    def var(self) -> int:
        return self.solver.new_var()

    def and_(self, *lits) -> int:
        return self._nary(lits)

    def or_(self, *lits) -> int:
        return -self._nary([-l for l in lits])

    def _nary(self, lits):
        """The AND of ``lits``, keyed by its sorted distinct inputs.  Two
        inputs, the most common call, take a path without a set or a sort
        that gives the same key and clauses."""
        true = self.TRUE
        if len(lits) == 2:
            x, y = lits
            if x == true or x == y:
                return y
            if y == true:
                return x
            if x == -true or y == -true or x == -y:
                return -true
            ins = (x, y) if x < y else (y, x)
        else:
            seen = set()
            for l in lits:
                if l == true:
                    continue
                if l == -true or -l in seen:
                    return -true
                seen.add(l)
            if len(seen) < 2:
                return seen.pop() if seen else true
            ins = tuple(sorted(seen))
        key = ("and", ins)
        g = self.cache.get(key)
        if g is None:
            g = self.solver.new_var()
            self.cache[key] = g
            self.solver.add_definition([[-g, x] for x in ins] + [[g] + [-x for x in ins]])
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
            self.solver.add_definition([[-g, -x, y], [-g, x, -y], [g, x, y], [g, -x, -y]])
        return g

    def xor(self, a, b) -> int:
        return -self.iff(a, b)

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
            clauses = [[-g, -c, a], [-g, c, b], [g, -c, -a], [g, c, -b]]
            if abs(c) in (abs(a), abs(b)):
                # the condition shares a variable with a branch, so a clause
                # can repeat a literal or be a tautology: fold it as usual
                for clause in clauses:
                    self.solver.add_clause(clause)
            else:
                self.solver.add_definition(clauses)
        return g


# ---------------------------------------------------------------------------
# DIMACS and external solvers
# ---------------------------------------------------------------------------


def export_dimacs(solver: Solver, path):
    """Write the clause database as DIMACS CNF."""
    with open(path, "w") as fh:
        fh.write(f"p cnf {solver.nvars} {len(solver.db)}\n")
        for clause in solver.db:
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
    answers.  Nonzero exit codes are tolerated (solvers use 10/20).  No
    verdict line, or a value that is not an integer, raises
    ``ExternalSolverError`` with the output at fault.
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
                try:
                    lit = int(tok)
                except ValueError:
                    raise ExternalSolverError(f"external solver printed a malformed value line: {line!r}") from None
                if lit != 0:
                    values[abs(lit)] = lit > 0
    if verdict is None:
        raise ExternalSolverError(
            f"external solver produced no verdict (exit {proc.returncode}): {proc.stdout[:200]!r}"
        )
    return verdict, values
