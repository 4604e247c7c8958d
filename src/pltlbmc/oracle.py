"""Brute-force ground truth: bounded semantics, exact lasso semantics, and
explicit fair-lasso search.

Everything here is deliberately independent of the SAT encodings it is used
to validate.  One row evaluator, ``path_rows``, serves both cases of the
bounded semantics: it computes the truth row of every subformula over a list
of label sets and a loop index, with one recurrence per operator and one per
duality pair (U/R, S/T), seeded by the fixpoint kind.  A lasso is unrolled
until all values are periodic, and U and R sweep its final loop copy twice,
which makes them exact there; a loop-free path ends where X is false and
until must already be fulfilled.  A second evaluator, ``eval_lasso_scan``,
recomputes the lasso values by quantifier scans; the tests cross-check both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pltl import Formula, closure, past_depth
from .model import ExplicitModel, reachable_states


class OracleError(Exception):
    pass


class BudgetExceeded(OracleError):
    pass


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word: prefix then loop, as sets of true atoms."""

    prefix: tuple
    loop: tuple

    def __post_init__(self):
        if len(self.loop) < 1:
            raise OracleError("lasso word needs a nonempty loop")

    @property
    def period(self):
        return len(self.loop)

    def at(self, t):
        if t < len(self.prefix):
            return self.prefix[t]
        return self.loop[(t - len(self.prefix)) % len(self.loop)]


def make_lasso(prefix, loop) -> LassoWord:
    return LassoWord(tuple(frozenset(s) for s in prefix), tuple(frozenset(s) for s in loop))


@dataclass
class BoundedPath:
    """A k-step path of an explicit model with an optional loop choice.

    ``loop`` is an index l that closes a (k,l)-loop (``_loops_back``);
    None means the path is read as a prefix of arbitrary extensions.
    """

    em: ExplicitModel
    states: list
    loop: Optional[int] = None

    @property
    def k(self):
        return len(self.states) - 1

    def check(self):
        em = self.em
        if self.states[0] not in em.initial:
            raise OracleError("path does not start in an initial state")
        for a, b in zip(self.states, self.states[1:]):
            if b not in em.succ[a]:
                raise OracleError("path uses a missing transition")
        _check_loop(self)

    def word(self) -> LassoWord:
        if self.loop is None:
            raise OracleError("no loop choice")
        labels = [self.em.labels[s] for s in self.states]
        return LassoWord(tuple(labels[: self.loop]), tuple(labels[self.loop : self.k + 1]))


def _loops_back(states, l) -> bool:
    """The (k,l)-loop rule: 1 <= l <= k and states[l-1] == states[k]."""
    return 1 <= l < len(states) and states[l - 1] == states[-1]


def _check_loop(path: BoundedPath):
    if path.loop is not None and not _loops_back(path.states, path.loop):
        raise OracleError("invalid loop choice")


def _check_atom(word_names, name):
    if word_names is not None and name not in word_names:
        raise OracleError(f"atom {name!r} is not a label of the model")


# ---------------------------------------------------------------------------
# Row evaluation: finite paths and lassos
# ---------------------------------------------------------------------------


def path_rows(labels, loop, f: Formula, names=None) -> dict:
    """Truth row of every closure member of ``f`` over a path of label sets.

    ``loop`` is the position that follows the last one, as in
    ``BoundedPath.loop``, or None for a loop-free path, at whose end X is
    false.  A lasso is unrolled to ``loop + (depth(f)+1) * period``
    positions, far enough for every value to become periodic.  U and S
    (R and T) are the least (greatest) fixpoints of ``b or (a and later)``
    (``b and (a or later)``), one seeded sweep per duality pair: S and T
    forward from the empty past, U and R backward from False past a
    loop-free end, or from the fixpoint value over a lasso's final loop
    copy twice, as the first pass sees a whole period from the copy's first
    position and so leaves it exact.
    """
    if loop is not None and not (0 <= loop < len(labels)):
        raise OracleError(f"loop {loop} outside 0..{len(labels) - 1}")
    p = 0 if loop is None else len(labels) - loop  # period; 0 without a loop
    n = len(labels) if loop is None else loop + (past_depth(f) + 1) * p
    at = [labels[t] if t < len(labels) else labels[loop + (t - loop) % p] for t in range(n)]
    tail = n - max(p, 1)  # start of the final loop copy; the last position without a loop
    rows = {}
    for g in closure(f):
        k = g.kind
        if k == "true":
            row = [True] * n
        elif k == "false":
            row = [False] * n
        elif k == "atom":
            _check_atom(names, g.name)
            row = [g.name in s for s in at]
        elif k == "natom":
            _check_atom(names, g.name)
            row = [g.name not in s for s in at]
        elif k == "&":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] and b[t] for t in range(n)]
        elif k == "|":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] or b[t] for t in range(n)]
        elif k in ("Y", "Z"):
            row = [k == "Z"] + rows[g.left.fid][: n - 1]
        elif k == "X":
            a = rows[g.left.fid]
            row = a[1:] + [p > 0 and a[n - p]]
        elif k in ("U", "R", "S", "T"):
            a, b = rows[g.left.fid], rows[g.right.fid]
            least = k in ("U", "S")
            if k in ("S", "T"):  # forward, seeded with the empty past
                order, v = range(n), not least
            else:  # backward; a lasso sweeps its final loop copy twice
                order = [*range(n - 1, tail - 1, -1)] * (p > 0) + [*range(n - 1, -1, -1)]
                v = p > 0 and not least  # the fixpoint's value; False past a loop-free end
            row = [None] * n
            for t in order:
                v = row[t] = b[t] or (a[t] and v) if least else b[t] and (a[t] or v)
        else:
            raise OracleError(f"unknown kind {k!r}")
        rows[g.fid] = row
    return rows


def eval_lasso(word: LassoWord, f: Formula, pos: int, names=None) -> bool:
    """Exact PLTL truth of ``f`` on the infinite word at position ``pos``."""
    row = path_rows(word.prefix + word.loop, len(word.prefix), f, names)[f.fid]
    while pos >= len(row):
        pos -= word.period
    return row[pos]


# ---------------------------------------------------------------------------
# Second, independent evaluator: direct quantifier scans
# ---------------------------------------------------------------------------


def eval_lasso_scan(word: LassoWord, f: Formula, pos: int, names=None) -> bool:
    """Same semantics as :func:`eval_lasso`, computed by quantifier scans.

    A wide horizon is materialised; existential scans for until/since etc.
    terminate by periodicity of subformula values on the unrolled word.
    """
    p = word.period
    stem = len(word.prefix)
    horizon = stem + (past_depth(f) + 3 + _height(f)) * p
    rows = {}
    for g in closure(f):
        k = g.kind
        row = []
        if k == "true":
            row = [True] * horizon
        elif k == "false":
            row = [False] * horizon
        elif k == "atom":
            _check_atom(names, g.name)
            row = [g.name in word.at(t) for t in range(horizon)]
        elif k == "natom":
            _check_atom(names, g.name)
            row = [g.name not in word.at(t) for t in range(horizon)]
        elif k == "&":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] and b[t] for t in range(horizon)]
        elif k == "|":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] or b[t] for t in range(horizon)]
        elif k == "X":
            a = rows[g.left.fid]
            row = [a[t + 1] if t + 1 < horizon else False for t in range(horizon)]
        elif k == "Y":
            a = rows[g.left.fid]
            row = [t > 0 and a[t - 1] for t in range(horizon)]
        elif k == "Z":
            a = rows[g.left.fid]
            row = [t == 0 or a[t - 1] for t in range(horizon)]
        elif k == "S":
            a = rows[g.left.fid]
            b = rows[g.right.fid]
            row = [
                any(b[j] and all(a[m] for m in range(j + 1, t + 1)) for j in range(t + 1))
                for t in range(horizon)
            ]
        elif k == "T":
            a = rows[g.left.fid]
            b = rows[g.right.fid]
            row = [
                all(b[j] or any(a[m] for m in range(j + 1, t + 1)) for j in range(t + 1))
                for t in range(horizon)
            ]
        elif k == "U":
            a = rows[g.left.fid]
            b = rows[g.right.fid]
            for t in range(horizon):
                val = False
                for j in range(t, horizon):
                    if b[j]:
                        val = True
                        break
                    if not a[j]:
                        break
                row.append(val)
        elif k == "R":
            a = rows[g.left.fid]
            b = rows[g.right.fid]
            for t in range(horizon):
                val = True
                for j in range(t, horizon):
                    if not b[j]:
                        val = False
                        break
                    if a[j]:
                        break
                row.append(val)
        else:
            raise OracleError(f"unknown kind {k!r}")
        rows[g.fid] = row
    n = stem + (past_depth(f) + 1) * p
    while pos >= n:
        pos -= p
    return rows[f.fid][pos]


def _height(f):
    height = {}  # fid -> nodes on the longest path down from it
    for g in closure(f):
        height[g.fid] = 1 + max((height[c.fid] for c in (g.left, g.right) if c is not None), default=0)
    return height[f.fid]


# ---------------------------------------------------------------------------
# Bounded semantics
# ---------------------------------------------------------------------------


def eval_bounded(path: BoundedPath, f: Formula, i: int) -> bool:
    """Truth of ``f`` at position ``i`` under the bounded semantics.

    With a loop choice, which must close a (k,l)-loop, the induced infinite
    path is evaluated exactly; in the no-loop case the prefix semantics is
    applied literally (X is false at the end, until must be fulfilled
    inside the prefix, release needs an actual release point).
    """
    k = path.k
    if not (0 <= i <= k):
        raise OracleError(f"position {i} outside 0..{k}")
    _check_loop(path)
    labels = [path.em.labels[s] for s in path.states]
    return path_rows(labels, path.loop, f, path.em.names())[f.fid][i]


@dataclass
class Budget:
    max_bits: int = 6
    max_k: int = 8
    max_paths: int = 2_000_000


def exists_witness_bounded(em: ExplicitModel, f: Formula, k: int, budget: Budget = None) -> bool:
    """True iff some initialised k-path with some loop choice satisfies f at 0.

    Enumerates every initialised path of length k and every loop choice
    (including none); fails loudly when the configured budget is exceeded.
    """
    budget = budget or Budget()
    if len(em.var_names) > budget.max_bits:
        raise BudgetExceeded(f"{len(em.var_names)} bits exceeds oracle budget {budget.max_bits}")
    if k > budget.max_k:
        raise BudgetExceeded(f"k={k} exceeds oracle budget {budget.max_k}")
    names = em.names()
    count = 0
    for path in _paths(em, k):
        count += 1
        if count > budget.max_paths:
            raise BudgetExceeded(f"more than {budget.max_paths} paths")
        labels = [em.labels[s] for s in path]
        loops = [None] + [l for l in range(1, k + 1) if _loops_back(path, l)]
        if any(path_rows(labels, l, f, names)[f.fid][0] for l in loops):
            return True
    return False


def _paths(em, k):
    """All initialised state sequences s_0..s_k, depth first."""
    stack = [(s0, [s0]) for s0 in reversed(em.initial)]
    while stack:
        state, path = stack.pop()
        if len(path) == k + 1:
            yield path
            continue
        for t in reversed(em.succ[state]):
            stack.append((t, path + [t]))


def minimal_witness_k(em, f, max_k, budget: Budget = None):
    """Smallest k with a bounded witness, or None."""
    for k in range(max_k + 1):
        if exists_witness_bounded(em, f, k, budget):
            return k
    return None


# ---------------------------------------------------------------------------
# d-unrollings
# ---------------------------------------------------------------------------


def d_unrolling_index(i, k, l) -> int:
    """Which unrolling of the loop of a (k,l)-loop position i belongs to."""
    if not (1 <= l <= k):
        raise OracleError("need 1 <= l <= k")
    if i < 0:
        raise OracleError("negative position")
    p = k - l + 1
    if i < l:
        return 0
    return (i - l) // p


# ---------------------------------------------------------------------------
# Fair lassos
# ---------------------------------------------------------------------------


def fair_lasso_exists(em: ExplicitModel) -> bool:
    """Graph check: a reachable cycle intersecting every acceptance set."""
    reach = reachable_states(em)
    comp = _sccs(em, reach)
    for states in comp:
        has_edge = len(states) > 1 or any(s in em.succ[s] for s in states)
        if not has_edge:
            continue
        if all(states & fs for fs in em.fair_sets):
            return True
    return False


def fair_lasso_search(em: ExplicitModel, budget: Budget = None):
    """Minimal-k initialised fair (k,l)-loop, or None.

    Searches path lengths in increasing order, so the returned k is minimal;
    a strongly-connected-component precheck settles nonexistence first.
    """
    budget = budget or Budget()
    if not fair_lasso_exists(em):
        return None
    max_k = (len(em.fair_sets) + 2) * em.nstates + 1
    count = 0
    for k in range(1, max_k + 1):
        for path in _paths(em, k):
            count += 1
            if count > budget.max_paths:
                raise BudgetExceeded(f"more than {budget.max_paths} paths in fair lasso search")
            for l in range(1, k + 1):
                if _loops_back(path, l) and all(set(path[l : k + 1]) & fs for fs in em.fair_sets):
                    return (k, l, path)
    raise OracleError("fair lasso exists but was not found within the length bound")


def _sccs(em, restrict):
    """Kosaraju over the restricted state set; returns sets of states."""
    order = []
    seen = set()
    for root in restrict:
        if root in seen:
            continue
        stack = [(root, iter(em.succ[root]))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for t in it:
                if t in restrict and t not in seen:
                    seen.add(t)
                    stack.append((t, iter(em.succ[t])))
                    advanced = True
                    break
            if not advanced:
                order.append(node)
                stack.pop()
    pred = {s: [] for s in restrict}
    for s in restrict:
        for t in em.succ[s]:
            if t in restrict:
                pred[t].append(s)
    comp = []
    assigned = set()
    for node in reversed(order):
        if node in assigned:
            continue
        group = {node}
        assigned.add(node)
        todo = [node]
        while todo:
            s = todo.pop()
            for t in pred[s]:
                if t not in assigned:
                    assigned.add(t)
                    group.add(t)
                    todo.append(t)
        comp.append(group)
    return comp
