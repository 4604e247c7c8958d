"""Brute-force ground truth: bounded semantics, exact lasso semantics, and
explicit fair-lasso search.

Everything here is deliberately independent of the SAT encodings it is used
to validate.  The loop-case evaluator physically unrolls the lasso far enough
for all subformula values to stabilise (one extra copy of the loop per level
of past-operator nesting) and computes future operators by a fixpoint sweep
over the final loop copy; a second evaluator recomputes the same values by
direct quantifier scans and both are cross-checked in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pltl import Formula, closure, memoised, past_depth
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

    ``loop`` is an index l with 1 <= l <= k and states[l-1] == states[k];
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
        if self.loop is not None:
            l = self.loop
            if not (1 <= l <= self.k) or self.states[l - 1] != self.states[self.k]:
                raise OracleError("invalid loop choice")

    def word(self) -> LassoWord:
        if self.loop is None:
            raise OracleError("no loop choice")
        labels = [self.em.labels[s] for s in self.states]
        return LassoWord(tuple(labels[: self.loop]), tuple(labels[self.loop : self.k + 1]))


def _check_atom(word_names, name):
    if word_names is not None and name not in word_names:
        raise OracleError(f"atom {name!r} is not a label of the model")


# ---------------------------------------------------------------------------
# Exact lasso evaluation (recurrences + loop fixpoint)
# ---------------------------------------------------------------------------


def eval_lasso(word: LassoWord, f: Formula, pos: int, names=None) -> bool:
    """Exact PLTL truth of ``f`` on the infinite word at position ``pos``."""
    p = word.period
    stem = len(word.prefix)
    rows = lasso_rows(word, f, names)
    n = stem + (past_depth(f) + 1) * p
    while pos >= n:
        pos -= p
    return rows[f.fid][pos]


def lasso_rows(word: LassoWord, f: Formula, names=None) -> dict:
    """Truth arrays per subformula over the unrolled positions.

    The word is unrolled to ``|prefix| + (depth(f)+1) * period`` positions,
    which is far enough for every subformula value to become periodic; the
    final loop copy wraps onto itself for future operators.
    """
    p = word.period
    stem = len(word.prefix)
    n = stem + (past_depth(f) + 1) * p
    rows = {}
    for g in closure(f):
        k = g.kind
        if k == "true":
            row = [True] * n
        elif k == "false":
            row = [False] * n
        elif k == "atom":
            _check_atom(names, g.name)
            row = [g.name in word.at(t) for t in range(n)]
        elif k == "natom":
            _check_atom(names, g.name)
            row = [g.name not in word.at(t) for t in range(n)]
        elif k == "&":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] and b[t] for t in range(n)]
        elif k == "|":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [a[t] or b[t] for t in range(n)]
        elif k == "Y":
            a = rows[g.left.fid]
            row = [False] + a[: n - 1]
        elif k == "Z":
            a = rows[g.left.fid]
            row = [True] + a[: n - 1]
        elif k == "S":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [b[0]]
            for t in range(1, n):
                row.append(b[t] or (a[t] and row[t - 1]))
        elif k == "T":
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [b[0]]
            for t in range(1, n):
                row.append(b[t] and (a[t] or row[t - 1]))
        elif k == "X":
            a = rows[g.left.fid]
            row = a[1:] + [a[n - p]]
        elif k in ("U", "R"):
            a, b = rows[g.left.fid], rows[g.right.fid]
            row = [None] * n
            # exact values on the final loop copy (cyclic scan)
            for c in range(n - p, n):
                row[c] = _cycle_until(a, b, c, n, p, g.kind)
            for t in range(n - p - 1, -1, -1):
                if g.kind == "U":
                    row[t] = b[t] or (a[t] and row[t + 1])
                else:
                    row[t] = b[t] and (a[t] or row[t + 1])
        else:
            raise OracleError(f"unknown kind {k!r}")
        rows[g.fid] = row
    return rows


def _cycle_until(a, b, c, n, p, kind):
    """Until/release at cycle position c, where positions n-p..n-1 repeat."""
    if kind == "U":
        for j in range(p):
            t = n - p + (c - (n - p) + j) % p
            if b[t]:
                return True
            if not a[t]:
                return False
        return False  # a holds forever but b never does
    # release
    for j in range(p):
        t = n - p + (c - (n - p) + j) % p
        if not b[t]:
            return False
        if a[t]:
            return True
    return True  # b holds around the whole loop


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

    With a loop choice the induced infinite path is evaluated exactly; in the
    no-loop case the prefix semantics is applied literally (X is false at the
    end, until must be fulfilled inside the prefix, release needs an actual
    release point).
    """
    k = path.k
    if not (0 <= i <= k):
        raise OracleError(f"position {i} outside 0..{k}")
    if path.loop is not None:
        return eval_lasso(path.word(), f, i, names=path.em.names())
    labels = [path.em.labels[s] for s in path.states]
    names = path.em.names()

    def rule(key):
        g, t = key
        kk = g.kind
        if kk == "true":
            return True
        if kk == "false":
            return False
        if kk == "atom":
            _check_atom(names, g.name)
            return g.name in labels[t]
        if kk == "natom":
            _check_atom(names, g.name)
            return g.name not in labels[t]
        if kk == "&":
            return (yield g.left, t) and (yield g.right, t)
        if kk == "|":
            return (yield g.left, t) or (yield g.right, t)
        if kk == "X":
            return t < k and (yield g.left, t + 1)
        if kk == "U":
            for j in range(t, k + 1):
                if (yield g.right, j):
                    return True
                if not (yield g.left, j):
                    return False
            return False
        if kk == "R":
            for j in range(t, k + 1):
                if not (yield g.right, j):
                    return False
                if (yield g.left, j):
                    return True
            return False
        if kk == "Y":
            return t > 0 and (yield g.left, t - 1)
        if kk == "Z":
            return t == 0 or (yield g.left, t - 1)
        if kk == "S":
            return (yield g.right, t) or (t > 0 and (yield g.left, t) and (yield g, t - 1))
        if kk == "T":
            return (yield g.right, t) and (t == 0 or (yield g.left, t) or (yield g, t - 1))
        raise OracleError(f"unknown kind {kk!r}")

    return memoised(rule, (f, i))


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
    count = 0
    for path in _paths(em, k):
        count += 1
        if count > budget.max_paths:
            raise BudgetExceeded(f"more than {budget.max_paths} paths")
        bp = BoundedPath(em, path, None)
        if eval_bounded(bp, f, 0):
            return True
        last = path[k]
        for l in range(1, k + 1):
            if path[l - 1] == last:
                bp = BoundedPath(em, path, l)
                if eval_bounded(bp, f, 0):
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
            last = path[k]
            for l in range(1, k + 1):
                if path[l - 1] != last:
                    continue
                loop_states = set(path[l : k + 1])
                if all(loop_states & fs for fs in em.fair_sets):
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
