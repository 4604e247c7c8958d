"""PLTL formulas: parsing, positive normal form, and structural metrics.

Formulas are read and printed by the front end of :mod:`pltlbmc.model`:
the formula grammar is the model-expression grammar plus the temporal
operators ``X F G Y Z O H`` (prefix) and ``U R S T`` (binary).

Two representations are used. ``SurfaceFormula`` is the parse-level tree and
may contain negation, implication, equivalence and the derived operators
F, G, O, H.  ``Formula`` is the normalised form used by every encoder: it is
hash-consed (structurally equal subformulas are the same object), restricted
to positive normal form, and caches the past operator depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import BINARY, Grammar, TreeNode

# Node kinds shared by both representations.  PNF kinds:
#   "true" "false" "atom" "natom" "&" "|" "X" "U" "R" "Y" "Z" "S" "T"
# Surface-only kinds:
#   "!" "->" "<->" "F" "G" "O" "H"

PNF_KINDS = frozenset(
    ["true", "false", "atom", "natom", "&", "|", "X", "U", "R", "Y", "Z", "S", "T"]
)
UNARY_OPS = {"!", "X", "F", "G", "Y", "Z", "O", "H"}
BINARY_TEMPORAL = {"U", "R", "S", "T"}
PAST_UNARY = {"Y", "Z"}
PAST_BINARY = {"S", "T"}


class FormulaError(Exception):
    """Malformed formula or operator misuse."""


class ParseError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True, eq=False, repr=False)
class SurfaceFormula(TreeNode):
    """Parse tree; negation and derived operators still present."""

    kind: str
    name: Optional[str] = None
    left: Optional["SurfaceFormula"] = None
    right: Optional["SurfaceFormula"] = None

    def __str__(self):
        return format_formula(self)


def s_atom(name):
    return SurfaceFormula("atom", name=name)


def s_not(f):
    return SurfaceFormula("!", left=f)


def s_binop(kind, a, b):
    return SurfaceFormula(kind, left=a, right=b)


def s_unop(kind, a):
    return SurfaceFormula(kind, left=a)


S_TRUE = SurfaceFormula("true")
S_FALSE = SurfaceFormula("false")


class Formula:
    """Interned PNF formula node.

    Instances are created through :func:`to_pnf` or the ``mk_*`` helpers and
    are unique per structure, so identity comparison is structural equality.
    ``depth`` caches the past operator depth and ``fid`` is a stable id that
    enumerates distinct subformulas.
    """

    __slots__ = ("kind", "name", "left", "right", "depth", "fid")

    def __init__(self, kind, name, left, right, depth, fid):
        self.kind = kind
        self.name = name
        self.left = left
        self.right = right
        self.depth = depth
        self.fid = fid

    def __repr__(self):
        return f"Formula({format_formula(self)!r})"

    def __str__(self):
        return format_formula(self)


_POOL: dict = {}
_NEXT_FID = [0]


def _intern(kind, name=None, left=None, right=None):
    key = (kind, name, left.fid if left else -1, right.fid if right else -1)
    f = _POOL.get(key)
    if f is not None:
        return f
    if kind in ("true", "false", "atom", "natom"):
        depth = 0
    elif kind in PAST_UNARY:
        depth = 1 + left.depth
    elif kind in PAST_BINARY:
        depth = 1 + max(left.depth, right.depth)
    elif kind == "X":
        depth = left.depth
    else:  # & | U R
        depth = max(left.depth, right.depth)
    f = Formula(kind, name, left, right, depth, _NEXT_FID[0])
    _NEXT_FID[0] += 1
    _POOL[key] = f
    return f


TRUE = _intern("true")
FALSE = _intern("false")


def mk_atom(name):
    return _intern("atom", name=name)


def mk_natom(name):
    return _intern("natom", name=name)


def mk_and(a, b):
    return _intern("&", left=a, right=b)


def mk_or(a, b):
    return _intern("|", left=a, right=b)


def mk_next(a):
    return _intern("X", left=a)


def mk_until(a, b):
    return _intern("U", left=a, right=b)


def mk_release(a, b):
    return _intern("R", left=a, right=b)


def mk_prev(a):
    return _intern("Y", left=a)


def mk_prevz(a):
    return _intern("Z", left=a)


def mk_since(a, b):
    return _intern("S", left=a, right=b)


def mk_trigger(a, b):
    return _intern("T", left=a, right=b)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

def _formula_leaf(grammar, tokens, i, where):
    """An atom or a constant; every name that is not an operator is one."""
    return _CONSTANTS.get(tokens[i]) or s_atom(tokens[i]), i + 1


_CONSTANTS = {"true": S_TRUE, "false": S_FALSE}
# The model grammar with temporal operators: ``U R S T`` bind tighter than
# ``&`` and associate to the right, and single operator letters are never
# atoms (while ``next`` is one).
_FORMULA = Grammar(
    binary={**BINARY, **dict.fromkeys(BINARY_TEMPORAL, (4, 5, 4))},
    unary=frozenset(UNARY_OPS),
    leaf=_formula_leaf,
    node=lambda kind, operands: SurfaceFormula(kind, None, *operands),
    operands=lambda f: (f.left,) if f.right is None else (f.left, f.right),
    error=ParseError,
    missing="expected a formula",
    trailing="trailing input after formula",
    end="end of input",
)


def parse_formula(text, line=1, start=0):
    """Parse the ASCII formula grammar into a :class:`SurfaceFormula`; the
    text from ``start`` on is read, and ``text[start]`` is on line ``line``."""
    return _FORMULA.parse(text, line, start)


def format_formula(f, spans=None) -> str:
    """Text of a surface or PNF formula; a negated atom prints as ``!name``.
    With ``spans``, a dict, the text of each subformula is located in it as
    ``Grammar.format`` does."""
    return _FORMULA.format(f, spans=spans)


# ---------------------------------------------------------------------------
# Positive normal form
# ---------------------------------------------------------------------------


def to_pnf(f):
    """Rewrite a surface formula into an interned PNF :class:`Formula`.

    Derived operators are expanded (F a = true U a, G a = false R a,
    O a = true S a, H a = false T a), implications and equivalences are
    eliminated, and negation is pushed to the atoms via the usual dualities.
    """
    if isinstance(f, Formula):
        return f
    return _pnf(f, False)


# Surface kind -> (builder without negation, builder under negation) for
# the operators whose operands keep the polarity of the node.
_PNF_DUALS = {
    "&": (mk_and, mk_or),
    "|": (mk_or, mk_and),
    "U": (mk_until, mk_release),
    "R": (mk_release, mk_until),
    "S": (mk_since, mk_trigger),
    "T": (mk_trigger, mk_since),
    "X": (mk_next, mk_next),
    "Y": (mk_prev, mk_prevz),
    "Z": (mk_prevz, mk_prev),
}
# Derived unary operators -> (builder, constant first operand) without and
# under negation: F a = true U a, G a = false R a, O a = true S a,
# H a = false T a.
_PNF_DERIVED = {
    "F": ((mk_until, TRUE), (mk_release, FALSE)),
    "G": ((mk_release, FALSE), (mk_until, TRUE)),
    "O": ((mk_since, TRUE), (mk_trigger, FALSE)),
    "H": ((mk_trigger, FALSE), (mk_since, TRUE)),
}


def _pnf_rule(f, neg):
    """One rewrite step of ``f`` under ``neg``: the operands to rewrite, as
    (surface node, negated) pairs in order, and the function that builds
    the PNF node from their results.  A leaf has no operands."""
    k = f.kind
    if k in _PNF_DUALS:
        operands = [(f.left, neg)] if f.right is None else [(f.left, neg), (f.right, neg)]
        return operands, _PNF_DUALS[k][neg]
    if k in _PNF_DERIVED:
        build, const = _PNF_DERIVED[k][neg]
        return [(f.left, neg)], lambda a: build(const, a)
    if k == "!":
        return [(f.left, not neg)], lambda a: a
    if k == "->":
        return [(f.left, not neg), (f.right, neg)], mk_and if neg else mk_or
    if k == "<->":
        operands = [(f.left, False), (f.left, True), (f.right, False), (f.right, True)]
        if neg:
            return operands, lambda a0, a1, b0, b1: mk_or(mk_and(a0, b1), mk_and(b0, a1))
        return operands, lambda a0, a1, b0, b1: mk_and(mk_or(a1, b0), mk_or(b1, a0))
    if k == "atom":
        return [], lambda: mk_natom(f.name) if neg else mk_atom(f.name)
    if k == "true":
        return [], lambda: FALSE if neg else TRUE
    if k == "false":
        return [], lambda: TRUE if neg else FALSE
    raise FormulaError(f"unknown formula kind {k!r}")


def _pnf(f, neg):
    """Post-order walk with an explicit stack, so formulas of any depth
    rewrite; operands are rewritten left to right before their node is
    built, so nodes are interned in the order of the recursive definition.

    Each (surface node, polarity) pair is rewritten once: ``<->`` rewrites
    both its operands in both polarities, which without the memo costs
    time exponential in the nesting of ``<->``.  A second rewrite would
    only intern nodes that already exist, so the memo keeps every fid."""
    done = {}  # (id of a surface node, negated) -> its PNF node
    results = []
    stack = [(f, neg)]  # (node, negated) to rewrite, or (build, arity, key) to run
    while stack:
        item = stack.pop()
        if isinstance(item[0], SurfaceFormula):
            key = (id(item[0]), item[1])
            if key in done:
                results.append(done[key])
                continue
            operands, build = _pnf_rule(*item)
            stack.append((build, len(operands), key))
            stack.extend(reversed(operands))
            continue
        build, arity, key = item
        args = results[len(results) - arity :]
        del results[len(results) - arity :]
        done[key] = build(*args)
        results.append(done[key])
    return results[0]


def embed(f: Formula) -> SurfaceFormula:
    """Inject a PNF formula back into the surface representation."""
    out = {}  # fid -> surface node
    for g in closure(f):  # operands before their nodes
        if g.kind == "natom":
            out[g.fid] = s_not(s_atom(g.name))
        else:
            operands = [out[c.fid] for c in (g.left, g.right) if c is not None]
            out[g.fid] = SurfaceFormula(g.kind, g.name, *operands)
    return out[f.fid]


def past_depth(f: Formula) -> int:
    """Past operator depth: Y/Z/S/T each add one level of nesting."""
    return f.depth


def closure(f: Formula) -> list:
    """Distinct subformulas of ``f`` in a children-before-parents order."""
    seen = set()
    out = []
    stack = [(f, False)]  # (node, operands already pushed)
    while stack:
        g, expanded = stack.pop()
        if g.fid in seen:
            continue
        if expanded:
            seen.add(g.fid)
            out.append(g)
            continue
        stack.append((g, True))
        if g.right is not None:
            stack.append((g.right, False))
        if g.left is not None:
            stack.append((g.left, False))
    return out


def memoised(rule, root):
    """The value of ``root`` under a memoised recursive definition, computed
    on an explicit stack, so formulas of any depth are fine.

    ``rule(key)`` is a generator: it yields each key whose value it needs,
    is sent that value back, and returns the value of ``key``.  Every key is
    computed once, and the keys are computed in the order the plain
    recursion would compute them, so side effects such as gate creation
    happen in that order too."""
    memo = {}
    stack = [(root, rule(root))]
    value = None
    while True:
        key, gen = stack[-1]
        try:
            need = gen.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[key] = done.value
            if not stack:
                return value
            continue
        if need in memo:
            value = memo[need]
        else:
            stack.append((need, rule(need)))
            value = None


def atoms_of(f: Formula) -> set:
    """Atom names referenced by a PNF formula."""
    return {g.name for g in closure(f) if g.kind in ("atom", "natom")}
