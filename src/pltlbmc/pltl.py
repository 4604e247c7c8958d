"""PLTL formulas: parsing, positive normal form, and structural metrics.

Two representations are used. ``SurfaceFormula`` is the parse-level tree and
may contain negation, implication, equivalence and the derived operators
F, G, O, H.  ``Formula`` is the normalised form used by every encoder: it is
hash-consed (structurally equal subformulas are the same object), restricted
to positive normal form, and caches the past operator depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
FUTURE_BINARY = {"U", "R"}


class FormulaError(Exception):
    """Malformed formula or operator misuse."""


class ParseError(FormulaError):
    def __init__(self, message, line, col):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SurfaceFormula:
    """Parse tree; negation and derived operators still present."""

    kind: str
    name: Optional[str] = None
    left: Optional["SurfaceFormula"] = None
    right: Optional["SurfaceFormula"] = None

    def __str__(self):
        return _to_text(self)


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
        return f"Formula({_to_text(self)!r})"

    def __str__(self):
        return _to_text(self)


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
# Parsing
# ---------------------------------------------------------------------------

_OPERATOR_LETTERS = frozenset("XFGURYZSTOH")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789=")


def _tokenize(text):
    """Yield (kind, value, line, col).  Kinds: ident true false op ( ) eof."""
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            if word == "true":
                yield ("true", word, line, start_col)
            elif word == "false":
                yield ("false", word, line, start_col)
            elif len(word) == 1 and word in _OPERATOR_LETTERS:
                yield ("op", word, line, start_col)
            else:
                yield ("ident", word, line, start_col)
        elif c == "(":
            yield ("(", c, line, start_col)
            i += 1
            col += 1
        elif c == ")":
            yield (")", c, line, start_col)
            i += 1
            col += 1
        elif c == "!":
            yield ("op", "!", line, start_col)
            i += 1
            col += 1
        elif c == "&":
            yield ("op", "&", line, start_col)
            i += 1
            col += 1
        elif c == "|":
            yield ("op", "|", line, start_col)
            i += 1
            col += 1
        elif c == "-" and i + 1 < n and text[i + 1] == ">":
            yield ("op", "->", line, start_col)
            i += 2
            col += 2
        elif c == "<" and text[i : i + 3] == "<->":
            yield ("op", "<->", line, start_col)
            i += 3
            col += 3
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    yield ("eof", None, line, col)


class _FormulaParser:
    """Recursive descent: unary > U/R/S/T > & > | > -> > <->.

    The binary temporal operators and the implications associate to the
    right; single capital letters from the operator set are always operators,
    never atoms.
    """

    def __init__(self, text):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message):
        kind, value, line, col = self.peek()
        shown = value if value is not None else "end of input"
        raise ParseError(f"{message}, got {shown!r}", line, col)

    def parse(self):
        f = self.parse_iff()
        if self.peek()[0] != "eof":
            self.error("trailing input after formula")
        return f

    def parse_iff(self):
        left = self.parse_implies()
        if self.peek()[:2] == ("op", "<->"):
            self.advance()
            return s_binop("<->", left, self.parse_iff())
        return left

    def parse_implies(self):
        left = self.parse_or()
        if self.peek()[:2] == ("op", "->"):
            self.advance()
            return s_binop("->", left, self.parse_implies())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek()[:2] == ("op", "|"):
            self.advance()
            left = s_binop("|", left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_temporal()
        while self.peek()[:2] == ("op", "&"):
            self.advance()
            left = s_binop("&", left, self.parse_temporal())
        return left

    def parse_temporal(self):
        left = self.parse_unary()
        kind, value = self.peek()[:2]
        if kind == "op" and value in BINARY_TEMPORAL:
            self.advance()
            return s_binop(value, left, self.parse_temporal())
        return left

    def parse_unary(self):
        kind, value = self.peek()[:2]
        if kind == "op" and value in UNARY_OPS:
            self.advance()
            return s_unop(value, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, value, line, col = self.peek()
        if kind == "ident":
            self.advance()
            return s_atom(value)
        if kind == "true":
            self.advance()
            return S_TRUE
        if kind == "false":
            self.advance()
            return S_FALSE
        if kind == "(":
            self.advance()
            f = self.parse_iff()
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.advance()
            return f
        self.error("expected a formula")


def parse_formula(text):
    """Parse the ASCII formula grammar into a :class:`SurfaceFormula`."""
    return _FormulaParser(text).parse()


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


def _pnf(f, neg):
    k = f.kind
    if k == "atom":
        return mk_natom(f.name) if neg else mk_atom(f.name)
    if k == "true":
        return FALSE if neg else TRUE
    if k == "false":
        return TRUE if neg else FALSE
    if k == "!":
        return _pnf(f.left, not neg)
    if k == "&":
        if neg:
            return mk_or(_pnf(f.left, True), _pnf(f.right, True))
        return mk_and(_pnf(f.left, False), _pnf(f.right, False))
    if k == "|":
        if neg:
            return mk_and(_pnf(f.left, True), _pnf(f.right, True))
        return mk_or(_pnf(f.left, False), _pnf(f.right, False))
    if k == "->":
        if neg:
            return mk_and(_pnf(f.left, False), _pnf(f.right, True))
        return mk_or(_pnf(f.left, True), _pnf(f.right, False))
    if k == "<->":
        a0, a1 = _pnf(f.left, False), _pnf(f.left, True)
        b0, b1 = _pnf(f.right, False), _pnf(f.right, True)
        if neg:
            return mk_or(mk_and(a0, b1), mk_and(b0, a1))
        return mk_and(mk_or(a1, b0), mk_or(b1, a0))
    if k == "X":
        return mk_next(_pnf(f.left, neg))
    if k == "F":
        if neg:
            return mk_release(FALSE, _pnf(f.left, True))
        return mk_until(TRUE, _pnf(f.left, False))
    if k == "G":
        if neg:
            return mk_until(TRUE, _pnf(f.left, True))
        return mk_release(FALSE, _pnf(f.left, False))
    if k == "U":
        if neg:
            return mk_release(_pnf(f.left, True), _pnf(f.right, True))
        return mk_until(_pnf(f.left, False), _pnf(f.right, False))
    if k == "R":
        if neg:
            return mk_until(_pnf(f.left, True), _pnf(f.right, True))
        return mk_release(_pnf(f.left, False), _pnf(f.right, False))
    if k == "Y":
        if neg:
            return mk_prevz(_pnf(f.left, True))
        return mk_prev(_pnf(f.left, False))
    if k == "Z":
        if neg:
            return mk_prev(_pnf(f.left, True))
        return mk_prevz(_pnf(f.left, False))
    if k == "O":
        if neg:
            return mk_trigger(FALSE, _pnf(f.left, True))
        return mk_since(TRUE, _pnf(f.left, False))
    if k == "H":
        if neg:
            return mk_since(TRUE, _pnf(f.left, True))
        return mk_trigger(FALSE, _pnf(f.left, False))
    if k == "S":
        if neg:
            return mk_trigger(_pnf(f.left, True), _pnf(f.right, True))
        return mk_since(_pnf(f.left, False), _pnf(f.right, False))
    if k == "T":
        if neg:
            return mk_since(_pnf(f.left, True), _pnf(f.right, True))
        return mk_trigger(_pnf(f.left, False), _pnf(f.right, False))
    if k == "natom":
        # PNF node fed back in via embed(); keep the polarity arithmetic.
        return mk_atom(f.name) if neg else mk_natom(f.name)
    raise FormulaError(f"unknown formula kind {k!r}")


def embed(f: Formula) -> SurfaceFormula:
    """Inject a PNF formula back into the surface representation."""
    k = f.kind
    if k == "true":
        return S_TRUE
    if k == "false":
        return S_FALSE
    if k == "atom":
        return s_atom(f.name)
    if k == "natom":
        return s_not(s_atom(f.name))
    if f.right is None:
        return s_unop(k, embed(f.left))
    return s_binop(k, embed(f.left), embed(f.right))


def past_depth(f: Formula) -> int:
    """Past operator depth: Y/Z/S/T each add one level of nesting."""
    return f.depth


def closure(f: Formula) -> list:
    """Distinct subformulas of ``f`` in a children-before-parents order."""
    seen = set()
    out = []

    def walk(g):
        if g.fid in seen:
            return
        if g.left is not None:
            walk(g.left)
        if g.right is not None:
            walk(g.right)
        seen.add(g.fid)
        out.append(g)

    walk(f)
    return out


def atoms_of(f) -> set:
    """Atom names referenced by a formula (surface or PNF)."""
    out = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g is None:
            continue
        if g.kind in ("atom", "natom"):
            out.add(g.name)
            continue
        stack.append(g.left)
        if g.right is not None:
            stack.append(g.right)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {
    "<->": 0,
    "->": 1,
    "|": 2,
    "&": 3,
    "U": 4,
    "R": 4,
    "S": 4,
    "T": 4,
}


def _to_text(f, parent_prec=-1):
    k = f.kind
    if k == "true" or k == "false":
        return k
    if k == "atom":
        return f.name
    if k == "natom":
        return "!" + f.name
    if f.right is None:
        op = k
        sub = _to_text(f.left, 5)
        return f"{op} {sub}" if op != "!" else f"!{sub}"
    prec = _PREC[k]
    if k in ("&", "|"):  # left associative
        left = _to_text(f.left, prec)
        right = _to_text(f.right, prec + 1)
    else:  # right associative
        left = _to_text(f.left, prec + 1)
        right = _to_text(f.right, prec)
    text = f"{left} {k} {right}"
    if prec < parent_prec:
        return f"({text})"
    return text


def format_formula(f) -> str:
    return _to_text(f)
