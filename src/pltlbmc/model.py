"""Symbolic Kripke structures and their explicit-state expansion.

A model is a set of Boolean state variables with an initial-state predicate,
a (total) transition predicate over current and next variables, optional
DEFINE macros that name predicates over the current state, and optional
FAIRNESS constraints (acceptance sets).  The line-oriented text format is::

    # comment
    VAR b0 b1 b2
    INPUT i
    INIT x0
    TRANS x0 -> next(b0) & !next(b1) & !next(b2)
    DEFINE x0 := !b2 & !b1 & !b0
    FAIRNESS x4
    SPEC G !x4

Several TRANS and FAIRNESS lines may appear; TRANS lines are conjoined.
A name is declared once, as a variable or as a DEFINE, in either order.
Expressions use ``! & | -> <->``, ``true``/``false``, parentheses, names,
and ``next(name)`` (TRANS only, state variables only).

The front end here serves both model expressions and PLTL formulas
(``pltl`` adds the temporal operators): one tokenizer, one
operator-precedence parser and one printer, all on explicit stacks, so
inputs of any depth parse and print.  A ``Grammar`` supplies a language's
operator table, node builders and error words.

Expressions are hash-consed per parse (after Filliatre and Conchon,
*Type-safe modular hash-consing*, ML Workshop 2006): ``parse_model``
builds each distinct subexpression of a model once, so a subterm written
on several lines is one node, and models share no node.  The walkers
(``_names``, ``compile_expr``, ``eval_expr``, ``eval_expr_np``) visit each
distinct node once, so a DAG, parsed or returned by ``shift``, costs its
size and not the size of the tree it stands for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import accumulate
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np


class ModelError(Exception):
    """Malformed model text or inconsistent declarations."""


class TotalityError(ModelError):
    """A state without successors was found during explicit expansion."""

    def __init__(self, state_desc):
        super().__init__(f"transition relation is not total: state {state_desc} has no successor")
        self.state_desc = state_desc


class TreeNode:
    """Structural ``==``, ``hash`` and ``repr`` for the frozen dataclass
    trees (``BoolExpr`` and ``pltl.SurfaceFormula``), on explicit stacks:
    the generated methods recurse once per level, so they fail on a tree
    deeper than the recursion limit.  A field holds a child node, a tuple
    of child nodes or a plain value; ``repr`` prints what the generated
    one does."""

    __slots__ = ()

    def _preorder(self) -> list:
        """The tree in pre-order: a node as its class and then its fields, a
        tuple as its length and then its items, any other value as itself.
        Two trees are equal exactly when these lists are."""
        out = []
        stack = [self]
        while stack:
            v = stack.pop()
            if isinstance(v, TreeNode):
                out.append(v.__class__)
                stack.extend(reversed([getattr(v, f) for f in v.__dataclass_fields__]))
            elif isinstance(v, tuple):
                out.append((tuple, len(v)))
                stack.extend(reversed(v))
            else:
                out.append(v)
        return out

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self):
        return hash(tuple(self._preorder()))

    def __repr__(self):
        out = []
        stack = [(False, self)]  # (True, text to write) or (False, value to print)
        while stack:
            text, v = stack.pop()
            if text:
                out.append(v)
                continue
            if isinstance(v, TreeNode):
                parts = [(True, v.__class__.__qualname__ + "(")]
                for n, f in enumerate(v.__dataclass_fields__):
                    parts += [(True, (", " if n else "") + f + "="), (False, getattr(v, f))]
                parts.append((True, ")"))
            elif isinstance(v, tuple):
                parts = [(True, "(")]
                for n, item in enumerate(v):
                    parts += [(True, ", " if n else ""), (False, item)]
                parts.append((True, ",)" if len(v) == 1 else ")"))
            else:
                out.append(repr(v))
                continue
            stack.extend(reversed(parts))
        return "".join(out)


@dataclass(frozen=True, eq=False, repr=False)
class BoolExpr(TreeNode):
    """Boolean expression node: var, next, true, false, !, &, |, ->, <->."""

    kind: str
    name: Optional[str] = None
    args: tuple = ()

    def __str__(self):
        return expr_to_text(self)


BTRUE = BoolExpr("true")
BFALSE = BoolExpr("false")


def bvar(name):
    return BoolExpr("var", name=name)


def bnext(name):
    return BoolExpr("next", name=name)


def bnot(a):
    return BoolExpr("!", args=(a,))


def band(a, b):
    return BoolExpr("&", args=(a, b))


def bor(a, b):
    return BoolExpr("|", args=(a, b))


def bimp(a, b):
    return BoolExpr("->", args=(a, b))


def biff(a, b):
    return BoolExpr("<->", args=(a, b))


def band_all(exprs):
    exprs = list(exprs)
    if not exprs:
        return BTRUE
    out = exprs[0]
    for e in exprs[1:]:
        out = band(out, e)
    return out


@dataclass(frozen=True)
class SymbolicModel:
    vars: tuple
    init: BoolExpr
    trans: BoolExpr
    defines: tuple  # ((name, expr), ...) in declaration order
    fairness: tuple
    inputs: frozenset
    spec_text: Optional[str] = None

    @cached_property
    def define_map(self):
        return dict(self.defines)

    @cached_property
    def define_order(self):
        """Define names, each after every define its body names.

        A depth-first search over an explicit stack of (define, pending
        refs); a cycle or a name that is neither a variable nor a define
        raises ``ModelError``.
        """
        define_map, known = self.define_map, set(self.vars)
        state = {}  # define -> 1 while on the search path, 2 when finished
        order = []
        for root in define_map:
            if root in state:
                continue
            state[root] = 1
            stack = [(root, iter(_names(define_map[root])[0]))]
            while stack:
                name, refs = stack[-1]
                for ref in refs:
                    if ref in define_map:
                        if state.get(ref) == 1:
                            raise ModelError(f"cyclic DEFINE involving {ref!r}")
                        if ref not in state:
                            state[ref] = 1
                            stack.append((ref, iter(_names(define_map[ref])[0])))
                            break
                    elif ref not in known:
                        raise ModelError(f"DEFINE {name!r} references undefined name {ref!r}")
                else:
                    state[name] = 2
                    order.append(name)
                    stack.pop()
        return tuple(order)

    def _program(self, expr):
        """The n-ary gate program (``nary_program``) of ``expr``, which the
        encoder replays at each time step.  The programs below are built at
        their first lowering, not at parse time, and kept on the model."""
        return nary_program(compile_expr(expr, self.define_map))

    @cached_property
    def init_program(self):
        return self._program(self.init)

    @cached_property
    def trans_program(self):
        return self._program(self.trans)

    @cached_property
    def fairness_programs(self):
        return tuple(map(self._program, self.fairness))

    @cached_property
    def _define_programs(self):
        return {}

    def define_program(self, name):
        prog = self._define_programs.get(name)
        if prog is None:
            prog = self._define_programs[name] = self._program(self.define_map[name])
        return prog


# ---------------------------------------------------------------------------
# Parsing and printing: one front end for expressions and formulas
# ---------------------------------------------------------------------------

# A name, or an operator or parenthesis.  Blanks and newlines separate
# tokens; ``_VALID`` reads tokens and blanks as far as it can, so where it
# stops there is a character that starts no token.
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_=]*")
_TOKEN = re.compile(rf"{_NAME.pattern}|<->|->|[!&|()]")
_VALID = re.compile(rf"(?:{_TOKEN.pattern}|[ \t\r\n])*")
_PUNCT = frozenset(["<->", "->", "!", "&", "|", "(", ")"])
# Words of the expression grammar that no VAR or DEFINE may take as its name.
RESERVED_NAMES = frozenset(["next", "true", "false"])

# Binary operator -> (its precedence, the least precedence of an operand
# written without parentheses on its left, the same on its right).  ``&``
# and ``|`` associate to the left, the implications to the right.
BINARY = {"<->": (0, 1, 0), "->": (1, 2, 1), "|": (2, 2, 3), "&": (3, 3, 4)}
_UNARY_PREC = 5  # prefix operators bind tighter than every binary one
_OPEN = (-1, "(")  # an open parenthesis on the parser's operator stack

_LEAF_TEXT = {"var": "{}", "next": "next({})", "atom": "{}", "natom": "!{}", "true": "true", "false": "false"}


def _where(text, line, start, i):
    """(line, column) of token ``i`` of ``text`` read from ``start``, where
    ``text[start]`` is on line ``line``; token ``i`` may also be the end of
    the text, one past the last token."""
    offsets = [m.start() for m in _TOKEN.finditer(text, start)] + [len(text)]
    return _line_col(text, line, start, offsets[i])


def _line_col(text, line, start, offset):
    return line + text.count("\n", start, offset), offset - text.rfind("\n", 0, offset)


class Grammar(NamedTuple):
    """A language on the shared front end: model expressions here, formulas
    in ``pltl``.  The tokenizer, the parser and the printer are the same for
    every grammar and keep explicit stacks, so inputs of any depth parse and
    print; a grammar supplies its operator tables, its node builders and
    the words of its error messages."""

    binary: dict  # binary operators, as in ``BINARY``
    unary: frozenset  # prefix operators
    leaf: Callable  # (grammar, tokens, i, where) -> (leaf tokens[i] starts, index after it)
    node: Callable  # (kind, operands) -> operator node; the model grammars get one per parse
    operands: Callable  # operator node -> its operands
    error: Callable  # (message, line, column) -> the exception to raise
    missing: str  # message for a missing operand
    trailing: str  # message for input after a complete tree
    end: str  # how messages show the end of the text

    def tokenize(self, text, line=1, start=0):
        """The tokens of ``text`` from ``start`` on, each a name or an
        operator or parenthesis, and ``None`` for the end of the text."""
        stop = _VALID.match(text, start).end()
        if stop < len(text):
            raise self.error(f"unexpected character {text[stop]!r}", *_line_col(text, line, start, stop))
        return _TOKEN.findall(text, start) + [None]

    def expected(self, message, token, position):
        """The error for ``message`` at ``token``, which it shows;
        ``position`` is the token's (line, column)."""
        return self.error(f"{message}, got {(token or self.end)!r}", *position)

    def parse(self, text, line=1, start=0):
        """The tree of ``text`` from ``start`` on.

        Operator precedence parsing: operands and pending operators wait on
        two stacks, and each operator is applied once the next binary
        operator binds looser than its right operand may.  Token positions
        are worked out only for an error message.
        """
        tokens = self.tokenize(text, line, start)
        where = partial(_where, text, line, start)
        binary, unary, node = self.binary, self.unary, self.node
        operands = []
        pending = []  # (least precedence of the right operand, operator)
        i = 0
        while True:
            token = tokens[i]
            if token in unary:
                pending.append((_UNARY_PREC, token))
                i += 1
                continue
            if token == "(":
                pending.append(_OPEN)
                i += 1
                continue
            if token is None or token in _PUNCT or token in binary:
                raise self.expected(self.missing, token, where(i))
            leaf, i = self.leaf(self, tokens, i, where)
            operands.append(leaf)
            while True:  # after an operand: close parentheses up to a binary operator
                token = tokens[i]
                prec = binary[token][0] if token in binary else -1
                while pending and pending[-1][0] > prec:
                    op = pending.pop()[1]
                    right = operands.pop()
                    if op in unary:
                        operands.append(node(op, (right,)))
                    else:
                        operands[-1] = node(op, (operands[-1], right))
                if prec >= 0:
                    pending.append((binary[token][2], token))
                    i += 1
                    break
                if token == ")" and pending:
                    pending.pop()
                    i += 1
                    continue
                if token is None and not pending:
                    return operands[0]
                raise self.expected("expected ')'" if pending else self.trailing, token, where(i))

    def format(self, root, parent_prec=-1, spans=None):
        """Text of ``root`` with the parentheses its precedence needs, where
        ``parent_prec`` is the least precedence it may have unbracketed.
        Pieces are emitted left to right from an explicit stack.

        With ``spans``, a dict, the first print of each node is recorded as
        ``id(node) -> (start, end)``, without the node's parentheses, so
        that ``text[start:end]`` is the text of the node on its own."""
        out = []
        marks = {}  # id(node) -> [its first piece, the piece after its last]
        todo = [(root, parent_prec)]  # (node, parent precedence) pairs and literal pieces
        while todo:
            item = todo.pop()
            if item.__class__ is str:
                out.append(item)
                continue
            e, parent_prec = item
            if parent_prec is None:  # the end of a marked node
                marks[id(e)].append(len(out))
                continue
            k = e.kind
            if k in _LEAF_TEXT:
                pieces = [_LEAF_TEXT[k].format(e.name)]
            else:
                args = self.operands(e)
                if len(args) == 1:
                    pieces = ["!" if k == "!" else k + " ", (args[0], _UNARY_PREC)]
                else:
                    prec, left, right = self.binary[k]
                    pieces = [(args[0], left), f" {k} ", (args[1], right)]
                    if prec < parent_prec:
                        out.append("(")
                        todo.append(")")
            if spans is not None and id(e) not in marks:
                marks[id(e)] = [len(out)]
                todo.append((e, None))
            todo.extend(reversed(pieces))
        if spans is not None:
            offsets = [0, *accumulate(map(len, out))]
            spans.update((key, (offsets[a], offsets[b])) for key, (a, b) in marks.items())
        return "".join(out)


def _expr_leaf(grammar, tokens, i, where, allow_next=False):
    """The leaf of a model expression that ``tokens[i]`` starts: ``true``,
    ``false``, ``next(name)`` (only where ``allow_next``), or a name; with
    the index of the token after it."""
    token = tokens[i]
    if token != "next":
        if token in _CONSTANTS:
            return grammar.node(token, ()), i + 1
        return grammar.node("var", (), token), i + 1
    if tokens[i + 1] != "(":
        raise grammar.expected("expected '(' after next", tokens[i + 1], where(i + 1))
    if not allow_next:
        raise ModelError(f"line {where(i)[0]}: next() is only allowed in TRANS expressions")
    if tokens[i + 2] is None or tokens[i + 2] in _PUNCT:
        raise grammar.expected("expected a variable name inside next()", tokens[i + 2], where(i + 2))
    if tokens[i + 3] != ")":
        raise grammar.expected("expected ')' after next(name", tokens[i + 3], where(i + 3))
    return grammar.node("next", (), tokens[i + 2]), i + 4


def _hash_cons():
    """A node builder ``(kind, operands, name=None) -> BoolExpr`` that
    returns one node per distinct kind, name and operands: a subterm built
    twice is one object.  Each parse makes its own, so parsed models share
    no node and a dropped model is freed.  The keys hold the operands' ids;
    the table keeps every node it built, the operands among them, alive as
    long as it is in use, so no id in a key is reused while it is."""
    table = {}

    def node(kind, operands, name=None):
        # a leaf has no operand, an operator no name and one or two operands
        key = (kind, id(operands[0]), id(operands[-1])) if operands else (kind, name)
        e = table.get(key)
        if e is None:
            e = table[key] = BoolExpr(kind, name, operands)
        return e

    return node


_CONSTANTS = frozenset(["true", "false"])
# ``node`` is set per parse to a table of its own (``_hash_cons``).
_EXPR = Grammar(
    binary=BINARY,
    unary=frozenset("!"),
    leaf=_expr_leaf,
    node=None,
    operands=attrgetter("args"),
    error=lambda message, line, col: ModelError(f"line {line}, column {col}: {message}"),
    missing="expected an expression",
    trailing="trailing input after expression",
    end="end of line",
)
_TRANS_EXPR = _EXPR._replace(leaf=partial(_expr_leaf, allow_next=True))


def parse_expr(text, line_no=1, allow_next=False):
    """The expression of ``text``, each distinct subterm one node."""
    return (_TRANS_EXPR if allow_next else _EXPR)._replace(node=_hash_cons()).parse(text, line_no)


def parse_model(text) -> SymbolicModel:
    """Parse the model file format; see the module docstring for the grammar.

    Every expression node of the model, the conjunction of its TRANS lines
    included, is built in one hash-consing table (``_hash_cons``), so a
    subterm written twice anywhere in the model is one node."""
    node = _hash_cons()
    expr, trans_expr = _EXPR._replace(node=node), _TRANS_EXPR._replace(node=node)
    vars_, inputs = [], []
    init_expr = None
    trans_exprs = []
    defines = []
    fairness = []
    spec_text = None
    define_names = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        code = raw.split("#", 1)[0].rstrip()
        line = code.lstrip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        at = len(code) - len(rest)  # where rest starts, so errors give columns of the line
        if head == "VAR":
            names = rest.split()
            if not names:
                raise ModelError(f"line {line_no}: VAR needs at least one name")
            for name in names:
                if name in vars_ or name in define_names:
                    raise ModelError(f"line {line_no}: duplicate name {name!r}")
                if name in RESERVED_NAMES:
                    raise ModelError(f"line {line_no}: {name!r} is reserved")
                if not _NAME.fullmatch(name):
                    raise ModelError(f"line {line_no}: bad VAR name {name!r}")
                vars_.append(name)
        elif head == "INPUT":
            inputs.extend(rest.split())
        elif head == "INIT":
            if init_expr is not None:
                raise ModelError(f"line {line_no}: duplicate INIT section")
            init_expr = expr.parse(code, line_no, at)
        elif head == "TRANS":
            trans_exprs.append(trans_expr.parse(code, line_no, at))
        elif head == "DEFINE":
            name, sep, body = rest.partition(":=")
            name = name.strip()
            if not sep:
                raise ModelError(f"line {line_no}: DEFINE needs 'name := expr'")
            if name in define_names or name in vars_:
                raise ModelError(f"line {line_no}: duplicate name {name!r}")
            if name in RESERVED_NAMES or not _NAME.fullmatch(name):
                raise ModelError(f"line {line_no}: bad DEFINE name {name!r}")
            define_names.add(name)
            defines.append((name, expr.parse(code, line_no, len(code) - len(body))))
        elif head == "FAIRNESS":
            fairness.append(expr.parse(code, line_no, at))
        elif head == "SPEC":
            if spec_text is not None:
                raise ModelError(f"line {line_no}: duplicate SPEC section")
            from .pltl import parse_formula  # imported here because pltl imports this module

            parse_formula(code, line_no, at)  # so a malformed SPEC is reported at its place in the file
            spec_text = rest
        else:
            raise ModelError(f"line {line_no}: unknown section {head!r}")

    if not vars_:
        raise ModelError("model declares no VAR")

    true = node("true", ())
    m = SymbolicModel(
        vars=tuple(vars_),
        init=true if init_expr is None else init_expr,
        trans=reduce(lambda a, b: node("&", (a, b)), trans_exprs or [true]),
        defines=tuple(defines),
        fairness=tuple(fairness),
        inputs=frozenset(inputs),
        spec_text=spec_text,
    )
    _validate(m)
    return m


def _validate(m):
    known = set(m.vars)
    define_map = dict(m.defines)

    for name in m.inputs:
        if name not in m.vars:
            raise ModelError(f"INPUT {name!r} is not a declared state variable")

    m.define_order  # defines are acyclic and name declared names only

    all_names = known | set(define_map)
    for label, expr in (
        ("INIT", m.init),
        ("TRANS", m.trans),
        *((f"FAIRNESS", e) for e in m.fairness),
    ):
        names, nexts = _names(expr)
        for ref in names:
            if ref not in all_names:
                raise ModelError(f"{label} references undefined name {ref!r}")
        for nxt in nexts:
            if nxt not in m.vars:
                raise ModelError(f"{label}: next({nxt}) must name a state variable")


def _names(expr):
    """The names ``expr`` reads in the current state and under next(), as
    two sets; defines are not expanded.  Each distinct node is visited
    once, so a shared subterm costs one visit."""
    names, nexts = set(), set()
    stack = [expr]
    seen = set()  # ids of the nodes whose operands are stacked; every node stays alive in expr
    while stack:
        e = stack.pop()
        if e.kind == "var":
            names.add(e.name)
        elif e.kind == "next":
            nexts.add(e.name)
        elif id(e) not in seen:
            seen.add(id(e))
            stack.extend(e.args)
    return names, nexts


# ---------------------------------------------------------------------------
# Gate programs
# ---------------------------------------------------------------------------

_OPERATORS = frozenset(("!", "&", "|", "->", "<->"))
_KINDS = _OPERATORS | {"var", "next", "true", "false"}


def compile_expr(expr, define_map):
    """Hash-consed post-order program of ``expr``, with defines inlined.

    The program is a tuple of steps ``(kind, x, y)``; step n computes slot
    n.  For ``var`` and ``next`` x is the variable name, for ``!`` x is the
    operand's slot, for the binary kinds x and y are the operands' slots.
    Structurally equal subexpressions share one slot, and the steps come in
    the order in which a left-to-right recursive walk first completes each
    distinct node, so replaying the program makes the walk's gate calls
    minus its repeats.  The root is the last step.  The walk uses an
    explicit stack, so long TRANS chains do not hit the recursion limit.
    """
    steps = []
    slot_of = {}  # step -> slot
    done = {}  # id(node) -> slot; every node stays alive in expr or define_map
    stack = [expr]
    while stack:
        e = stack[-1]
        if id(e) in done:
            stack.pop()
            continue
        k = e.kind
        if k == "var" and e.name in define_map:
            body = define_map[e.name]
            if id(body) in done:
                done[id(e)] = done[id(body)]
                stack.pop()
            else:
                stack.append(body)
            continue
        pending = [a for a in reversed(e.args) if id(a) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if k not in _KINDS:
            raise ModelError(f"unknown expression kind {k!r}")
        if k in ("var", "next"):
            step = (k, e.name, None)
        else:
            slots = [done[id(a)] for a in e.args] + [None, None]
            step = (k, slots[0], slots[1])
        slot = slot_of.get(step)
        if slot is None:
            slot = slot_of[step] = len(steps)
            steps.append(step)
        done[id(e)] = slot
    return tuple(steps)


def nary_program(prog):
    """``prog`` (``compile_expr``) with its single-use chains merged.

    An ``&`` or ``|`` step used exactly once, as an operand of a step of the
    same kind, is folded into that step, and so is a ``|`` step used
    exactly once, as the right operand of ``->``: ``x -> (y | z)`` becomes
    ``!x | y | z``.  A step with three or more inputs is
    ``(kind, slots, None)``; every other step keeps its ``compile_expr``
    form.  Equal steps still share one slot, so a subterm used twice stays
    one step, and the program has no more steps or inputs than ``prog``.
    Replaying it (``encode._expr_lit``) makes one n-ary gate per chain where
    ``prog`` makes one binary gate per operator (after Een, Mishchenko and
    Soerensson, *Applying logic synthesis for speeding up SAT*, SAT 2007).
    """
    uses = [0] * len(prog)
    for k, x, y in prog:
        if k in _OPERATORS:
            uses[x] += 1
            if y is not None:
                uses[y] += 1
    folded = [False] * len(prog)
    for k, x, y in prog:
        if k == "&" or k == "|":
            for a in (x, y):
                if prog[a][0] == k and uses[a] == 1:
                    folded[a] = True
        elif k == "->" and prog[y][0] == "|" and uses[y] == 1:
            folded[y] = True
    out = []
    index = {}  # step -> its slot in out
    slot = [None] * len(prog)  # slot in prog -> slot in out

    def emit(step):
        s = index.get(step)
        if s is None:
            s = index[step] = len(out)
            out.append(step)
        return s

    for n, (k, x, y) in enumerate(prog):
        if folded[n]:
            continue
        if k == "&" or k == "|" or (k == "->" and folded[y]):
            # the inputs left to right, through the folded operands
            ins, stack = [], [y, x]
            if k == "->":
                k = "|"
                ins.append(emit(("!", slot[stack.pop()], None)))
            while stack:
                a = stack.pop()
                if folded[a]:
                    _, ax, ay = prog[a]
                    stack += (ay, ax)
                else:
                    ins.append(slot[a])
            step = (k, ins[0], ins[1]) if len(ins) == 2 else (k, tuple(ins), None)
        elif k in _OPERATORS:
            step = (k, slot[x], None if y is None else slot[y])
        else:
            step = (k, x, y)
        slot[n] = emit(step)
    return tuple(out)


def substitute(expr, leaf, define_map=None):
    """Rebuild ``expr`` by replaying its gate program (see ``compile_expr``).

    ``leaf(kind, name)`` supplies the node of each ``var`` and ``next``
    step; defines in ``define_map`` are inlined first.  Structurally equal
    subexpressions come out as one shared node.
    """
    nodes = []
    for k, x, y in compile_expr(expr, define_map or {}):
        if k in ("var", "next"):
            nodes.append(leaf(k, x))
        else:
            nodes.append(BoolExpr(k, args=tuple(nodes[s] for s in (x, y) if s is not None)))
    return nodes[-1]


def _next_leaf(kind, name):
    if kind == "next":
        raise ModelError("next() inside a state expression")
    return bnext(name)


def shift(expr, define_map):
    """The state expression ``expr`` with defines inlined and every variable
    replaced by its next-state copy."""
    return substitute(expr, _next_leaf, define_map)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(expr, cur, nxt=None, defines=None):
    """Evaluate over bool mappings; ``defines`` resolves macro names.

    ``&``, ``|`` and ``->`` short-circuit left to right.  The walk uses an
    explicit stack of pending nodes and operator continuations, so long
    TRANS chains do not hit the recursion limit.  The value of each
    operator node is kept by ``id`` once computed, so a node shared in a
    DAG (a hash-consed model, a ``shift`` with defines inlined) is
    evaluated once per call.
    """
    define_map = defines or {}
    if not isinstance(define_map, dict):
        define_map = dict(define_map)
    memo = {}  # id(operator node) -> its value; every node stays alive in expr or define_map
    todo = [expr]  # nodes to evaluate and (operator, right operand, operator node) continuations
    vals = []
    while todo:
        e = todo.pop()
        if e.__class__ is tuple:  # on vals: the left operand's value, or the right's if op is None
            op, right, node = e
            v = vals.pop()
            if op == "!":
                v = not v
            elif op == "<->":
                v = vals.pop() == v
            elif op == "->" and not v:
                v = True
            elif op is not None and not (op == "&" and not v or op == "|" and v):
                # the right operand decides
                todo.append((None, None, node))
                todo.append(right)
                continue
            memo[id(node)] = v
            vals.append(v)
            continue
        k = e.kind
        if k == "var":
            if e.name in cur:
                vals.append(cur[e.name])
            elif e.name in define_map:
                todo.append(define_map[e.name])
            else:
                raise ModelError(f"unknown name {e.name!r}")
        elif k == "next":
            if nxt is None:
                raise ModelError("next() evaluated without a next state")
            vals.append(nxt[e.name])
        elif k == "true":
            vals.append(True)
        elif k == "false":
            vals.append(False)
        elif id(e) in memo:
            vals.append(memo[id(e)])
        elif k == "!":
            todo.append(("!", None, e))
            todo.append(e.args[0])
        elif k == "<->":
            todo.append(("<->", None, e))
            todo.append(e.args[1])
            todo.append(e.args[0])
        elif k in ("&", "|", "->"):
            todo.append((k, e.args[1], e))
            todo.append(e.args[0])
        else:
            raise ModelError(f"unknown expression kind {k!r}")
    return vals[0]


def eval_expr_np(expr, cur, nxt=None, defines=None):
    """Vectorised evaluation; ``cur``/``nxt`` map names to bool ndarrays.

    Two passes over the distinct nodes of ``expr``, with defines expanded
    (a name in ``cur`` shadows a define): the first lists them operands
    first, on an explicit stack, and counts the reads of each; the second
    evaluates each node once, in that order, and drops a node's array when
    its last reader has read it.  So a node shared in a DAG costs one
    array operation, each define is evaluated once per call, long TRANS
    chains do not hit the recursion limit, and no intermediate array is
    kept longer than a reader needs it.
    """
    define_map = defines or {}
    if not isinstance(define_map, dict):
        define_map = dict(define_map)
    operands = {}  # id(node) -> its operands, once they are stacked; a define's name reads its body
    reads = {}  # id(node) -> how many operands of distinct nodes it is
    order = []  # (node, its operands) per distinct node, operands first
    done = set()  # ids of the nodes in order
    stack = [expr]
    while stack:  # every node stays alive in expr or define_map, so no id is reused
        e = stack[-1]
        args = operands.get(id(e))
        if args is None:
            if e.kind == "var" and e.name not in cur:
                if e.name not in define_map:
                    raise ModelError(f"unknown name {e.name!r}")
                args = (define_map[e.name],)
            elif e.kind == "next" and nxt is None:
                raise ModelError("next() evaluated without a next state")
            else:
                args = e.args
            operands[id(e)] = args
            for a in args:
                reads[id(a)] = reads.get(id(a), 0) + 1
            stack.extend(a for a in reversed(args) if id(a) not in operands)
            continue
        stack.pop()
        if id(e) not in done:
            done.add(id(e))
            order.append((e, args))
    vals = {}  # id(node) -> its array, until its last reader has read it
    for e, args in order:
        xs = [vals[id(a)] for a in args]
        for a in args:
            reads[id(a)] -= 1
            if not reads[id(a)]:
                del vals[id(a)]
        k = e.kind
        if k == "var":
            v = xs[0] if xs else cur[e.name]
        elif k == "next":
            v = nxt[e.name]
        elif k == "true":
            v = np.True_
        elif k == "false":
            v = np.False_
        elif k == "!":
            v = ~xs[0]
        elif k == "&":
            v = xs[0] & xs[1]
        elif k == "|":
            v = xs[0] | xs[1]
        elif k == "->":
            v = ~xs[0] | xs[1]
        elif k == "<->":
            v = ~(xs[0] ^ xs[1])
        else:
            raise ModelError(f"unknown expression kind {k!r}")
        vals[id(e)] = v
    return vals[id(expr)]


# ---------------------------------------------------------------------------
# Explicit expansion
# ---------------------------------------------------------------------------


@dataclass
class ExplicitModel:
    """All 2^n valuations of a model, with labels, edges, and fair sets.

    State ``s`` assigns variable ``vars[j]`` the bit ``(s >> j) & 1``.
    """

    var_names: tuple
    define_names: tuple
    nstates: int
    initial: tuple
    succ: tuple  # per state, sorted tuple of successor states
    labels: tuple  # per state, frozenset of true var/define names
    fair_sets: tuple  # per acceptance set, frozenset of states

    def assignment(self, state):
        return {v: bool((state >> j) & 1) for j, v in enumerate(self.var_names)}

    def names(self):
        return set(self.var_names) | set(self.define_names)


def state_count(m: SymbolicModel, max_bits=16) -> int:
    """Number of valuations of ``m``; raises if it has more than ``max_bits`` bits."""
    n = len(m.vars)
    if n > max_bits:
        raise ModelError(f"model has {n} state bits, limit is {max_bits}")
    return 1 << n


def valuations(var_names, states):
    """Per variable, its bool value in each of ``states`` (an int ndarray).

    State ``s`` assigns variable ``var_names[j]`` the bit ``(s >> j) & 1``.
    """
    return {v: ((states >> j) & 1).astype(bool) for j, v in enumerate(var_names)}


def successors(m: SymbolicModel, states, require_total=True) -> list:
    """Per state of ``states``, in order, the sorted tuple of its successors.

    TRANS is evaluated with the given states as current rows against all
    2^n next valuations, in chunks so that rows x next valuations stays
    bounded in memory.  A state without successors raises
    ``TotalityError`` unless ``require_total`` is false.
    """
    nstates = 1 << len(m.vars)
    states = np.asarray(states, dtype=np.int64)
    everything = np.arange(nstates, dtype=np.int64)
    nxt = {v: a.reshape(1, nstates) for v, a in valuations(m.vars, everything).items()}
    chunk = max(1, (1 << 22) // nstates)
    out = []
    for lo in range(0, len(states), chunk):
        rows = states[lo : lo + chunk]
        cur = {v: a.reshape(-1, 1) for v, a in valuations(m.vars, rows).items()}
        mat = np.broadcast_to(eval_expr_np(m.trans, cur, nxt, m.define_map), (len(rows), nstates))
        row_of, cols = np.nonzero(mat)  # row-major: each row's columns ascend
        counts = np.bincount(row_of, minlength=len(rows))
        if require_total and not counts.all():
            dead = int(rows[np.argmin(counts)])
            raise TotalityError(_describe_state(m.vars, dead))
        cols = cols.tolist()
        pos = 0
        for c in counts.tolist():
            out.append(tuple(cols[pos : pos + c]))
            pos += c
    return out


def explicit_expand(m: SymbolicModel, max_bits=16, require_total=True) -> ExplicitModel:
    """Enumerate all valuations of ``m`` and build the explicit structure.

    Totality of the transition relation is checked eagerly unless
    ``require_total`` is false (useful for automata whose dead valuations are
    never part of a fair path).
    """
    nstates = state_count(m, max_bits)
    define_map = m.define_map
    idx = np.arange(nstates, dtype=np.int64)
    cur = valuations(m.vars, idx)

    # each define once, after the defines it reads: their masks shadow their bodies
    label_masks = dict(cur)
    for name in m.define_order:
        mask = eval_expr_np(define_map[name], label_masks, None, define_map)
        label_masks[name] = np.broadcast_to(mask, (nstates,))
    init_mask = np.broadcast_to(eval_expr_np(m.init, label_masks, None, define_map), (nstates,))

    fair_sets = []
    for expr in m.fairness:
        mask = np.broadcast_to(eval_expr_np(expr, label_masks, None, define_map), (nstates,))
        fair_sets.append(frozenset(int(s) for s in np.nonzero(mask)[0]))

    succ = successors(m, idx, require_total)

    labels = []
    for s in range(nstates):
        labels.append(frozenset(name for name, mask in label_masks.items() if mask[s]))

    return ExplicitModel(
        var_names=m.vars,
        define_names=tuple(n for n, _ in m.defines),
        nstates=nstates,
        initial=tuple(int(s) for s in np.nonzero(init_mask)[0]),
        succ=tuple(succ),
        labels=tuple(labels),
        fair_sets=tuple(fair_sets),
    )


def _describe_state(var_names, state):
    return " ".join(f"{v}={(state >> j) & 1}" for j, v in enumerate(var_names))


def reachable_states(em: ExplicitModel) -> set:
    seen = set(em.initial)
    frontier = list(em.initial)
    while frontier:
        s = frontier.pop()
        for t in em.succ[s]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


# ---------------------------------------------------------------------------
# Variable optimisation support
# ---------------------------------------------------------------------------


def input_vars_irrelevant_for_fairness(m: SymbolicModel) -> frozenset:
    """Declared inputs that fairness cannot observe and TRANS never constrains.

    A sound syntactic under-approximation: the variable must not occur in any
    fairness expression after define expansion and must never appear under
    next() in TRANS.
    """
    seen = _names(m.trans)[1]
    seen |= {x for program in m.fairness_programs for k, x, _ in program if k == "var"}
    return frozenset(v for v in m.inputs if v not in seen)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def expr_to_text(e, parent_prec=-1):
    """Text of ``e`` with the parentheses its precedence needs."""
    return _EXPR.format(e, parent_prec)


def model_to_text(m: SymbolicModel) -> str:
    lines = []
    lines.append("VAR " + " ".join(m.vars))
    if m.inputs:
        lines.append("INPUT " + " ".join(sorted(m.inputs)))
    for name, expr in m.defines:
        lines.append(f"DEFINE {name} := {expr_to_text(expr)}")
    lines.append(f"INIT {expr_to_text(m.init)}")
    lines.append(f"TRANS {expr_to_text(m.trans)}")
    for expr in m.fairness:
        lines.append(f"FAIRNESS {expr_to_text(expr)}")
    if m.spec_text is not None:
        lines.append(f"SPEC {m.spec_text}")
    return "\n".join(lines) + "\n"
