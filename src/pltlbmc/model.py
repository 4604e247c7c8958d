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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np


class ModelError(Exception):
    """Malformed model text or inconsistent declarations."""


class TotalityError(ModelError):
    """A state without successors was found during explicit expansion."""

    def __init__(self, state_desc):
        super().__init__(f"transition relation is not total: state {state_desc} has no successor")
        self.state_desc = state_desc


@dataclass(frozen=True)
class BoolExpr:
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

    def names(self):
        return set(self.vars) | {n for n, _ in self.defines}

    # Gate programs (see ``compile_expr``) of the model's expressions, each
    # compiled at its first lowering and kept on the model with it.

    @cached_property
    def init_program(self):
        return compile_expr(self.init, self.define_map)

    @cached_property
    def trans_program(self):
        return compile_expr(self.trans, self.define_map)

    @cached_property
    def fairness_programs(self):
        return tuple(compile_expr(e, self.define_map) for e in self.fairness)

    @cached_property
    def _define_programs(self):
        return {}

    def define_program(self, name):
        prog = self._define_programs.get(name)
        if prog is None:
            prog = compile_expr(self.define_map[name], self.define_map)
            self._define_programs[name] = prog
        return prog


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789=")


def _tokenize_expr(text, line_no):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t":
            i += 1
            continue
        col = i + 1
        if c in _IDENT_START:
            j = i
            while j < n and text[j] in _IDENT_CONT:
                j += 1
            tokens.append(("ident", text[i:j], line_no, col))
            i = j
        elif c == "(":
            tokens.append(("(", c, line_no, col))
            i += 1
        elif c == ")":
            tokens.append((")", c, line_no, col))
            i += 1
        elif c == "!":
            tokens.append(("op", "!", line_no, col))
            i += 1
        elif c == "&":
            tokens.append(("op", "&", line_no, col))
            i += 1
        elif c == "|":
            tokens.append(("op", "|", line_no, col))
            i += 1
        elif c == "-" and text[i : i + 2] == "->":
            tokens.append(("op", "->", line_no, col))
            i += 2
        elif c == "<" and text[i : i + 3] == "<->":
            tokens.append(("op", "<->", line_no, col))
            i += 3
        else:
            raise ModelError(f"line {line_no}, column {col}: unexpected character {c!r}")
    tokens.append(("eof", None, line_no, n + 1))
    return tokens


class _ExprParser:
    """Boolean expressions with the same precedence ladder as formulas."""

    def __init__(self, text, line_no, allow_next):
        self.tokens = _tokenize_expr(text, line_no)
        self.pos = 0
        self.allow_next = allow_next

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message):
        kind, value, line, col = self.peek()
        shown = value if value is not None else "end of line"
        raise ModelError(f"line {line}, column {col}: {message}, got {shown!r}")

    def parse(self):
        e = self.parse_iff()
        if self.peek()[0] != "eof":
            self.error("trailing input after expression")
        return e

    def parse_iff(self):
        left = self.parse_imp()
        if self.peek()[:2] == ("op", "<->"):
            self.advance()
            return biff(left, self.parse_iff())
        return left

    def parse_imp(self):
        left = self.parse_or()
        if self.peek()[:2] == ("op", "->"):
            self.advance()
            return bimp(left, self.parse_imp())
        return left

    def parse_or(self):
        left = self.parse_and()
        while self.peek()[:2] == ("op", "|"):
            self.advance()
            left = bor(left, self.parse_and())
        return left

    def parse_and(self):
        left = self.parse_unary()
        while self.peek()[:2] == ("op", "&"):
            self.advance()
            left = band(left, self.parse_unary())
        return left

    def parse_unary(self):
        if self.peek()[:2] == ("op", "!"):
            self.advance()
            return bnot(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        kind, value, line, col = self.peek()
        if kind == "ident":
            self.advance()
            if value == "true":
                return BTRUE
            if value == "false":
                return BFALSE
            if value == "next":
                if self.peek()[0] != "(":
                    self.error("expected '(' after next")
                if not self.allow_next:
                    raise ModelError(f"line {line}: next() is only allowed in TRANS expressions")
                self.advance()
                name_tok = self.peek()
                if name_tok[0] != "ident":
                    self.error("expected a variable name inside next()")
                self.advance()
                if self.peek()[0] != ")":
                    self.error("expected ')' after next(name")
                self.advance()
                return bnext(name_tok[1])
            return bvar(value)
        if kind == "(":
            self.advance()
            e = self.parse_iff()
            if self.peek()[0] != ")":
                self.error("expected ')'")
            self.advance()
            return e
        self.error("expected an expression")


def parse_expr(text, line_no=1, allow_next=False):
    return _ExprParser(text, line_no, allow_next).parse()


def parse_model(text) -> SymbolicModel:
    """Parse the model file format; see the module docstring for the grammar."""
    vars_, inputs = [], []
    init_expr = None
    trans_exprs = []
    defines = []
    fairness = []
    spec_text = None
    define_names = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        head = parts[0]
        rest = parts[1].strip() if len(parts) > 1 else ""
        if head == "VAR":
            names = rest.split()
            if not names:
                raise ModelError(f"line {line_no}: VAR needs at least one name")
            for name in names:
                if name in vars_ or name in define_names:
                    raise ModelError(f"line {line_no}: duplicate name {name!r}")
                if name in ("next", "true", "false"):
                    raise ModelError(f"line {line_no}: {name!r} is reserved")
                vars_.append(name)
        elif head == "INPUT":
            inputs.extend(rest.split())
        elif head == "INIT":
            if init_expr is not None:
                raise ModelError(f"line {line_no}: duplicate INIT section")
            init_expr = parse_expr(rest, line_no, allow_next=False)
        elif head == "TRANS":
            trans_exprs.append(parse_expr(rest, line_no, allow_next=True))
        elif head == "DEFINE":
            name, sep, body = rest.partition(":=")
            name = name.strip()
            if not sep:
                raise ModelError(f"line {line_no}: DEFINE needs 'name := expr'")
            if name in define_names or name in vars_:
                raise ModelError(f"line {line_no}: duplicate name {name!r}")
            if not name or name in ("next", "true", "false"):
                raise ModelError(f"line {line_no}: bad DEFINE name {name!r}")
            define_names.add(name)
            defines.append((name, parse_expr(body, line_no, allow_next=False)))
        elif head == "FAIRNESS":
            fairness.append(parse_expr(rest, line_no, allow_next=False))
        elif head == "SPEC":
            if spec_text is not None:
                raise ModelError(f"line {line_no}: duplicate SPEC section")
            spec_text = rest
        else:
            raise ModelError(f"line {line_no}: unknown section {head!r}")

    if not vars_:
        raise ModelError("model declares no VAR")

    m = SymbolicModel(
        vars=tuple(vars_),
        init=init_expr if init_expr is not None else BTRUE,
        trans=band_all(trans_exprs),
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

    # Defines must be acyclic and reference earlier names only.
    state = {}

    def visit(name):
        if state.get(name) == 2:
            return
        if state.get(name) == 1:
            raise ModelError(f"cyclic DEFINE involving {name!r}")
        state[name] = 1
        for ref in _referenced_names(define_map[name]):
            if ref in define_map:
                visit(ref)
            elif ref not in known:
                raise ModelError(f"DEFINE {name!r} references undefined name {ref!r}")
        state[name] = 2

    for name in define_map:
        visit(name)

    all_names = known | set(define_map)
    for label, expr in (
        ("INIT", m.init),
        ("TRANS", m.trans),
        *((f"FAIRNESS", e) for e in m.fairness),
    ):
        for ref in _referenced_names(expr):
            if ref not in all_names:
                raise ModelError(f"{label} references undefined name {ref!r}")
        for nxt in _next_names(expr):
            if nxt not in m.vars:
                raise ModelError(f"{label}: next({nxt}) must name a state variable")


def _referenced_names(expr):
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.kind == "var":
            out.add(e.name)
        stack.extend(e.args)
    return out


def _next_names(expr):
    out = set()
    stack = [expr]
    while stack:
        e = stack.pop()
        if e.kind == "next":
            out.add(e.name)
        stack.extend(e.args)
    return out


def referenced_names_expanded(expr, defines) -> set:
    """Names of state variables occurring in ``expr`` after define expansion."""
    define_map = dict(defines) if not isinstance(defines, dict) else defines
    out = set()
    seen = set()

    def walk(e):
        if e.kind in ("var", "next"):
            if e.name in define_map:
                if e.name not in seen:
                    seen.add(e.name)
                    walk(define_map[e.name])
            else:
                out.add(e.name)
            return
        for a in e.args:
            walk(a)

    walk(expr)
    return out


def expand_defines(expr, define_map):
    """Substitute define bodies for define names, recursively."""
    k = expr.kind
    if k == "var" and expr.name in define_map:
        return expand_defines(define_map[expr.name], define_map)
    if expr.args:
        return BoolExpr(k, name=expr.name, args=tuple(expand_defines(a, define_map) for a in expr.args))
    return expr


def to_next(expr):
    """Substitute every variable of a state expression by its next-state copy."""
    k = expr.kind
    if k == "var":
        return bnext(expr.name)
    if k == "next":
        raise ModelError("next() inside a state expression")
    if k in ("true", "false"):
        return expr
    return BoolExpr(k, args=tuple(to_next(a) for a in expr.args))


# ---------------------------------------------------------------------------
# Gate programs
# ---------------------------------------------------------------------------

_KINDS = frozenset(("var", "next", "true", "false", "!", "&", "|", "->", "<->"))


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


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(expr, cur, nxt=None, defines=None):
    """Evaluate over bool mappings; ``defines`` resolves macro names.

    ``&``, ``|`` and ``->`` short-circuit left to right.  The walk uses an
    explicit stack of pending nodes and operator continuations, so long
    TRANS chains do not hit the recursion limit.
    """
    define_map = defines or {}
    if not isinstance(define_map, dict):
        define_map = dict(define_map)
    todo = [expr]  # nodes to evaluate and (operator, right operand) pairs
    vals = []
    while todo:
        e = todo.pop()
        if e.__class__ is tuple:  # the left operand's value is on vals
            op, right = e
            v = vals.pop()
            if op == "!":
                vals.append(not v)
            elif op == "<->":
                vals.append(vals.pop() == v)
            elif op == "&" and not v:
                vals.append(v)
            elif op == "|" and v:
                vals.append(v)
            elif op == "->" and not v:
                vals.append(True)
            else:  # the right operand decides
                todo.append(right)
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
        elif k == "!":
            todo.append(("!", None))
            todo.append(e.args[0])
        elif k == "<->":
            todo.append(("<->", None))
            todo.append(e.args[1])
            todo.append(e.args[0])
        elif k in ("&", "|", "->"):
            todo.append((k, e.args[1]))
            todo.append(e.args[0])
        else:
            raise ModelError(f"unknown expression kind {k!r}")
    return vals[0]


def eval_expr_np(expr, cur, nxt=None, defines=None):
    """Vectorised evaluation; ``cur``/``nxt`` map names to bool ndarrays.

    Each define is evaluated once per call.  The walk is post-order over an
    explicit stack: operands are pushed, then the operator that consumes
    them, so long TRANS chains do not hit the recursion limit and every
    intermediate array is freed as soon as its operator has used it.
    """
    define_map = defines or {}
    if not isinstance(define_map, dict):
        define_map = dict(define_map)
    cache = {}
    todo = [expr]  # nodes, operator kinds (str), and (define name,) markers
    vals = []
    while todo:
        e = todo.pop()
        if e.__class__ is str:  # the operands' values are on top of vals
            b = vals.pop()
            if e == "!":
                vals.append(~b)
                continue
            a = vals.pop()
            if e == "&":
                vals.append(a & b)
            elif e == "|":
                vals.append(a | b)
            elif e == "->":
                vals.append(~a | b)
            else:
                vals.append(~(a ^ b))
            continue
        if e.__class__ is tuple:  # a define's body has just been evaluated
            cache[e[0]] = vals[-1]
            continue
        k = e.kind
        if k == "var":
            if e.name in cur:
                vals.append(cur[e.name])
            elif e.name in cache:
                vals.append(cache[e.name])
            elif e.name in define_map:
                todo.append((e.name,))
                todo.append(define_map[e.name])
            else:
                raise ModelError(f"unknown name {e.name!r}")
        elif k == "next":
            if nxt is None:
                raise ModelError("next() evaluated without a next state")
            vals.append(nxt[e.name])
        elif k == "true":
            vals.append(np.True_)
        elif k == "false":
            vals.append(np.False_)
        elif k in ("!", "&", "|", "->", "<->"):
            todo.append(k)
            todo.extend(reversed(e.args))
        else:
            raise ModelError(f"unknown expression kind {k!r}")
    return vals[0]


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

    init_mask = np.broadcast_to(eval_expr_np(m.init, cur, None, define_map), (nstates,))
    label_masks = dict(cur)
    for name, expr in m.defines:
        label_masks[name] = np.broadcast_to(eval_expr_np(expr, cur, None, define_map), (nstates,))

    fair_sets = []
    for expr in m.fairness:
        mask = np.broadcast_to(eval_expr_np(expr, cur, None, define_map), (nstates,))
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
    define_map = dict(m.defines)
    constrained = _next_names(m.trans)
    fair_names = set()
    for expr in m.fairness:
        fair_names |= referenced_names_expanded(expr, define_map)
    return frozenset(
        v for v in m.inputs if v not in constrained and v not in fair_names
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_EXPR_PREC = {"<->": 0, "->": 1, "|": 2, "&": 3}


def expr_to_text(e, parent_prec=-1):
    """Text of ``e`` with the parentheses its precedence needs.

    Pieces are emitted left to right from an explicit stack, so long TRANS
    chains do not hit the recursion limit.
    """
    out = []
    todo = [(e, parent_prec)]  # (node, parent precedence) pairs and literal pieces
    while todo:
        item = todo.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        e, parent_prec = item
        k = e.kind
        if k == "var":
            out.append(e.name)
        elif k == "next":
            out.append(f"next({e.name})")
        elif k in ("true", "false"):
            out.append(k)
        elif k == "!":
            out.append("!")
            todo.append((e.args[0], 5))
        else:
            prec = _EXPR_PREC[k]
            left, right = (prec, prec + 1) if k in ("&", "|") else (prec + 1, prec)
            pieces = [(e.args[0], left), f" {k} ", (e.args[1], right)]
            if prec < parent_prec:
                pieces = ["(", *pieces, ")"]
            todo.extend(reversed(pieces))
    return "".join(out)


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
