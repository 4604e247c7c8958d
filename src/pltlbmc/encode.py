"""Bounded model checking encodings.

All encoders share a :class:`TimedVarMap`, the registry from timed roles
(state bits s_i, loop selectors l_i, InLoop_i, LoopExists, formula variables
indexed by subformula, time and unrolling depth, and the auxiliary chains)
to solver variables.  Requests for a formula variable above the subformula's
unrolling cap alias down to the cap, which realises virtual unrolling.

Monolithic encoders take ``(m, psi, k, b, vm)``, write their gates and
clauses into the builder's solver, and return their witness literal, whose
assertion makes the solver search for a witness of bound k: the root of
the fixpoint circuit, or the goal of a constraint-style scheme.  The
unrolling cap is ``vm.d_max``.  Their clauses hold whether or not that
literal is asserted, so a caller always asserts it
(``check.encode_bound``).  Each begins with the model unrolling
(``unroll_model``), of which the map may already hold a prefix; the driver
keeps one unrolling per run and encodes each bound on a copy.  The
constraint-style schemes (pltl, eventuality, buchi, general-buchi) differ
only in their chains: ``CONSTRAINT_SCHEMES`` maps each to its chain style,
which gives a list of ``Chain`` records, and both the monolithic encoder
and the incremental one iterate that list.  The incremental encoder keeps
one growing solver and adds its clauses to it directly; constraints that
mention the current bound are guarded by per-bound activation literals so
that moving to a larger bound never deletes clauses: it retires the stale
activator with a negative unit.

An asserted constraint is its clauses, never a gate (Plaisted and
Greenbaum, 1986): an implication a -> b is the clause [-a, b], a
definition v <-> x the clauses [-v, x] and [v, -x], and a guarded equality
g -> (x <-> y) the clauses [-g, -x, y] and [-g, x, -y] (``_guarded_equal``).
Only the subterms x of a definition are gates.  Every helper writes through
a clause sink ``add`` and returns nothing: the model unrolling asserts each
step, and the unrolling rules of the formula variables, the sticky
accumulators, InLoop_i, LoopExists, the loop step, the binding of index k+1
and the chain ends are all clauses, as are the bindings of each bound and
the loop proxies in the session, where a gate would also stay a free
variable after its guard retires, for every later query to assign again.
The model unrolling (``unroll_model``) and the loop selector step
(``_loop_step``) are the same for both kinds of encoder.  The simple path
constraint of the termination check belongs to the session alone, which
adds it lazily, one pair of positions at a time, behind one guard literal.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

from .pltl import Formula, closure, memoised, past_depth
from .model import SymbolicModel, ModelError
from .sat import SAT, CircuitBuilder, Solver

E_INDEX = "E"
L_INDEX = "L"


class EncodeError(Exception):
    pass


class PastOperatorError(EncodeError):
    """An LTL-only scheme was given a formula with past operators."""


class UnresolvedAtomError(EncodeError):
    pass


class TimedVarMap:
    """Bijection from (role, subformula, time, unrolling) to solver variables.

    ``lits`` is the registry, keyed by role tuples: ("state", i, name),
    ("loopsel", i), ("inloop", i), ("loopexists",), ("formula", fid, i, d),
    ("aux", role, key, i) and ("activation", k).  Each accessor makes its
    variable on first request; l_0 and InLoop_0 are constant false."""

    def __init__(self, builder: CircuitBuilder, d_max=None):
        if d_max is not None and d_max < 0:
            raise EncodeError(
                f"d_max must be a non-negative integer or None for full unrolling, got {d_max}"
            )
        self.b = builder
        self.d_max = d_max
        self.lits = {}
        self.steps = []  # literals of I(s_0), T(s_0, s_1), ... (``unroll_model``)

    def copy(self) -> "TimedVarMap":
        """The same map over a copy of its builder and solver
        (``CircuitBuilder.copy``); what either adds leaves the other as it
        was."""
        c = TimedVarMap(self.b.copy(), self.d_max)
        c.lits = self.lits.copy()
        c.steps = self.steps.copy()
        return c

    def dcap(self, f: Formula) -> int:
        if self.d_max is None:
            return past_depth(f)
        return min(self.d_max, past_depth(f))

    def _lit(self, key) -> int:
        v = self.lits.get(key)
        if v is None:
            v = self.b.var()
            self.lits[key] = v
        return v

    def state_bit(self, i, name) -> int:
        return self._lit(("state", i, name))

    def loop_sel(self, i) -> int:
        if i == 0:
            return self.b.FALSE
        return self._lit(("loopsel", i))

    def in_loop(self, i) -> int:
        if i == 0:
            return self.b.FALSE
        return self._lit(("inloop", i))

    def loop_exists(self) -> int:
        return self._lit(("loopexists",))

    def fvar(self, f: Formula, i, d) -> int:
        return self._lit(("formula", f.fid, i, min(d, self.dcap(f))))

    def aux_var(self, role, key, i) -> int:
        return self._lit(("aux", role, key, i))

    def activation_lit(self, k) -> int:
        return self._lit(("activation", k))


# ---------------------------------------------------------------------------
# Model constraints
# ---------------------------------------------------------------------------


def _expr_lit(b, vm, prog, i, j=None):
    """Replay a model expression's n-ary gate program
    (``model.nary_program``) at time i; next() refers to time j.  Each step
    makes at most one builder call: a merged ``&`` or ``|`` chain is one
    ``and_`` or ``or_`` over all its inputs, and a subterm used twice is
    lowered once."""
    state_bit = vm.state_bit
    vals = []
    push = vals.append
    for op, x, y in prog:
        if op == "&":
            push(b.and_(vals[x], vals[y]) if y is not None else b.and_(*[vals[s] for s in x]))
        elif op == "!":
            push(-vals[x])
        elif op == "var":
            push(state_bit(i, x))
        elif op == "next":
            if j is None:
                raise ModelError("next() outside a transition expression")
            push(state_bit(j, x))
        elif op == "|":
            push(b.or_(vals[x], vals[y]) if y is not None else b.or_(*[vals[s] for s in x]))
        elif op == "->":
            push(b.or_(-vals[x], vals[y]))
        elif op == "<->":
            push(b.iff(vals[x], vals[y]))
        elif op == "true":
            push(b.TRUE)
        else:
            push(b.FALSE)
    return vals[-1]


def atom_lit(b, vm, m, name, i) -> int:
    """Literal for an atomic proposition at time i (variable or define)."""
    if name in m.define_map:
        return _expr_lit(b, vm, m.define_program(name), i)
    if name in m.vars:
        return vm.state_bit(i, name)
    raise UnresolvedAtomError(f"atom {name!r} is neither a variable nor a define")


def unroll_model(m: SymbolicModel, k, b, vm):
    """Assert I(s_0) and T(s_{i-1}, s_i) for i = 1..k into the builder's
    solver, each step as it is lowered; ``vm.steps`` keeps their literals.

    Every monolithic encoder calls this first, right after the builder's
    TRUE variable.  The steps not yet in ``vm.steps`` are lowered after the
    ones that are, so a map unrolled bound by bound holds the same gates,
    clauses and variable numbers as one unrolled to k at once, and a copy
    of a map unrolled to k (``TimedVarMap.copy``) encodes bound k to the
    same CNF as a fresh map."""
    steps, add = vm.steps, b.solver.add_clause
    if not steps:
        steps.append(_expr_lit(b, vm, m.init_program, 0))
        add([steps[0]])
    for i in range(len(steps), k + 1):
        steps.append(_expr_lit(b, vm, m.trans_program, i - 1, i))
        add([steps[i]])


def _guarded_equal(add, g, xs, ys):
    """Add g -> (x <-> y) for each pair of ``xs`` and ``ys`` through the
    clause sink ``add``, as the two clauses [-g, -x, y] and [-g, x, -y]
    (Plaisted and Greenbaum, *A structure-preserving clause form
    translation*, 1986), or x <-> y itself, as [-x, y] and [x, -y], when
    ``g`` is None: no gate variable, so a retired guard leaves no free
    variable behind.  A pair with x == y needs no clause, and a repeated
    pair is written once."""
    guard = [] if g is None else [-g]
    for x, y in dict.fromkeys(zip(xs, ys)):
        if x != y:
            add(guard + [-x, y])
            add(guard + [x, -y])


def _loop_step(add, b, vm, model_vars, i, end):
    """The loop selector constraints of position i >= 1, through the clause
    sink ``add``.  A true l_i commits the path to a loop back to i by
    forcing s_{i-1} = s_end bitwise, no selector holds after the first one,
    and InLoop_i <-> InLoop_{i-1} | l_i.  ``end`` is the bound itself for
    monolithic encodings and the end proxy for the incremental one."""
    li = vm.loop_sel(i)
    _guarded_equal(add, li, [vm.state_bit(i - 1, n) for n in model_vars], [vm.state_bit(end, n) for n in model_vars])
    if i > 1:
        add([-vm.in_loop(i - 1), -li])
    _guarded_equal(add, None, [vm.in_loop(i)], [b.or_(vm.in_loop(i - 1), li)])


def encode_loop_constraints(k, b, vm, model_vars):
    """Loop selector machinery for bound k, into the builder's solver: the
    ``_loop_step`` of every position 1..k, l_0 and InLoop_0 false, and
    LoopExists <-> InLoop_k."""
    add = b.solver.add_clause
    for i in range(1, k + 1):
        _loop_step(add, b, vm, model_vars, i, k)
    _guarded_equal(add, None, [vm.loop_exists()], [vm.in_loop(k)])


# ---------------------------------------------------------------------------
# Fixpoint evaluation encoding (pure circuit, future only)
# ---------------------------------------------------------------------------


def encode_ltl_fixpoint(m: SymbolicModel, psi: Formula, k, b, vm) -> int:
    """Recursive circuit translation with auxiliary fixpoint approximations.

    Until and release at the last position dispatch through the loop
    selectors into an auxiliary translation that under-approximates least
    fixpoints and over-approximates greatest fixpoints, which is exact at
    the loop point.  The translation of (subformula, position) pairs runs
    on ``memoised``'s explicit stack, in the order of the plain recursion.
    """
    _reject_past(psi)
    unroll_model(m, k, b, vm)
    encode_loop_constraints(k, b, vm, m.vars)

    def loop_dispatch(role, f):
        parts = []
        for j in range(1, k + 1):
            sel = vm.loop_sel(j)
            parts.append(b.and_(sel, (yield role, f, j)))
        return b.or_(*parts)

    def rule(key):
        """("tr", f, i): f at position i; ("aux", f, i): the auxiliary
        translation of the until or release f from position i to k."""
        role, f, i = key
        if role == "aux" and i == k:
            return (yield "tr", f.right, k)
        kk = f.kind
        if kk == "true":
            return b.TRUE
        if kk == "false":
            return b.FALSE
        if kk == "atom":
            return atom_lit(b, vm, m, f.name, i)
        if kk == "natom":
            return -atom_lit(b, vm, m, f.name, i)
        if kk in ("&", "|"):
            left = yield "tr", f.left, i
            right = yield "tr", f.right, i
            return b.and_(left, right) if kk == "&" else b.or_(left, right)
        if kk == "X":
            if i < k:
                return (yield "tr", f.left, i + 1)
            return (yield from loop_dispatch("tr", f.left))
        if kk not in ("U", "R"):
            raise PastOperatorError(f"{kk} is a past operator")
        right = yield "tr", f.right, i
        left = yield "tr", f.left, i
        if role == "aux":
            later = yield "aux", f, i + 1
        elif i < k:
            later = yield "tr", f, i + 1
        else:
            later = yield from loop_dispatch("aux", f)
        if kk == "U":
            return b.or_(right, b.and_(left, later))
        return b.and_(right, b.or_(left, later))

    return memoised(rule, ("tr", psi, 0))


def _reject_past(psi):
    if past_depth(psi) > 0:
        raise PastOperatorError(
            "formula contains past operators; this scheme handles future formulas only, use pltl"
        )


# ---------------------------------------------------------------------------
# Constraint-style encodings: eventuality, Buechi, general Buechi and PLTL
# ---------------------------------------------------------------------------


class Chain(NamedTuple):
    """One entry of a scheme's chain list: a sticky accumulator over the
    in-loop positions, acc_0 false and acc_i <-> acc_{i-1} | (InLoop_i &
    hit(i)), so acc_i says that ``hit`` held at an in-loop position up to i;
    and the end condition of one until, release or fairness program.

    The accumulator's variables are ``vm.aux_var(role, key, i)``, and acc is
    the variable itself (``sign`` 1) or its complement (-1).  Entries with
    the same role and key share the accumulator.

    Without a ``member`` the end condition is LoopExists -> acc at the path
    end: on a (k,l)-loop, ``hit`` holds at some position of the loop.  With
    one (an until, or a release for sign -1) it is LoopExists -> (sign *
    member -> acc) at the path end, over the member's top unrolling: an
    until that holds there, or a release that fails there, met its
    eventuality in the loop."""

    role: str
    key: int
    sign: int
    hit: Callable
    member: Optional[Formula]

    def var(self, vm, i) -> int:
        return vm.aux_var(self.role, self.key, i)

    def acc(self, vm, i) -> int:
        return self.sign * self.var(vm, i)


def _sticky_step(add, b, vm, c, i):
    """acc_i <-> acc_{i-1} | (InLoop_i & hit(i)) of chain c, through the
    clause sink ``add``; ``hit(i)`` is lowered after acc_i exists."""
    _guarded_equal(add, None, [c.acc(vm, i)], [b.or_(c.acc(vm, i - 1), b.and_(vm.in_loop(i), c.hit(i)))])


def _chain_end(vm, c, end) -> list:
    """The clause of chain c's end condition at index ``end``: the bound
    itself for monolithic encodings, the end proxy for the incremental
    one."""
    if c.member is None:
        return [-vm.loop_exists(), c.acc(vm, end)]
    return [-vm.loop_exists(), -c.sign * vm.fvar(c.member, end, vm.dcap(c.member)), c.acc(vm, end)]


def _acceptance_hit(b, vm, f, i) -> int:
    """Position i fulfils the until a U c (c | !(a U c)), respectively
    witnesses the release a R c (!c | (a R c))."""
    c = vm.fvar(f.right, i, vm.dcap(f.right))
    whole = vm.fvar(f, i, vm.dcap(f))
    return b.or_(c, -whole) if f.kind == "U" else b.or_(-c, whole)


def eventuality_style(b, vm, m, psi):
    """The eventuality chains: an until a U c has <<F c>>, "c held at an
    in-loop position"; a release a R c has the complement of <<G c>>, "!c
    held at an in-loop position".  Untils (releases) with the same right
    operand share the chain."""
    cl = closure(psi)
    chains = []
    for f in cl:
        if f.kind in ("U", "R"):
            c, dc, sign = f.right, vm.dcap(f.right), 1 if f.kind == "U" else -1
            hit = lambda i, c=c, dc=dc, sign=sign: sign * vm.fvar(c, i, dc)
            chains.append(Chain("F" if sign == 1 else "G", c.fid, sign, hit, f))
    return cl, chains, lambda: vm.fvar(psi, 0, 0)


def buchi_style(b, vm, m, psi):
    """One acceptance chain per until and release (``_acceptance_hit``)."""
    cl = closure(psi)
    chains = [
        Chain("ACC", f.fid, 1, lambda i, f=f: _acceptance_hit(b, vm, f, i), None)
        for f in cl
        if f.kind in ("U", "R")
    ]
    return cl, chains, lambda: vm.fvar(psi, 0, 0)


def fairness_style(b, vm, m, psi):
    """One acceptance chain per fairness program of m, which is already the
    product with the automaton of psi (``check.scheme_model``): no formula
    variables, and the goal is a fair loop."""
    chains = [
        Chain("ACCSET", mi, 1, lambda i, prog=prog: _expr_lit(b, vm, prog, i), None)
        for mi, prog in enumerate(m.fairness_programs)
    ]
    return [], chains, vm.loop_exists


# Constraint-style scheme -> (future formulas only, chain style).  A chain
# style takes (b, vm, m, psi) and returns the closure whose formula
# variables the scheme encodes, its chain list in closure order, and the
# goal, a function giving the literal asserted at the start.  The schemes
# share everything else: the monolithic encoder (``_encode_constraint_style``)
# and the incremental session (``IncrementalEncoder``) both read this table.
CONSTRAINT_SCHEMES = {
    "pltl": (False, eventuality_style),
    "eventuality": (True, eventuality_style),
    "buchi": (True, buchi_style),
    "general-buchi": (False, fairness_style),
}


def _constraint_parts(scheme, b, vm, m, psi):
    """The closure, chain list and goal of ``scheme`` (its chain style)."""
    future_only, style = CONSTRAINT_SCHEMES[scheme]
    if future_only:
        _reject_past(psi)
    return style(b, vm, m, psi)


def encode_ltl_eventuality(m, psi, k, b, vm) -> int:
    return _encode_constraint_style("eventuality", m, psi, k, b, vm)


def encode_ltl_buchi(m, psi, k, b, vm) -> int:
    return _encode_constraint_style("buchi", m, psi, k, b, vm)


def encode_pltl(m, psi, k, b, vm) -> int:
    """Eventuality encoding with virtually unrolled formula variables.

    ``vm.d_max`` caps the unrolling depth of every subformula (None = full);
    past subformulas whose depth is capped below their past depth receive
    stabilisation forcing constraints at their top unrolling.
    """
    return _encode_constraint_style("pltl", m, psi, k, b, vm)


def encode_general_buchi(m: SymbolicModel, k, b, vm) -> int:
    """Satisfiable iff the model has an initialised fair (k,l)-loop."""
    return _encode_constraint_style("general-buchi", m, None, k, b, vm)


def _encode_constraint_style(scheme, m, psi, k, b, vm):
    cl, chains, goal = _constraint_parts(scheme, b, vm, m, psi)
    add = b.solver.add_clause
    unroll_model(m, k, b, vm)
    encode_loop_constraints(k, b, vm, m.vars)
    for i in range(0, k + 1):
        for f in cl:
            _step_constraints(add, m, b, vm, f, i, k)
    # binding of index k+1 through the loop selectors
    levels = [(f, d) for f in cl for d in range(0, vm.dcap(f) + 1)]
    for f, d in levels:
        add([vm.loop_exists(), -vm.fvar(f, k + 1, d)])
    for i in range(1, k + 1):
        _guarded_equal(
            add,
            vm.loop_sel(i),
            [vm.fvar(f, k + 1, d) for f, d in levels],
            [vm.fvar(f, i, d + 1) for f, d in levels],
        )
    for c in {(c.role, c.key): c for c in chains}.values():
        add([-c.acc(vm, 0)])
        for i in range(1, k + 1):
            _sticky_step(add, b, vm, c, i)
    for c in chains:
        add(_chain_end(vm, c, k))
    return goal()


def _step_constraints(add, m, b, vm, f, i, end):
    """Defining constraints of all unrollings of subformula f at time i,
    through the clause sink ``add``.

    ``end`` is the index holding the values of the previous unrolling at the
    path end: the bound itself for monolithic encodings, the end proxy for
    the incremental one.
    """
    kk = f.kind
    dc = vm.dcap(f)
    stabilise = dc < past_depth(f)
    for d in range(0, dc + 1):
        if kk in ("Y", "Z", "S", "T"):
            _past_constraints(add, b, vm, f, i, d, end, stabilise and d == dc)
            continue
        v = vm.fvar(f, i, d)
        if kk == "true":
            x = b.TRUE
        elif kk == "false":
            x = b.FALSE
        elif kk == "atom":
            x = atom_lit(b, vm, m, f.name, i)
        elif kk == "natom":
            x = -atom_lit(b, vm, m, f.name, i)
        elif kk == "&":
            x = b.and_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))
        elif kk == "|":
            x = b.or_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))
        elif kk == "X":
            x = vm.fvar(f.left, i + 1, d)
        elif kk == "U":
            x = b.or_(vm.fvar(f.right, i, d), b.and_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)))
        elif kk == "R":
            x = b.and_(vm.fvar(f.right, i, d), b.or_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)))
        else:
            raise EncodeError(f"unknown kind {kk!r}")
        _guarded_equal(add, None, [v], [x])


def _past_constraints(add, b, vm, f, i, d, end, stabilise_here):
    kk = f.kind
    v = vm.fvar(f, i, d)
    if i == 0:
        if kk in ("S", "T"):  # they start from their right operand
            x = vm.fvar(f.right, 0, d)
        else:
            x = b.TRUE if kk == "Z" else b.FALSE
        _guarded_equal(add, None, [v], [x])
        return

    def step(prev):
        if kk == "Y" or kk == "Z":
            return prev(f.left)
        if kk == "S":
            return b.or_(vm.fvar(f.right, i, d), b.and_(vm.fvar(f.left, i, d), prev(f)))
        return b.and_(vm.fvar(f.right, i, d), b.or_(vm.fvar(f.left, i, d), prev(f)))

    li = vm.loop_sel(i)
    if d == 0:
        rules = [step(lambda g: vm.fvar(g, i - 1, 0))]
    else:
        rules = [step(lambda g: b.ite(li, vm.fvar(g, end, d - 1), vm.fvar(g, i - 1, d)))]
    if stabilise_here:
        rules.append(step(lambda g: b.ite(li, vm.fvar(g, end, d), vm.fvar(g, i - 1, d))))
    _guarded_equal(add, None, [v] * len(rules), rules)


# ---------------------------------------------------------------------------
# Incremental encoding
# ---------------------------------------------------------------------------


class IncrementalEncoder:
    """Bound-by-bound encoding of one constraint-style scheme over one
    growing solver.

    ``scheme`` picks the closure, chain list and goal through its chain
    style in ``CONSTRAINT_SCHEMES``; everything else is shared with the
    other schemes and with the monolithic encoding.  Each accumulator gets
    its start at bound 0 and its step at every bound, and each ``Chain``
    entry its end condition, once, at the end proxy E; the bound's
    activator binds the accumulator's copy at E to index k like the formula
    variables.  For ``general-buchi``, ``m`` is the product with the
    automaton of ``psi`` (``check.scheme_model``), so the session has no
    formula variables and asserts LoopExists instead.

    ``step(k)`` adds the constraints for bound k: the stable part directly,
    the bound-dependent ones (end proxy binding, LoopExists, the index k+1
    hook into the loop proxy) guarded by the activation literal act(k).
    The bindings, the loop proxies (l_k -> L = k) and the loop step (l_k ->
    s_{k-1} = s_E) are guarded equalities, written as clauses by
    ``_guarded_equal``, so a retired bound leaves no gate variable behind.
    ``step(k)`` ends by retiring bound k-1: the unit -act(k-1) keeps every
    learned clause sound, and the solver propagates it once instead of
    taking it as an assumption at every later query.  A query assumes the
    one literal act(k), for a witness, or -act(k), for completeness.

    The simple path constraint of the termination check is added lazily
    (Een and Soerensson, *Temporal induction by incremental SAT solving*,
    BMC 2003).  A query that asks for it solves under one guard literal;
    while the model repeats a position class (``simple_path_class``, over
    the closure and the chain list), the pairs of positions it repeats get
    their ``simple_path_pair`` constraint behind the guard, and the query
    solves again.  An UNSAT round is UNSAT for the full constraint too,
    since it is a subset of it; a SAT answer is a model without a repeated
    class, that is a simple path.  A pair of positions up to k stays part of
    the constraint at every bound from k on, so the pairs, once added, serve
    every later query.
    """

    def __init__(self, m: SymbolicModel, psi: Formula, d_max=None, scheme="pltl"):
        if scheme not in CONSTRAINT_SCHEMES:
            raise EncodeError(f"scheme {scheme!r} has no incremental session")
        self.m = m
        self.scheme = scheme
        self.solver = Solver()
        self.b = CircuitBuilder(self.solver)
        self.vm = TimedVarMap(self.b, d_max=d_max)
        self.cl, self.chains, self.goal = _constraint_parts(scheme, self.b, self.vm, m, psi)
        self.levels = [(f, d) for f in self.cl for d in range(0, self.vm.dcap(f) + 1)]
        # one entry per accumulator: its start, steps and binding to the
        # bound are written once, however many entries share it
        self.accumulators = {(c.role, c.key): c for c in self.chains}.values()
        self.k = -1
        # made by the first simple path query, so that step() numbers its
        # variables the same whether or not simple paths are ever asked for
        self.sp_guard = None
        self.classes = {}  # i -> the simple path class literals of position i

    # -- constraint emission -------------------------------------------------

    def step(self, k):
        if k != self.k + 1:
            raise EncodeError(f"step({k}) out of order, expected {self.k + 1}")
        b, vm, m, add = self.b, self.vm, self.m, self.solver.add_clause
        unroll_model(m, k, b, vm)
        if k == 0:
            self._emit_base()
        else:
            _loop_step(add, b, vm, m.vars, k, E_INDEX)
        for f in self.cl:
            _step_constraints(add, m, b, vm, f, k, E_INDEX)
        # loop proxy: l_k selects index k as the loop point
        if k >= 1:
            _guarded_equal(
                add,
                vm.loop_sel(k),
                [vm.fvar(f, L_INDEX, d) for f, d in self.levels],
                [vm.fvar(f, k, d) for f, d in self.levels],
            )
            for c in self.accumulators:
                _sticky_step(add, b, vm, c, k)
        self._emit_k_dependent(k)
        if k >= 1:
            add([-vm.activation_lit(k - 1)])
        self.k = k

    def _emit_base(self):
        vm, add = self.vm, self.solver.add_clause
        for f, d in self.levels:
            add([vm.loop_exists(), -vm.fvar(f, L_INDEX, d)])
        for c in self.accumulators:
            add([-c.acc(vm, 0)])
        for c in self.chains:
            add(_chain_end(vm, c, E_INDEX))
        add([self.goal()])

    def _emit_k_dependent(self, k):
        vm = self.vm
        pairs = [(vm.state_bit(E_INDEX, n), vm.state_bit(k, n)) for n in self.m.vars]
        pairs.append((vm.loop_exists(), vm.in_loop(k)))
        for f, d in self.levels:
            pairs.append((vm.fvar(f, E_INDEX, d), vm.fvar(f, k, d)))
            pairs.append((vm.fvar(f, k + 1, d), vm.fvar(f, L_INDEX, d + 1)))
        pairs.extend((c.var(vm, E_INDEX), c.var(vm, k)) for c in self.accumulators)
        _guarded_equal(self.solver.add_clause, vm.activation_lit(k), *zip(*pairs))

    # -- queries ---------------------------------------------------------------

    def _solve(self, witness, simple_path, conflict_budget):
        """Solve under act(k), or -act(k) without ``witness``; with
        ``simple_path``, run the lazy refinement, all of whose rounds share
        ``conflict_budget``."""
        if self.k < 0:
            raise EncodeError("step(0) must run before queries")
        solver, act = self.solver, self.vm.activation_lit(self.k)
        assumptions = [act if witness else -act]
        if not simple_path:
            return solver.solve(assumptions, conflict_budget=conflict_budget)
        if self.sp_guard is None:
            self.sp_guard = self.b.var()
        assumptions.append(self.sp_guard)
        start = solver.conflicts
        while True:
            left = None if conflict_budget is None else conflict_budget - (solver.conflicts - start)
            res = solver.solve(assumptions, conflict_budget=left)
            if res != SAT:
                return res
            pairs = self._clashing_pairs()
            if not pairs:
                return SAT
            for i, j in pairs:
                solver.add_clause([-self.sp_guard, self.simple_path_pair(i, j)])

    def _class_lits(self, i):
        """The literals of position i that make up its simple path class: those
        every position compares (the model state, the in-loop flag and the
        depth-0 formula values of the closure), and those compared only when
        both positions are inside the loop (every formula unrolling and each
        accumulator, once however many chain entries share it).  A
        position's literals never change once it is encoded, so they are
        built once and kept in ``classes``."""
        lits = self.classes.get(i)
        if lits is None:
            vm = self.vm
            shared = [vm.state_bit(i, n) for n in self.m.vars]
            shared.append(vm.in_loop(i))
            shared.extend(vm.fvar(f, i, 0) for f in self.cl)
            in_loop = [vm.fvar(f, i, d) for f, d in self.levels]
            in_loop.extend(c.acc(vm, i) for c in self.accumulators)
            lits = self.classes[i] = (shared, shared + in_loop, in_loop)
        return lits

    def simple_path_pair(self, i, j) -> int:
        """Literal that holds when positions i and j of the path differ.

        Two positions clash when they agree on the model state, the in-loop
        flag, the depth-0 formula values, and, when both are inside the loop,
        on every formula unrolling and chain accumulator.
        """
        b, in_loop = self.b, self.vm.in_loop
        shared_i, _, loop_i = self._class_lits(i)
        shared_j, _, loop_j = self._class_lits(j)
        diff_loop = b.and_(in_loop(i), in_loop(j), b.or_(*map(b.xor, loop_i, loop_j)))
        return b.or_(*map(b.xor, shared_i, shared_j), diff_loop)

    def simple_path_class(self, i) -> tuple:
        """The values of position i's class in the solver's model:
        ``simple_path_pair(i, j)`` is false exactly when the classes of i and
        j are equal."""
        value_of = self.solver.model_value
        shared, whole, _ = self._class_lits(i)
        return tuple(map(value_of, whole if value_of(self.vm.in_loop(i)) else shared))

    def _clashing_pairs(self):
        """The pairs i < j of positions whose classes are equal in the
        solver's model, grouped by class in order of first position."""
        groups = {}
        for i in range(0, self.k + 1):
            groups.setdefault(self.simple_path_class(i), []).append(i)
        return [(i, j) for g in groups.values() for n, j in enumerate(g) for i in g[:n]]

    def query_witness(self, simple_path=False, conflict_budget=None) -> str:
        """Solve the full encoding at the current bound, with
        ``simple_path`` conjoined with the simple path constraint."""
        return self._solve(True, simple_path, conflict_budget)

    def query_completeness(self, conflict_budget=None) -> str:
        """Solve with every bound-dependent constraint retired, plus the
        simple path constraint; UNSAT proves no witness at any larger bound."""
        return self._solve(False, True, conflict_budget)
