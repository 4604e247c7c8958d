"""Bounded model checking encodings.

Every encoder writes into one :class:`TimedVarMap`: the circuit builder of
one solver, and the registry from timed roles (state bits s_i, loop
selectors l_i, InLoop_i, LoopExists, formula variables indexed by
subformula, time and unrolling depth, and the auxiliary chains) to its
variables.  Requests for a formula variable above the subformula's
unrolling cap ``vm.d_max`` alias down to the cap, which realises virtual
unrolling.

Monolithic encoders take ``(m, psi, k, vm)`` and return their witness
literal, whose assertion makes the solver search for a witness of bound
k: the root of the fixpoint circuit, or the goal of a constraint-style
scheme.  Their clauses hold whether or not that literal is asserted, so a
caller always asserts it (``check.encode_bound``).  Each begins with the
model unrolling (``unroll_model``), of which the map may already hold a
prefix; the driver keeps one unrolling per run and encodes each bound on a
copy.  The constraint-style schemes differ only in their chain style
(``check.SCHEMES``), which gives a list of ``Chain`` records; both the
monolithic encoder and the incremental one iterate that list.  No encoder
checks which formulas its scheme admits (``check.scheme_model``).  The
incremental encoder keeps one growing solver; constraints that mention
the current bound are guarded by per-bound activation literals, so that
moving to a larger bound never deletes clauses: it retires the stale
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


class TimedVarMap(CircuitBuilder):
    """The circuit builder of one encoding, and its bijection from (role,
    subformula, time, unrolling) to solver variables.

    ``lits`` is the registry, keyed by role tuples: ("state", i, name),
    ("loopsel", i), ("inloop", i), ("loopexists",), ("formula", fid, i, d),
    ("aux", role, key, i) and ("activation", k).  Each accessor makes its
    variable on first request; l_0 and InLoop_0 are constant false."""

    def __init__(self, solver: Solver, d_max=None, template: "TimedVarMap" = None):
        if d_max is not None and d_max < 0:
            raise EncodeError(
                f"d_max must be a non-negative integer or None for full unrolling, got {d_max}"
            )
        super().__init__(solver, template)
        self.d_max = d_max
        if template is None:
            self.lits = {}
            self.steps = []  # literals of I(s_0), T(s_0, s_1), ... (``unroll_model``)
        else:
            self.lits = template.lits.copy()
            self.steps = template.steps.copy()

    def copy(self) -> "TimedVarMap":
        """The same map over a copy of its solver, made through ``__init__``
        with this map as the template; what either adds leaves the other as
        it was."""
        return TimedVarMap(self.solver.copy(), self.d_max, self)

    def dcap(self, f: Formula) -> int:
        if self.d_max is None:
            return past_depth(f)
        return min(self.d_max, past_depth(f))

    def _lit(self, key) -> int:
        v = self.lits.get(key)
        if v is None:
            v = self.var()
            self.lits[key] = v
        return v

    def state_bit(self, i, name) -> int:
        return self._lit(("state", i, name))

    def loop_sel(self, i) -> int:
        if i == 0:
            return self.FALSE
        return self._lit(("loopsel", i))

    def in_loop(self, i) -> int:
        if i == 0:
            return self.FALSE
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


def _expr_lit(vm, prog, i, j=None):
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
            push(vm.and_(vals[x], vals[y]) if y is not None else vm.and_(*[vals[s] for s in x]))
        elif op == "!":
            push(-vals[x])
        elif op == "var":
            push(state_bit(i, x))
        elif op == "next":
            if j is None:
                raise ModelError("next() outside a transition expression")
            push(state_bit(j, x))
        elif op == "|":
            push(vm.or_(vals[x], vals[y]) if y is not None else vm.or_(*[vals[s] for s in x]))
        elif op == "->":
            push(vm.or_(-vals[x], vals[y]))
        elif op == "<->":
            push(vm.iff(vals[x], vals[y]))
        elif op == "true":
            push(vm.TRUE)
        else:
            push(vm.FALSE)
    return vals[-1]


def atom_lit(vm, m, name, i) -> int:
    """Literal for an atomic proposition at time i (variable or define)."""
    if name in m.define_map:
        return _expr_lit(vm, m.define_program(name), i)
    if name in m.vars:
        return vm.state_bit(i, name)
    raise UnresolvedAtomError(f"atom {name!r} is neither a variable nor a define")


def unroll_model(m: SymbolicModel, k, vm):
    """Assert I(s_0) and T(s_{i-1}, s_i) for i = 1..k into the map's
    solver, each step as it is lowered; ``vm.steps`` keeps their literals.

    Every monolithic encoder calls this first, right after the map's TRUE
    variable.  The steps not yet in ``vm.steps`` are lowered after the
    ones that are, so a map unrolled bound by bound holds the same gates,
    clauses and variable numbers as one unrolled to k at once, and a copy
    of a map unrolled to k (``TimedVarMap.copy``) encodes bound k to the
    same CNF as a fresh map."""
    steps, add = vm.steps, vm.solver.add_clause
    if not steps:
        steps.append(_expr_lit(vm, m.init_program, 0))
        add([steps[0]])
    for i in range(len(steps), k + 1):
        steps.append(_expr_lit(vm, m.trans_program, i - 1, i))
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


def _loop_step(add, vm, model_vars, i, end):
    """The loop selector constraints of position i >= 1, through the clause
    sink ``add``.  A true l_i commits the path to a loop back to i by
    forcing s_{i-1} = s_end bitwise, no selector holds after the first one,
    and InLoop_i <-> InLoop_{i-1} | l_i.  ``end`` is the bound itself for
    monolithic encodings and the end proxy for the incremental one."""
    li = vm.loop_sel(i)
    _guarded_equal(add, li, [vm.state_bit(i - 1, n) for n in model_vars], [vm.state_bit(end, n) for n in model_vars])
    if i > 1:
        add([-vm.in_loop(i - 1), -li])
    _guarded_equal(add, None, [vm.in_loop(i)], [vm.or_(vm.in_loop(i - 1), li)])


def encode_loop_constraints(k, vm, model_vars):
    """Loop selector machinery for bound k, into the map's solver: the
    ``_loop_step`` of every position 1..k, l_0 and InLoop_0 false, and
    LoopExists <-> InLoop_k."""
    add = vm.solver.add_clause
    for i in range(1, k + 1):
        _loop_step(add, vm, model_vars, i, k)
    _guarded_equal(add, None, [vm.loop_exists()], [vm.in_loop(k)])


# ---------------------------------------------------------------------------
# Fixpoint evaluation encoding (pure circuit, future only)
# ---------------------------------------------------------------------------


def encode_ltl_fixpoint(m: SymbolicModel, psi: Formula, k, vm) -> int:
    """Recursive circuit translation with auxiliary fixpoint approximations.

    Until and release at the last position dispatch through the loop
    selectors into an auxiliary translation that under-approximates least
    fixpoints and over-approximates greatest fixpoints, which is exact at
    the loop point.  The translation of (subformula, position) pairs runs
    on ``memoised``'s explicit stack, in the order of the plain recursion.
    """
    unroll_model(m, k, vm)
    encode_loop_constraints(k, vm, m.vars)

    def loop_dispatch(role, f):
        parts = []
        for j in range(1, k + 1):
            sel = vm.loop_sel(j)
            parts.append(vm.and_(sel, (yield role, f, j)))
        return vm.or_(*parts)

    def rule(key):
        """("tr", f, i): f at position i; ("aux", f, i): the auxiliary
        translation of the until or release f from position i to k."""
        role, f, i = key
        if role == "aux" and i == k:
            return (yield "tr", f.right, k)
        kk = f.kind
        if kk == "true":
            return vm.TRUE
        if kk == "false":
            return vm.FALSE
        if kk == "atom":
            return atom_lit(vm, m, f.name, i)
        if kk == "natom":
            return -atom_lit(vm, m, f.name, i)
        if kk in ("&", "|"):
            left = yield "tr", f.left, i
            right = yield "tr", f.right, i
            return vm.and_(left, right) if kk == "&" else vm.or_(left, right)
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
            return vm.or_(right, vm.and_(left, later))
        return vm.and_(right, vm.or_(left, later))

    return memoised(rule, ("tr", psi, 0))


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


def _sticky_step(add, vm, c, i):
    """acc_i <-> acc_{i-1} | (InLoop_i & hit(i)) of chain c, through the
    clause sink ``add``; ``hit(i)`` is lowered after acc_i exists."""
    _guarded_equal(add, None, [c.acc(vm, i)], [vm.or_(c.acc(vm, i - 1), vm.and_(vm.in_loop(i), c.hit(i)))])


def _chain_end(vm, c, end) -> list:
    """The clause of chain c's end condition at index ``end``: the bound
    itself for monolithic encodings, the end proxy for the incremental
    one."""
    if c.member is None:
        return [-vm.loop_exists(), c.acc(vm, end)]
    return [-vm.loop_exists(), -c.sign * vm.fvar(c.member, end, vm.dcap(c.member)), c.acc(vm, end)]


def _acceptance_hit(vm, f, i) -> int:
    """Position i fulfils the until a U c (c | !(a U c)), respectively
    witnesses the release a R c (!c | (a R c))."""
    c = vm.fvar(f.right, i, vm.dcap(f.right))
    whole = vm.fvar(f, i, vm.dcap(f))
    return vm.or_(c, -whole) if f.kind == "U" else vm.or_(-c, whole)


def eventuality_style(vm, m, psi):
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


def buchi_style(vm, m, psi):
    """One acceptance chain per until and release (``_acceptance_hit``)."""
    cl = closure(psi)
    chains = [
        Chain("ACC", f.fid, 1, lambda i, f=f: _acceptance_hit(vm, f, i), None)
        for f in cl
        if f.kind in ("U", "R")
    ]
    return cl, chains, lambda: vm.fvar(psi, 0, 0)


def fairness_style(vm, m, psi):
    """One acceptance chain per fairness program of m, which is already the
    product with the automaton of psi (``check.scheme_model``): no formula
    variables, and the goal is a fair loop."""
    chains = [
        Chain("ACCSET", mi, 1, lambda i, prog=prog: _expr_lit(vm, prog, i), None)
        for mi, prog in enumerate(m.fairness_programs)
    ]
    return [], chains, vm.loop_exists


def encode_ltl_eventuality(m, psi, k, vm) -> int:
    return _encode_constraint_style(eventuality_style, m, psi, k, vm)


def encode_ltl_buchi(m, psi, k, vm) -> int:
    return _encode_constraint_style(buchi_style, m, psi, k, vm)


def encode_pltl(m, psi, k, vm) -> int:
    """Eventuality encoding with virtually unrolled formula variables.

    ``vm.d_max`` caps the unrolling depth of every subformula (None = full);
    past subformulas whose depth is capped below their past depth receive
    stabilisation forcing constraints at their top unrolling.
    """
    return _encode_constraint_style(eventuality_style, m, psi, k, vm)


def encode_general_buchi(m, psi, k, vm) -> int:
    """Satisfiable iff the model has an initialised fair (k,l)-loop.  The
    driver passes the product with psi's automaton, so psi is unused."""
    return _encode_constraint_style(fairness_style, m, psi, k, vm)


def _encode_constraint_style(style, m, psi, k, vm):
    """The encoding of bound k by a chain ``style``: a function of (vm, m,
    psi) that gives the closure whose formula variables the scheme encodes,
    its chain list in closure order, and the goal, a function giving the
    literal asserted at the start."""
    cl, chains, goal = style(vm, m, psi)
    add = vm.solver.add_clause
    unroll_model(m, k, vm)
    encode_loop_constraints(k, vm, m.vars)
    for i in range(0, k + 1):
        for f in cl:
            _step_constraints(add, m, vm, f, i, k)
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
            _sticky_step(add, vm, c, i)
    for c in chains:
        add(_chain_end(vm, c, k))
    return goal()


def _step_constraints(add, m, vm, f, i, end):
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
            _past_constraints(add, vm, f, i, d, end, stabilise and d == dc)
            continue
        v = vm.fvar(f, i, d)
        if kk == "true":
            x = vm.TRUE
        elif kk == "false":
            x = vm.FALSE
        elif kk == "atom":
            x = atom_lit(vm, m, f.name, i)
        elif kk == "natom":
            x = -atom_lit(vm, m, f.name, i)
        elif kk == "&":
            x = vm.and_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))
        elif kk == "|":
            x = vm.or_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))
        elif kk == "X":
            x = vm.fvar(f.left, i + 1, d)
        elif kk == "U":
            x = vm.or_(vm.fvar(f.right, i, d), vm.and_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)))
        elif kk == "R":
            x = vm.and_(vm.fvar(f.right, i, d), vm.or_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)))
        else:
            raise EncodeError(f"unknown kind {kk!r}")
        _guarded_equal(add, None, [v], [x])


def _past_constraints(add, vm, f, i, d, end, stabilise_here):
    kk = f.kind
    v = vm.fvar(f, i, d)
    if i == 0:
        if kk in ("S", "T"):  # they start from their right operand
            x = vm.fvar(f.right, 0, d)
        else:
            x = vm.TRUE if kk == "Z" else vm.FALSE
        _guarded_equal(add, None, [v], [x])
        return

    def step(prev):
        if kk == "Y" or kk == "Z":
            return prev(f.left)
        if kk == "S":
            return vm.or_(vm.fvar(f.right, i, d), vm.and_(vm.fvar(f.left, i, d), prev(f)))
        return vm.and_(vm.fvar(f.right, i, d), vm.or_(vm.fvar(f.left, i, d), prev(f)))

    li = vm.loop_sel(i)
    if d == 0:
        rules = [step(lambda g: vm.fvar(g, i - 1, 0))]
    else:
        rules = [step(lambda g: vm.ite(li, vm.fvar(g, end, d - 1), vm.fvar(g, i - 1, d)))]
    if stabilise_here:
        rules.append(step(lambda g: vm.ite(li, vm.fvar(g, end, d), vm.fvar(g, i - 1, d))))
    _guarded_equal(add, None, [v] * len(rules), rules)


# ---------------------------------------------------------------------------
# Incremental encoding
# ---------------------------------------------------------------------------


class IncrementalEncoder:
    """Bound-by-bound encoding of one constraint-style scheme over one
    growing solver.

    The chain ``style`` (``check.SCHEMES``) gives the closure, chain list
    and goal; everything else is shared with the other schemes and with
    the monolithic encoding.  Each accumulator gets
    its start at bound 0 and its step at every bound, and each ``Chain``
    entry its end condition, once, at the end proxy E; the bound's
    activator binds the accumulator's copy at E to index k like the formula
    variables.  With ``fairness_style``, ``m`` is the product with the
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

    def __init__(self, m: SymbolicModel, psi: Formula, d_max=None, style=eventuality_style):
        self.m = m
        self.style = style
        self.vm = TimedVarMap(Solver(), d_max=d_max)
        self.solver = self.vm.solver
        self.cl, self.chains, self.goal = style(self.vm, m, psi)
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
        vm, m, add = self.vm, self.m, self.solver.add_clause
        unroll_model(m, k, vm)
        if k == 0:
            self._emit_base()
        else:
            _loop_step(add, vm, m.vars, k, E_INDEX)
        for f in self.cl:
            _step_constraints(add, m, vm, f, k, E_INDEX)
        # loop proxy: l_k selects index k as the loop point
        if k >= 1:
            _guarded_equal(
                add,
                vm.loop_sel(k),
                [vm.fvar(f, L_INDEX, d) for f, d in self.levels],
                [vm.fvar(f, k, d) for f, d in self.levels],
            )
            for c in self.accumulators:
                _sticky_step(add, vm, c, k)
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
            self.sp_guard = self.vm.var()
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
        vm = self.vm
        shared_i, _, loop_i = self._class_lits(i)
        shared_j, _, loop_j = self._class_lits(j)
        diff_loop = vm.and_(vm.in_loop(i), vm.in_loop(j), vm.or_(*map(vm.xor, loop_i, loop_j)))
        return vm.or_(*map(vm.xor, shared_i, shared_j), diff_loop)

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
