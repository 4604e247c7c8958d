"""Bounded model checking encodings.

All encoders share a :class:`TimedVarMap`, the registry from timed roles
(state bits s_i, loop selectors l_i, InLoop_i, LoopExists, formula variables
indexed by subformula, time and unrolling depth, and the auxiliary chains)
to solver variables.  Requests for a formula variable above the subformula's
unrolling cap alias down to the cap, which realises virtual unrolling.

Monolithic encoders return one literal whose assertion makes the solver
search for a witness of the given bound.  The incremental encoder keeps one
growing solver; constraints that mention the current bound are guarded by
per-bound activation literals so that moving to a larger bound never deletes
clauses, it just stops assuming the stale activators.
"""

from __future__ import annotations

from .pltl import Formula, closure, past_depth
from .model import SymbolicModel, ModelError
from .sat import CircuitBuilder, Solver

E_INDEX = "E"
L_INDEX = "L"


class EncodeError(Exception):
    pass


class PastOperatorError(EncodeError):
    """An LTL-only scheme was given a formula with past operators."""


class UnresolvedAtomError(EncodeError):
    pass


class TimedVarMap:
    """Bijection from (role, subformula, time, unrolling) to solver variables."""

    def __init__(self, builder: CircuitBuilder, d_max=None):
        if d_max is not None and d_max < 0:
            raise EncodeError(
                f"d_max must be a non-negative integer or None for full unrolling, got {d_max}"
            )
        self.b = builder
        self.d_max = d_max
        self.state = {}  # (i, varname) -> lit
        self.loopsel = {}  # i -> lit (l_0 is constant false)
        self.inloop = {}  # i -> lit (InLoop_0 is constant false)
        self._loopexists = None
        self.fvars = {}  # (fid, i, d) -> lit
        self.aux = {}  # (role, key, i) -> lit
        self.activation = {}  # k -> lit
        self.sp_activation = {}  # k -> lit

    def dcap(self, f: Formula) -> int:
        if self.d_max is None:
            return past_depth(f)
        return min(self.d_max, past_depth(f))

    def state_bit(self, i, name) -> int:
        key = (i, name)
        v = self.state.get(key)
        if v is None:
            v = self.b.var()
            self.state[key] = v
        return v

    def state_vec(self, i, names):
        return [self.state_bit(i, n) for n in names]

    def loop_sel(self, i) -> int:
        if i == 0:
            return self.b.FALSE
        v = self.loopsel.get(i)
        if v is None:
            v = self.b.var()
            self.loopsel[i] = v
        return v

    def in_loop(self, i) -> int:
        if i == 0:
            return self.b.FALSE
        v = self.inloop.get(i)
        if v is None:
            v = self.b.var()
            self.inloop[i] = v
        return v

    def loop_exists(self) -> int:
        if self._loopexists is None:
            self._loopexists = self.b.var()
        return self._loopexists

    def fvar(self, f: Formula, i, d) -> int:
        d = min(d, self.dcap(f))
        key = (f.fid, i, d)
        v = self.fvars.get(key)
        if v is None:
            v = self.b.var()
            self.fvars[key] = v
        return v

    def aux_var(self, role, key, i) -> int:
        k = (role, key, i)
        v = self.aux.get(k)
        if v is None:
            v = self.b.var()
            self.aux[k] = v
        return v

    def activation_lit(self, k) -> int:
        v = self.activation.get(k)
        if v is None:
            v = self.b.var()
            self.activation[k] = v
        return v

    def sp_activation_lit(self, k) -> int:
        v = self.sp_activation.get(k)
        if v is None:
            v = self.b.var()
            self.sp_activation[k] = v
        return v


# ---------------------------------------------------------------------------
# Model constraints
# ---------------------------------------------------------------------------


def _expr_lit(b, vm, m, expr, i, j=None, _memo=None):
    """Lower a model expression at time i; next() refers to time j."""
    define_map = m.define_map
    memo = _memo if _memo is not None else {}

    def ev(e):
        k = e.kind
        if k == "var":
            if e.name in define_map:
                key = (e.name, i)
                v = memo.get(key)
                if v is None:
                    v = ev(define_map[e.name])
                    memo[key] = v
                return v
            return vm.state_bit(i, e.name)
        if k == "next":
            if j is None:
                raise ModelError("next() outside a transition expression")
            return vm.state_bit(j, e.name)
        if k == "true":
            return b.TRUE
        if k == "false":
            return b.FALSE
        if k == "!":
            return -ev(e.args[0])
        if k == "&":
            return b.and_(ev(e.args[0]), ev(e.args[1]))
        if k == "|":
            return b.or_(ev(e.args[0]), ev(e.args[1]))
        if k == "->":
            return b.or_(-ev(e.args[0]), ev(e.args[1]))
        if k == "<->":
            return b.iff(ev(e.args[0]), ev(e.args[1]))
        raise ModelError(f"unknown expression kind {k!r}")

    return ev(expr)


def atom_lit(b, vm, m, name, i) -> int:
    """Literal for an atomic proposition at time i (variable or define)."""
    if name in m.define_map:
        return _expr_lit(b, vm, m, m.define_map[name], i)
    if name in m.vars:
        return vm.state_bit(i, name)
    raise UnresolvedAtomError(f"atom {name!r} is neither a variable nor a define")


def encode_model_k(m: SymbolicModel, k, b, vm) -> int:
    """I(s_0) and the k-fold unrolling of the transition relation."""
    parts = [_expr_lit(b, vm, m, m.init, 0)]
    for i in range(1, k + 1):
        parts.append(_expr_lit(b, vm, m, m.trans, i - 1, i))
    return b.and_(*parts)


def encode_loop_constraints(k, b, vm, model_vars) -> int:
    """Loop selector machinery for bound k.

    l_0 and InLoop_0 are false; a true l_i commits the path to a (k,i)-loop
    by forcing s_{i-1} = s_k bitwise, at most one selector may hold, and
    LoopExists mirrors InLoop_k.
    """
    parts = []
    sk = [vm.state_bit(k, n) for n in model_vars]
    for i in range(1, k + 1):
        li = vm.loop_sel(i)
        prev_il = vm.in_loop(i - 1)
        il = vm.in_loop(i)
        eq = b.equal_vectors([vm.state_bit(i - 1, n) for n in model_vars], sk)
        parts.append(b.implies(li, eq))
        parts.append(b.iff(il, b.or_(prev_il, li)))
        parts.append(b.implies(prev_il, -li))
    parts.append(b.iff(vm.loop_exists(), vm.in_loop(k)))
    return b.and_(*parts)


# ---------------------------------------------------------------------------
# Fixpoint evaluation encoding (pure circuit, future only)
# ---------------------------------------------------------------------------


def encode_ltl_fixpoint(m: SymbolicModel, psi: Formula, k, b, vm) -> int:
    """Recursive circuit translation with auxiliary fixpoint approximations.

    Until and release at the last position dispatch through the loop
    selectors into an auxiliary translation that under-approximates least
    fixpoints and over-approximates greatest fixpoints, which is exact at
    the loop point.
    """
    _reject_past(psi)
    mlit = encode_model_k(m, k, b, vm)
    llit = encode_loop_constraints(k, b, vm, m.vars)
    memo = {}
    aux_memo = {}

    def aux(f, i):
        key = (f.fid, i)
        if key in aux_memo:
            return aux_memo[key]
        if i == k:
            v = tr(f.right, k)
        elif f.kind == "U":
            v = b.or_(tr(f.right, i), b.and_(tr(f.left, i), aux(f, i + 1)))
        else:
            v = b.and_(tr(f.right, i), b.or_(tr(f.left, i), aux(f, i + 1)))
        aux_memo[key] = v
        return v

    def loop_dispatch(get):
        return b.or_(*[b.and_(vm.loop_sel(j), get(j)) for j in range(1, k + 1)])

    def tr(f, i):
        key = (f.fid, i)
        if key in memo:
            return memo[key]
        kk = f.kind
        if kk == "true":
            v = b.TRUE
        elif kk == "false":
            v = b.FALSE
        elif kk == "atom":
            v = atom_lit(b, vm, m, f.name, i)
        elif kk == "natom":
            v = -atom_lit(b, vm, m, f.name, i)
        elif kk == "&":
            v = b.and_(tr(f.left, i), tr(f.right, i))
        elif kk == "|":
            v = b.or_(tr(f.left, i), tr(f.right, i))
        elif kk == "X":
            if i < k:
                v = tr(f.left, i + 1)
            else:
                v = loop_dispatch(lambda j: tr(f.left, j))
        elif kk == "U":
            if i < k:
                v = b.or_(tr(f.right, i), b.and_(tr(f.left, i), tr(f, i + 1)))
            else:
                v = b.or_(tr(f.right, k), b.and_(tr(f.left, k), loop_dispatch(lambda j: aux(f, j))))
        elif kk == "R":
            if i < k:
                v = b.and_(tr(f.right, i), b.or_(tr(f.left, i), tr(f, i + 1)))
            else:
                v = b.and_(tr(f.right, k), b.or_(tr(f.left, k), loop_dispatch(lambda j: aux(f, j))))
        else:
            raise PastOperatorError(f"{kk} is a past operator")
        memo[key] = v
        return v

    return b.and_(mlit, llit, tr(psi, 0))


def _reject_past(psi):
    if past_depth(psi) > 0:
        raise PastOperatorError(
            "formula contains past operators; this scheme handles future formulas only, use pltl"
        )


# ---------------------------------------------------------------------------
# Eventuality / Buechi / PLTL encodings (constraint style)
# ---------------------------------------------------------------------------


def encode_ltl_eventuality(m, psi, k, b, vm) -> int:
    _reject_past(psi)
    return _encode_constraint_style(m, psi, k, b, vm, aux_style="eventuality")


def encode_ltl_buchi(m, psi, k, b, vm, release_acceptance=True) -> int:
    _reject_past(psi)
    return _encode_constraint_style(
        m, psi, k, b, vm, aux_style="buchi", release_acceptance=release_acceptance
    )


def encode_pltl(m, psi, k, d_max, b, vm, force_stabilise=False) -> int:
    """Eventuality encoding with virtually unrolled formula variables.

    ``d_max`` caps the unrolling depth of every subformula (None = full);
    capped past subformulas receive stabilisation forcing constraints at
    their top unrolling.
    """
    if vm.d_max != d_max:
        raise EncodeError("TimedVarMap was built with a different d_max")
    return _encode_constraint_style(
        m, psi, k, b, vm, aux_style="eventuality", force_stabilise=force_stabilise
    )


def _encode_constraint_style(
    m, psi, k, b, vm, aux_style, release_acceptance=True, force_stabilise=False
):
    cons = [encode_model_k(m, k, b, vm), encode_loop_constraints(k, b, vm, m.vars)]
    cl = closure(psi)
    le = vm.loop_exists()
    for i in range(0, k + 1):
        for f in cl:
            cons.extend(_step_constraints(m, b, vm, f, i, k, force_stabilise))
    # binding of index k+1 through the loop selectors
    for f in cl:
        for d in range(0, vm.dcap(f) + 1):
            vk1 = vm.fvar(f, k + 1, d)
            cons.append(b.implies(-le, -vk1))
            for i in range(1, k + 1):
                cons.append(b.implies(vm.loop_sel(i), b.iff(vk1, vm.fvar(f, i, d + 1))))
    cons.extend(_aux_constraints(b, vm, cl, k, aux_style, release_acceptance, end=k))
    return b.and_(*cons, vm.fvar(psi, 0, 0))


def _step_constraints(m, b, vm, f, i, end, force_stabilise):
    """Defining constraints of all unrollings of subformula f at time i.

    ``end`` is the index holding the values of the previous unrolling at the
    path end: the bound itself for monolithic encodings, the end proxy for
    the incremental one.
    """
    out = []
    kk = f.kind
    dc = vm.dcap(f)
    stabilise = force_stabilise or dc < past_depth(f)
    for d in range(0, dc + 1):
        v = vm.fvar(f, i, d)
        if kk == "true":
            out.append(v)
        elif kk == "false":
            out.append(-v)
        elif kk == "atom":
            out.append(b.iff(v, atom_lit(b, vm, m, f.name, i)))
        elif kk == "natom":
            out.append(b.iff(v, -atom_lit(b, vm, m, f.name, i)))
        elif kk == "&":
            out.append(b.iff(v, b.and_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))))
        elif kk == "|":
            out.append(b.iff(v, b.or_(vm.fvar(f.left, i, d), vm.fvar(f.right, i, d))))
        elif kk == "X":
            out.append(b.iff(v, vm.fvar(f.left, i + 1, d)))
        elif kk == "U":
            out.append(
                b.iff(
                    v,
                    b.or_(
                        vm.fvar(f.right, i, d),
                        b.and_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)),
                    ),
                )
            )
        elif kk == "R":
            out.append(
                b.iff(
                    v,
                    b.and_(
                        vm.fvar(f.right, i, d),
                        b.or_(vm.fvar(f.left, i, d), vm.fvar(f, i + 1, d)),
                    ),
                )
            )
        elif kk in ("Y", "Z", "S", "T"):
            out.extend(
                _past_constraints(b, vm, f, i, d, end, stabilise and d == dc)
            )
        else:
            raise EncodeError(f"unknown kind {kk!r}")
    return out


def _past_constraints(b, vm, f, i, d, end, stabilise_here):
    kk = f.kind
    v = vm.fvar(f, i, d)
    out = []
    if i == 0:
        if kk == "Y":
            out.append(-v)
        elif kk == "Z":
            out.append(v)
        else:  # S, T start from their right operand
            out.append(b.iff(v, vm.fvar(f.right, 0, d)))
        return out

    def step(prev):
        if kk == "Y" or kk == "Z":
            return prev(f.left)
        if kk == "S":
            return b.or_(vm.fvar(f.right, i, d), b.and_(vm.fvar(f.left, i, d), prev(f)))
        return b.and_(vm.fvar(f.right, i, d), b.or_(vm.fvar(f.left, i, d), prev(f)))

    if d == 0:
        out.append(b.iff(v, step(lambda g: vm.fvar(g, i - 1, 0))))
    else:
        li = vm.loop_sel(i)
        out.append(
            b.iff(
                v,
                step(lambda g: b.ite(li, vm.fvar(g, end, d - 1), vm.fvar(g, i - 1, d))),
            )
        )
    if stabilise_here:
        li = vm.loop_sel(i)
        out.append(
            b.iff(
                v,
                step(lambda g: b.ite(li, vm.fvar(g, end, d), vm.fvar(g, i - 1, d))),
            )
        )
    return out


def _aux_constraints(b, vm, cl, k, aux_style, release_acceptance, end):
    """Eventuality or acceptance chains for until and release subformulas."""
    cons = []
    le = vm.loop_exists()
    chains_done = set()
    for f in cl:
        if f.kind not in ("U", "R"):
            continue
        if aux_style == "eventuality":
            key = (f.kind, f.right.fid)
            if key not in chains_done:
                chains_done.add(key)
                cons.append(_chain_start(vm, f))
                cons.extend(_chain_step(b, vm, f, i) for i in range(1, k + 1))
            cons.append(_chain_end(b, vm, f, end))
        else:  # buechi acceptance chains, keyed by the whole subformula
            if f.kind == "R" and not release_acceptance:
                continue
            a0 = vm.aux_var("ACC", f.fid, 0)
            cons.append(-a0)
            for i in range(1, k + 1):
                ai = vm.aux_var("ACC", f.fid, i)
                prev = vm.aux_var("ACC", f.fid, i - 1)
                sub = vm.fvar(f.right, i, vm.dcap(f.right))
                whole = vm.fvar(f, i, vm.dcap(f))
                if f.kind == "U":
                    hit = b.or_(sub, -whole)
                else:
                    hit = b.or_(-sub, whole)
                cons.append(b.iff(ai, b.or_(prev, b.and_(vm.in_loop(i), hit))))
            cons.append(b.implies(le, vm.aux_var("ACC", f.fid, end)))
    return cons


# Eventuality chains.  An until ``a U c`` has the chain <<F c>>_i, "c held at
# an in-loop position up to i"; a release ``a R c`` has <<G c>>_i, "c held at
# every in-loop position up to i".  Untils (releases) sharing their right
# operand share the chain.  The monolithic and the incremental encodings
# emit the same start, steps and end condition, at ``end`` = k or E_INDEX.


def _chain_var(vm, f, i) -> int:
    role = "F" if f.kind == "U" else "G"
    return vm.aux_var(role, f.right.fid, i)


def _chain_start(vm, f) -> int:
    a0 = _chain_var(vm, f, 0)
    return a0 if f.kind == "R" else -a0


def _chain_step(b, vm, f, i) -> int:
    ai = _chain_var(vm, f, i)
    prev = _chain_var(vm, f, i - 1)
    sub = vm.fvar(f.right, i, vm.dcap(f.right))
    if f.kind == "U":
        return b.iff(ai, b.or_(prev, b.and_(vm.in_loop(i), sub)))
    return b.iff(ai, b.and_(prev, b.or_(-vm.in_loop(i), sub)))


def _chain_end(b, vm, f, end) -> int:
    """Under LoopExists, the top unrolling of f at the path end agrees with
    its chain there."""
    a_end = _chain_var(vm, f, end)
    top = vm.fvar(f, end, vm.dcap(f))
    if f.kind == "U":
        return b.implies(vm.loop_exists(), b.implies(top, a_end))
    return b.implies(vm.loop_exists(), b.implies(a_end, top))


def simple_path_pair(b, vm, cl, model_vars, i, j) -> int:
    """Literal that holds when positions i and j of the path differ.

    Two positions clash when they agree on the model state, the in-loop
    flag, the depth-0 formula values, and, when both are inside the loop,
    on every formula unrolling and eventuality chain.
    """
    diff_state = b.or_(*[b.xor(vm.state_bit(i, n), vm.state_bit(j, n)) for n in model_vars])
    diff_inloop = b.xor(vm.in_loop(i), vm.in_loop(j))
    diff_f0 = b.or_(*[b.xor(vm.fvar(f, i, 0), vm.fvar(f, j, 0)) for f in cl])
    deep = []
    for f in cl:
        for d in range(0, vm.dcap(f) + 1):
            deep.append(b.xor(vm.fvar(f, i, d), vm.fvar(f, j, d)))
    for f in cl:
        if f.kind in ("U", "R"):
            deep.append(b.xor(_chain_var(vm, f, i), _chain_var(vm, f, j)))
    diff_loop_part = b.and_(vm.in_loop(i), vm.in_loop(j), b.or_(*deep))
    return b.or_(diff_state, diff_inloop, diff_f0, diff_loop_part)


# ---------------------------------------------------------------------------
# General Buechi encoding: fair (k,l)-loops of a fair Kripke structure
# ---------------------------------------------------------------------------


def encode_general_buchi(m: SymbolicModel, k, b, vm) -> int:
    """Satisfiable iff the model has an initialised fair (k,l)-loop."""
    cons = [encode_model_k(m, k, b, vm), encode_loop_constraints(k, b, vm, m.vars)]
    cons.append(vm.loop_exists())
    for mi, fexpr in enumerate(m.fairness):
        a0 = vm.aux_var("ACCSET", mi, 0)
        cons.append(-a0)
        for i in range(1, k + 1):
            ai = vm.aux_var("ACCSET", mi, i)
            prev = vm.aux_var("ACCSET", mi, i - 1)
            inset = _expr_lit(b, vm, m, fexpr, i)
            cons.append(b.iff(ai, b.or_(prev, b.and_(vm.in_loop(i), inset))))
        cons.append(b.implies(vm.loop_exists(), vm.aux_var("ACCSET", mi, k)))
    return b.and_(*cons)


# ---------------------------------------------------------------------------
# Incremental encoding
# ---------------------------------------------------------------------------


class IncrementalEncoder:
    """Bound-by-bound PLTL eventuality encoding over one growing solver.

    ``step(k)`` adds the constraints for bound k: the stable part directly,
    the bound-dependent equivalences (end proxy binding, LoopExists, the
    index k+1 hook into the loop proxy) guarded by an activation literal.
    ``query_witness`` solves under the current bound's activator; earlier
    activators are assumed negatively, which retires their constraints while
    keeping every learned clause sound.
    """

    def __init__(
        self,
        m: SymbolicModel,
        psi: Formula,
        d_max=None,
        force_stabilise=False,
        polarity_aware=False,
        simple_path=True,
    ):
        self.m = m
        self.psi = psi
        self.solver = Solver()
        self.b = CircuitBuilder(self.solver, polarity_aware=polarity_aware)
        self.vm = TimedVarMap(self.b, d_max=d_max)
        self.force_stabilise = force_stabilise
        self.simple_path = simple_path
        self.cl = closure(psi)
        self.k = -1

    # -- constraint emission -------------------------------------------------

    def _assert(self, lit):
        self.b.assert_(lit)

    def _guard(self, act, lit):
        self.b.add_clause([-act, lit])

    def step(self, k):
        if k != self.k + 1:
            raise EncodeError(f"step({k}) out of order, expected {self.k + 1}")
        b, vm, m = self.b, self.vm, self.m
        if k == 0:
            self._assert(_expr_lit(b, vm, m, m.init, 0))
            self._emit_base()
        else:
            self._assert(_expr_lit(b, vm, m, m.trans, k - 1, k))
            li = vm.loop_sel(k)
            eq = b.equal_vectors(
                [vm.state_bit(k - 1, n) for n in m.vars],
                [vm.state_bit(E_INDEX, n) for n in m.vars],
            )
            self._assert(b.implies(li, eq))
            self._assert(b.iff(vm.in_loop(k), b.or_(vm.in_loop(k - 1), li)))
            self._assert(b.implies(vm.in_loop(k - 1), -li))
        for f in self.cl:
            for lit in _step_constraints(m, b, vm, f, k, E_INDEX, self.force_stabilise):
                self._assert(lit)
        # loop proxy: l_k selects index k as the loop point
        if k >= 1:
            for f in self.cl:
                for d in range(0, vm.dcap(f) + 1):
                    self._assert(
                        b.implies(
                            vm.loop_sel(k), b.iff(vm.fvar(f, L_INDEX, d), vm.fvar(f, k, d))
                        )
                    )
        self._emit_aux_invariant(k)
        self._emit_simple_path(k)
        self._emit_k_dependent(k)
        self.k = k

    def _emit_base(self):
        b, vm = self.b, self.vm
        le = vm.loop_exists()
        for f in self.cl:
            for d in range(0, vm.dcap(f) + 1):
                self._assert(b.implies(-le, -vm.fvar(f, L_INDEX, d)))
        for f in self.cl:
            if f.kind in ("U", "R"):
                self._assert(_chain_start(vm, f))
                self._assert(_chain_end(b, vm, f, E_INDEX))
        self._assert(vm.fvar(self.psi, 0, 0))

    def _emit_aux_invariant(self, k):
        if k == 0:
            return
        done = set()
        for f in self.cl:
            if f.kind in ("U", "R") and (f.kind, f.right.fid) not in done:
                done.add((f.kind, f.right.fid))
                self._assert(_chain_step(self.b, self.vm, f, k))

    def _emit_k_dependent(self, k):
        b, vm, m = self.b, self.vm, self.m
        act = vm.activation_lit(k)
        for n in m.vars:
            self._guard(act, b.iff(vm.state_bit(E_INDEX, n), vm.state_bit(k, n)))
        self._guard(act, b.iff(vm.loop_exists(), vm.in_loop(k)))
        for f in self.cl:
            for d in range(0, vm.dcap(f) + 1):
                self._guard(act, b.iff(vm.fvar(f, E_INDEX, d), vm.fvar(f, k, d)))
                self._guard(
                    act, b.iff(vm.fvar(f, k + 1, d), vm.fvar(f, L_INDEX, d + 1))
                )
            if f.kind in ("U", "R"):
                self._guard(act, b.iff(_chain_var(vm, f, E_INDEX), _chain_var(vm, f, k)))

    def _emit_simple_path(self, k):
        if not self.simple_path:
            return
        act = self.vm.sp_activation_lit(k)
        for i in range(0, k):
            self._guard(act, simple_path_pair(self.b, self.vm, self.cl, self.m.vars, i, k))

    # -- queries ---------------------------------------------------------------

    def _assumptions(self, witness, simple_path):
        vm = self.vm
        out = []
        for j in range(0, self.k + 1):
            if witness and j == self.k:
                out.append(vm.activation_lit(j))
            else:
                out.append(-vm.activation_lit(j))
        if simple_path:
            if not self.simple_path:
                raise EncodeError("session was built without simple path constraints")
            out.extend(vm.sp_activation_lit(j) for j in range(0, self.k + 1))
        return out

    def query_witness(self, simple_path=False, conflict_budget=None) -> str:
        """Solve the full encoding at the current bound."""
        if self.k < 0:
            raise EncodeError("step(0) must run before queries")
        return self.solver.solve(
            self._assumptions(True, simple_path), conflict_budget=conflict_budget
        )

    def query_completeness(self, conflict_budget=None) -> str:
        """Solve with every bound-dependent constraint retired, plus the
        simple path constraint; UNSAT proves no witness at any larger bound."""
        if self.k < 0:
            raise EncodeError("step(0) must run before queries")
        return self.solver.solve(
            self._assumptions(False, True), conflict_budget=conflict_budget
        )

    def model_value(self, lit) -> bool:
        return self.solver.model_value(lit)
