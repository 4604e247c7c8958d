"""Tight symbolic Buechi automata for PLTL via virtual unrolling.

The automaton carries one state variable per temporal subformula and
unrolling level (0..depth), plus two oracle bits: an in-loop flag and a bit
marking the last state of each loop iteration.  Atoms, Boolean nodes, and
levels above a subformula's depth are macros rather than state variables.
Acceptance uses one set per until and release subformula, evaluated at the
top unrolling, plus the loop-iteration bit itself.

Convention note: unlike the bound-indexed encodings, the automaton guesses
loops one state early (the in-loop flag rises at the state *before* the
first loop state, and the iteration bit marks the state just before each
wrap).  Its oracles are internal state variables, so product formation and
emptiness checking need no index adjustment; only when interpreting runs of
the raw automaton does the shift matter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pltl import Formula, closure, past_depth, atoms_of
from .model import (
    SymbolicModel,
    BoolExpr,
    band,
    band_all,
    biff,
    bimp,
    bnext,
    bnot,
    bor,
    bvar,
    expand_defines,
    to_next,
    BTRUE,
    BFALSE,
    ModelError,
)

INLOOP_VAR = "ba_inloop"
LE_VAR = "ba_le"
VAR_PREFIX = "ba"


class TightBAError(ModelError):
    pass


@dataclass(frozen=True)
class TightBA:
    model: SymbolicModel  # vars: atoms + unrolled temporal vars + oracles
    formula: Formula
    atom_names: tuple
    inloop_var: str
    le_var: str
    temporal_vars: tuple  # ((fid, d, varname), ...)


def build_tight_ba(psi: Formula, d_max=None) -> TightBA:
    """Construct the automaton accepting exactly the words satisfying psi."""
    if d_max is not None and d_max < 0:
        raise TightBAError(
            f"d_max must be a non-negative integer or None for full unrolling, got {d_max}"
        )
    cl = closure(psi)
    atoms = tuple(sorted(atoms_of(psi)))

    def dcap(f):
        return past_depth(f) if d_max is None else min(d_max, past_depth(f))

    index = {f.fid: n for n, f in enumerate(cl)}
    temporal = [f for f in cl if f.kind in ("X", "U", "R", "Y", "Z", "S", "T")]
    names = {}
    for f in temporal:
        for d in range(dcap(f) + 1):
            names[(f.fid, d)] = f"{VAR_PREFIX}{index[f.fid]}d{d}"

    reserved = set(names.values()) | {INLOOP_VAR, LE_VAR}
    clash = reserved & set(atoms)
    if clash:
        raise TightBAError(f"atom names collide with automaton variables: {sorted(clash)}")

    defines = []
    define_map = {}

    def ref(f, d) -> BoolExpr:
        d = min(d, dcap(f))
        k = f.kind
        if k == "true":
            return BTRUE
        if k == "false":
            return BFALSE
        if k == "atom":
            return bvar(f.name)
        if k == "natom":
            return bnot(bvar(f.name))
        if k in ("&", "|"):
            dn = f"{VAR_PREFIX}{index[f.fid]}d{d}"
            if dn not in define_map:
                sub = band if k == "&" else bor
                body = sub(ref(f.left, d), ref(f.right, d))
                defines.append((dn, body))
                define_map[dn] = body
            return bvar(dn)
        return bvar(names[(f.fid, d)])

    def nref(f, d) -> BoolExpr:
        # macros expand before shifting; next() may only hit state variables
        return to_next(expand_defines(ref(f, d), define_map))

    inloop = bvar(INLOOP_VAR)
    le = bvar(LE_VAR)
    inloop_n = bnext(INLOOP_VAR)
    le_n = bnext(LE_VAR)

    trans = [bimp(inloop, inloop_n)]
    init = []

    state_inv = bimp(le, inloop)
    init.append(state_inv)
    trans.append(bimp(le_n, inloop_n))

    for f in temporal:
        k = f.kind
        for d in range(dcap(f) + 1):
            stay = bnot(le)
            if d > 0:
                stay = band(stay, bnot(band(bnot(inloop), inloop_n)))
            if k == "X":
                trans.append(bimp(stay, biff(ref(f, d), nref(f.left, d))))
                trans.append(bimp(le, biff(ref(f, d), nref(f.left, d + 1))))
            elif k == "U":
                trans.append(
                    bimp(stay, biff(ref(f, d), bor(ref(f.right, d), band(ref(f.left, d), nref(f, d)))))
                )
                trans.append(
                    bimp(le, biff(ref(f, d), bor(ref(f.right, d), band(ref(f.left, d), nref(f, d + 1)))))
                )
            elif k == "R":
                trans.append(
                    bimp(stay, biff(ref(f, d), band(ref(f.right, d), bor(ref(f.left, d), nref(f, d)))))
                )
                trans.append(
                    bimp(le, biff(ref(f, d), band(ref(f.right, d), bor(ref(f.left, d), nref(f, d + 1)))))
                )
            elif k in ("Y", "Z"):
                trans.append(bimp(stay, biff(nref(f, d), ref(f.left, d))))
                trans.append(bimp(le, biff(nref(f, d + 1), ref(f.left, d))))
            elif k == "S":
                trans.append(
                    bimp(stay, biff(nref(f, d), bor(nref(f.right, d), band(nref(f.left, d), ref(f, d)))))
                )
                trans.append(
                    bimp(
                        le,
                        biff(
                            nref(f, d + 1),
                            bor(nref(f.right, d + 1), band(nref(f.left, d + 1), ref(f, d))),
                        ),
                    )
                )
            elif k == "T":
                trans.append(
                    bimp(stay, biff(nref(f, d), band(nref(f.right, d), bor(nref(f.left, d), ref(f, d)))))
                )
                trans.append(
                    bimp(
                        le,
                        biff(
                            nref(f, d + 1),
                            band(nref(f.right, d + 1), bor(nref(f.left, d + 1), ref(f, d))),
                        ),
                    )
                )

    for f in temporal:
        if f.kind == "Y":
            init.append(bnot(ref(f, 0)))
        elif f.kind == "Z":
            init.append(ref(f, 0))
        elif f.kind == "S":
            init.append(biff(ref(f, 0), ref(f.right, 0)))
        elif f.kind == "T":
            init.append(biff(ref(f, 0), ref(f.right, 0)))

    init.append(ref(psi, 0))

    fairness = []
    for f in cl:
        if f.kind == "U":
            fairness.append(bor(bnot(ref(f, dcap(f))), ref(f.right, dcap(f))))
        elif f.kind == "R":
            fairness.append(bor(ref(f, dcap(f)), bnot(ref(f.right, dcap(f)))))
    fairness.append(le)

    var_list = list(atoms)
    tvars = []
    for f in temporal:
        for d in range(dcap(f) + 1):
            var_list.append(names[(f.fid, d)])
            tvars.append((f.fid, d, names[(f.fid, d)]))
    var_list.extend([INLOOP_VAR, LE_VAR])

    # order defines children-first so references resolve
    model = SymbolicModel(
        vars=tuple(var_list),
        init=band_all(init),
        trans=band_all(trans),
        defines=tuple(defines),
        fairness=tuple(fairness),
        inputs=frozenset(),
        spec_text=None,
    )
    return TightBA(
        model=model,
        formula=psi,
        atom_names=atoms,
        inloop_var=INLOOP_VAR,
        le_var=LE_VAR,
        temporal_vars=tuple(tvars),
    )


def product(m: SymbolicModel, b: TightBA) -> SymbolicModel:
    """Synchronous product: the automaton reads the model's propositions.

    Every atom of the automaton must resolve to a model variable or define;
    the automaton's own variables are merged in and its fairness becomes the
    fairness of the product.
    """
    model_names = set(m.vars) | set(m.define_map)
    for a in b.atom_names:
        if a not in model_names:
            raise TightBAError(f"unresolved atom {a!r}: not a model variable or define")
    ba_own = [v for v in b.model.vars if v not in b.atom_names]
    clash = set(ba_own) & model_names
    if clash:
        raise TightBAError(f"name clash between model and automaton: {sorted(clash)}")
    clash = {n for n, _ in b.model.defines} & (model_names | set(ba_own))
    if clash:
        raise TightBAError(f"define name clash: {sorted(clash)}")

    define_map = m.define_map
    # next(atom) where the atom is a model define: substitute the shifted body
    def fix_next(expr):
        k = expr.kind
        if k == "next" and expr.name in define_map:
            return to_next(expand_defines(define_map[expr.name], define_map))
        if expr.args:
            return BoolExpr(k, name=expr.name, args=tuple(fix_next(a) for a in expr.args))
        return expr

    return SymbolicModel(
        vars=tuple(m.vars) + tuple(ba_own),
        init=band(m.init, fix_next(b.model.init)),
        trans=band(m.trans, fix_next(b.model.trans)),
        defines=tuple(m.defines) + tuple((n, fix_next(e)) for n, e in b.model.defines),
        fairness=tuple(m.fairness) + tuple(fix_next(e) for e in b.model.fairness),
        inputs=m.inputs,
        spec_text=None,
    )
