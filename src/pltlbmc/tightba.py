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
    shift,
    substitute,
    BTRUE,
    BFALSE,
    ModelError,
    RESERVED_NAMES,
)

INLOOP_VAR = "ba_inloop"
LE_VAR = "ba_le"
VAR_PREFIX = "ba"


class TightBAError(ModelError):
    pass


@dataclass(frozen=True)
class TightBA:
    model: SymbolicModel  # vars: atoms + unrolled temporal vars + oracles
    atom_names: tuple


def build_tight_ba(psi: Formula, d_max=None) -> TightBA:
    """Construct the automaton accepting exactly the words satisfying psi.

    One pass over the closure, children first, writes each temporal
    node's state variables, transition rules, initial condition and
    acceptance set.  Every name the automaton writes, a state variable or
    an and/or define, is reserved against the atoms of psi."""
    if d_max is not None and d_max < 0:
        raise TightBAError(
            f"d_max must be a non-negative integer or None for full unrolling, got {d_max}"
        )
    cl = closure(psi)
    atoms = tuple(sorted(atoms_of(psi)))
    index = {f.fid: n for n, f in enumerate(cl)}

    def dcap(f):
        return past_depth(f) if d_max is None else min(d_max, past_depth(f))

    def name(f, d):
        """The state variable of a temporal node, or the define of an
        and/or node, at unrolling d capped at the node's depth."""
        return f"{VAR_PREFIX}{index[f.fid]}d{min(d, dcap(f))}"

    def expr(f, d) -> BoolExpr:
        k = f.kind
        if k == "true":
            return BTRUE
        if k == "false":
            return BFALSE
        if k == "atom":
            return bvar(f.name)
        if k == "natom":
            return bnot(bvar(f.name))
        return bvar(name(f, d))

    defines = {}  # define name -> body, in the order the bodies were written

    def ref(f, d) -> BoolExpr:
        """``expr(f, d)``, once every and/or node it reaches below the
        temporal nodes has its define, operands first.  An explicit stack
        walks the nodes, so formulas of any depth are fine."""
        stack = [(f, d, False)]
        while stack:
            g, e, ready = stack.pop()
            if g.kind not in ("&", "|"):
                continue
            n = name(g, e)
            if n in defines:
                continue
            if ready:
                sub = band if g.kind == "&" else bor
                defines[n] = sub(expr(g.left, e), expr(g.right, e))
            else:
                stack += [(g, e, True), (g.right, e, False), (g.left, e, False)]
        return expr(f, d)

    def nref(f, d) -> BoolExpr:
        # macros expand before shifting; next() may only hit state variables
        return shift(ref(f, d), defines)

    inloop = bvar(INLOOP_VAR)
    le = bvar(LE_VAR)
    inloop_n = bnext(INLOOP_VAR)
    le_n = bnext(LE_VAR)

    state = []
    init = [bimp(le, inloop)]
    trans = [bimp(inloop, inloop_n), bimp(le_n, inloop_n)]
    fairness = []
    for f in cl:
        k = f.kind
        if k not in ("X", "U", "R", "Y", "Z", "S", "T"):
            continue
        top = dcap(f)
        # U and S are R and T with the roles of & and | swapped
        outer, inner = (bor, band) if k in ("U", "S") else (band, bor)
        for d in range(top + 1):
            state.append(name(f, d))
            stay = bnot(le)
            if d > 0:
                stay = band(stay, bnot(band(bnot(inloop), inloop_n)))
            # within an iteration the successor reads unrolling d, at its
            # last state the next unrolling d + 1
            for guard, e in ((stay, d), (le, d + 1)):
                if k == "X":
                    rule = biff(ref(f, d), nref(f.left, e))
                elif k in ("U", "R"):
                    rule = biff(ref(f, d), outer(ref(f.right, d), inner(ref(f.left, d), nref(f, e))))
                elif k in ("Y", "Z"):
                    rule = biff(nref(f, e), ref(f.left, d))
                else:
                    rule = biff(nref(f, e), outer(nref(f.right, e), inner(nref(f.left, e), ref(f, d))))
                trans.append(bimp(guard, rule))
        if k == "Y":
            init.append(bnot(ref(f, 0)))
        elif k == "Z":
            init.append(ref(f, 0))
        elif k in ("S", "T"):
            init.append(biff(ref(f, 0), ref(f.right, 0)))
        elif k == "U":
            fairness.append(bor(bnot(ref(f, top)), ref(f.right, top)))
        elif k == "R":
            fairness.append(bor(ref(f, top), bnot(ref(f.right, top))))
    init.append(ref(psi, 0))
    fairness.append(le)

    own = state + [INLOOP_VAR, LE_VAR]
    clash = set(atoms) & (set(own) | set(defines) | RESERVED_NAMES)
    if clash:
        raise TightBAError(f"atom names collide with automaton or reserved names: {sorted(clash)}")
    model = SymbolicModel(
        vars=atoms + tuple(own),
        init=band_all(init),
        trans=band_all(trans),
        defines=tuple(defines.items()),
        fairness=tuple(fairness),
        inputs=frozenset(),
        spec_text=None,
    )
    return TightBA(model=model, atom_names=atoms)


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
    clash = (set(ba_own) | set(b.model.define_map)) & model_names
    if clash:
        raise TightBAError(f"name clash between model and automaton: {sorted(clash)}")

    define_map = m.define_map

    # next(atom) where the atom is a model define: substitute the shifted body
    def leaf(kind, name):
        if kind == "next" and name in define_map:
            return shift(define_map[name], define_map)
        return BoolExpr(kind, name=name)

    def read(e):
        return substitute(e, leaf)

    return SymbolicModel(
        vars=tuple(m.vars) + tuple(ba_own),
        init=band(m.init, read(b.model.init)),
        trans=band(m.trans, read(b.model.trans)),
        defines=tuple(m.defines) + tuple((n, read(e)) for n, e in b.model.defines),
        fairness=tuple(m.fairness) + tuple(read(e) for e in b.model.fairness),
        inputs=m.inputs,
        spec_text=None,
    )
