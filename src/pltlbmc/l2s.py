"""Liveness-to-safety: turn fair-path existence into reachability.

The transformed model carries a shadow copy of the (unoptimised) state
variables, an oracle bit that guesses the loop start and latches the copy,
an in-loop flag, and one sticky flag per acceptance set.  ``LoopClosed`` is a
macro that is true exactly when the loop has been entered, every acceptance
set has been visited inside it, and the current state equals the recorded
copy; reaching a LoopClosed state is equivalent to the existence of an
initialised fair path in the original model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    SymbolicModel,
    band,
    band_all,
    biff,
    bimp,
    bnext,
    bnot,
    bor,
    bvar,
    eval_expr_np,
    explicit_expand,
    input_vars_irrelevant_for_fairness,
    state_count,
    shift,
    successors,
    valuations,
    ModelError,
)

# The search below no longer calls ``explicit_expand``; the name stays
# exported because perfbench's tracer patches it here.
__all__ = [
    "ACC_PREFIX",
    "COPY_PREFIX",
    "INLOOP_VAR",
    "SAVE_VAR",
    "TARGET",
    "L2SError",
    "L2SModel",
    "Reachable",
    "Unreachable",
    "check_l2s_reachability",
    "explicit_expand",
    "l2s_transform",
]

SAVE_VAR = "l2s_save"
INLOOP_VAR = "l2s_inloop"
ACC_PREFIX = "l2s_acc"
COPY_PREFIX = "l2s_copy_"
TARGET = "LoopClosed"


class L2SError(ModelError):
    pass


@dataclass(frozen=True)
class L2SModel:
    model: SymbolicModel
    target: str
    optimised_out: tuple


@dataclass(frozen=True)
class Reachable:
    depth: int
    trace: tuple  # per step, dict var -> bool over the transformed model


@dataclass(frozen=True)
class Unreachable:
    pass


def l2s_transform(m: SymbolicModel, optimise=False) -> L2SModel:
    """Build the safety model whose LoopClosed states witness fair paths."""
    define_map = m.define_map
    dropped = input_vars_irrelevant_for_fairness(m) if optimise else frozenset()
    copied = tuple(v for v in m.vars if v not in dropped)
    copies = {v: COPY_PREFIX + v for v in copied}
    acc_vars = [f"{ACC_PREFIX}{i}" for i in range(len(m.fairness))]
    # every name the transform writes besides the model's own
    reserved = {SAVE_VAR, INLOOP_VAR, TARGET, *acc_vars, *copies.values()}
    clash = reserved & (set(m.vars) | set(define_map))
    if clash:
        raise L2SError(f"model already uses reserved names: {sorted(clash)}")

    new_vars = tuple(m.vars) + tuple(copies[v] for v in copied) + (SAVE_VAR, INLOOP_VAR) + tuple(acc_vars)

    init = band_all(
        [m.init, bnot(bvar(SAVE_VAR)), bnot(bvar(INLOOP_VAR))]
        + [bnot(bvar(a)) for a in acc_vars]
    )

    trans_parts = [m.trans]
    # the copy latches the pre-loop state exactly when the oracle fires
    for v in copied:
        c = copies[v]
        trans_parts.append(bimp(bnext(SAVE_VAR), biff(bnext(c), bvar(v))))
        trans_parts.append(bimp(bnot(bnext(SAVE_VAR)), biff(bnext(c), bvar(c))))
    trans_parts.append(biff(bnext(INLOOP_VAR), bor(bvar(INLOOP_VAR), bnext(SAVE_VAR))))
    trans_parts.append(bimp(bvar(INLOOP_VAR), bnot(bnext(SAVE_VAR))))
    for i, fexpr in enumerate(m.fairness):
        fnext = shift(fexpr, define_map)
        trans_parts.append(
            biff(bnext(acc_vars[i]), bor(bvar(acc_vars[i]), band(bnext(INLOOP_VAR), fnext)))
        )

    loop_closed = band_all(
        [bvar(INLOOP_VAR)]
        + [biff(bvar(v), bvar(copies[v])) for v in copied]
        + [bvar(a) for a in acc_vars]
    )

    out = SymbolicModel(
        vars=new_vars,
        init=init,
        trans=band_all(trans_parts),
        defines=tuple(m.defines) + ((TARGET, loop_closed),),
        fairness=(),
        inputs=m.inputs,
        spec_text=f"G !{TARGET}",
    )
    return L2SModel(
        model=out,
        target=TARGET,
        optimised_out=tuple(sorted(dropped)),
    )


def check_l2s_reachability(l: L2SModel, max_bits=16):
    """Breadth-first search for the shortest reachable LoopClosed state.

    The search runs on the fly: INIT is evaluated once over all valuations,
    the target on each layer's states, and TRANS only for the states of
    layers that miss the target.  States are visited in ascending order
    within a layer and successors in ascending order, so the first state
    that reaches another becomes its parent.  A dead end raises
    ``TotalityError`` when the search expands it; dead ends it never
    expands are not reported.
    """
    m = l.model
    nstates = state_count(m, max_bits)
    init = eval_expr_np(m.init, valuations(m.vars, np.arange(nstates, dtype=np.int64)), None, m.define_map)
    frontier = np.nonzero(np.broadcast_to(init, (nstates,)))[0]
    target = bvar(l.target)
    parent = {}
    seen = set(frontier.tolist())
    depth = 0
    while len(frontier):
        hits = eval_expr_np(target, valuations(m.vars, frontier), None, m.define_map)
        hits = np.broadcast_to(hits, frontier.shape)
        if hits.any():
            s = int(frontier[np.argmax(hits)])
            trace = [s]
            while s in parent:
                s = parent[s]
                trace.append(s)
            trace.reverse()
            return Reachable(
                depth=depth,
                trace=tuple({v: bool((s >> j) & 1) for j, v in enumerate(m.vars)} for s in trace),
            )
        nxt = []
        for s, succ in zip(frontier.tolist(), successors(m, frontier)):
            for t in succ:
                if t not in seen:
                    seen.add(t)
                    parent[t] = s
                    nxt.append(t)
        frontier = np.array(nxt, dtype=np.int64)
        depth += 1
    return Unreachable()
