"""Seeded input generators for the benchmark.

These are the benchmark's own copies of the acceptance-grid generators, so
that an edit to a test never changes the benchmark's inputs.  The program
under test only sees the text made here (model files and formula strings).

Models are sparse explicit graphs over a few state bits, synthesised into
minterm-based INIT/TRANS sections, so the explicit expansion is exactly the
intended graph and the brute-force oracle stays cheap.
"""

import random
from dataclasses import dataclass

FUTURE_OPS = ("X", "U", "R")
PAST_OPS = ("Y", "Z", "S", "T")


# ---------------------------------------------------------------------------
# Random symbolic models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Explicit transition graph over ``bits`` variables v0..; state s sets
    v_j to bit j of s.  ``fair`` holds one state set per FAIRNESS line."""

    bits: int
    init: tuple
    succ: tuple  # per state, its successors
    fair: tuple = ()


def random_graph(rng: random.Random, bits, fair_sets=0):
    """Sparse total graph: one or two initial states, fan-out 1 to 3."""
    nstates = 1 << bits
    init = tuple(rng.sample(range(nstates), rng.choice([1, 1, 2])))
    succ = []
    for _ in range(nstates):
        fanout = rng.choices([1, 2, 3], weights=[70, 25, 5])[0]
        succ.append(tuple(rng.sample(range(nstates), min(fanout, nstates))))
    fair = tuple(
        tuple(rng.sample(range(nstates), rng.randint(1, max(1, nstates // 2)))) for _ in range(fair_sets)
    )
    return Graph(bits, init, tuple(succ), fair)


def minterm(bits, state, nxt=False):
    wrap = (lambda j: f"next(v{j})") if nxt else (lambda j: f"v{j}")
    return " & ".join(("" if (state >> j) & 1 else "!") + wrap(j) for j in range(bits))


def model_text(g: Graph):
    """The graph as a symbolic model with minterm-based INIT and TRANS."""
    bits, nstates = g.bits, 1 << g.bits
    lines = ["VAR " + " ".join(f"v{j}" for j in range(bits))]
    lines.append("INIT " + " | ".join(f"({minterm(bits, s)})" for s in g.init))
    for s, succ in enumerate(g.succ):
        lines.append(
            f"TRANS ({minterm(bits, s)}) -> ("
            + " | ".join(f"({minterm(bits, t, True)})" for t in succ)
            + ")"
        )
        others = [t for t in range(nstates) if t not in succ]
        if others:
            lines.append(
                f"TRANS ({minterm(bits, s)}) -> !("
                + " | ".join(f"({minterm(bits, t, True)})" for t in others)
                + ")"
            )
    for i, members in enumerate(g.fair):
        lines.append(f"DEFINE fair{i} := " + " | ".join(f"({minterm(bits, s)})" for s in members))
        lines.append(f"FAIRNESS fair{i}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Random PNF formulas
#
# A formula is a nested tuple: ("true",), ("false",), ("atom", name),
# ("natom", name), (op, sub) for X Y Z, or (op, left, right) for & | U R S T.
# ---------------------------------------------------------------------------


def random_pnf_formula(rng: random.Random, atoms, max_cl=8, max_delta=3, allow_past=True):
    """Random PNF formula with bounded closure size and past depth."""
    ops = FUTURE_OPS + (PAST_OPS if allow_past else ())
    for _ in range(200):
        f = _rand_formula(rng, atoms, rng.randint(1, 4), ops)
        if len(_subformulas(f)) <= max_cl and past_depth(f) <= max_delta:
            return f
    raise RuntimeError("could not generate a formula within bounds")


def _rand_formula(rng, atoms, size, temporal_ops):
    if size <= 1:
        pick = rng.randrange(6)
        name = rng.choice(atoms)
        if pick < 3:
            return ("atom", name)
        if pick < 5:
            return ("natom", name)
        return ("true",) if rng.random() < 0.5 else ("false",)
    op = rng.choice(["&", "|"] + list(temporal_ops))
    if op in ("X", "Y", "Z"):
        return (op, _rand_formula(rng, atoms, size - 1, temporal_ops))
    ls = rng.randint(1, size - 1)
    left = _rand_formula(rng, atoms, ls, temporal_ops)
    right = _rand_formula(rng, atoms, size - ls, temporal_ops)
    return (op, left, right)


def _subformulas(f, out=None):
    out = set() if out is None else out
    if f not in out:
        out.add(f)
        for sub in f[1:]:
            if isinstance(sub, tuple):
                _subformulas(sub, out)
    return out


def past_depth(f):
    kids = [past_depth(sub) for sub in f[1:] if isinstance(sub, tuple)]
    return (1 if f[0] in PAST_OPS else 0) + max(kids, default=0)


def formula_text(f):
    kind = f[0]
    if kind in ("true", "false"):
        return kind
    if kind == "atom":
        return f[1]
    if kind == "natom":
        return "!" + f[1]
    if len(f) == 2:
        return f"{kind} ({formula_text(f[1])})"
    return f"({formula_text(f[1])}) {kind} ({formula_text(f[2])})"


# ---------------------------------------------------------------------------
# Workload inputs
#
# Random inputs of this size differ a lot in cost: whether a witness exists,
# its length and the formula's size move a verdict's time by 10x or more.
# So the grid and fair workloads draw their instances' shapes once, from a
# fixed base seed, in blocks of a fixed composition, and the run's seed
# makes each instance concrete: it renames and negates the state variables
# (an isomorphic model, with the formula's atoms renamed to match) and
# shuffles the order.  Verdicts and bounds stay the same for every seed;
# the models, formulas and encodings the program sees do not.
# ---------------------------------------------------------------------------


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def relabel(rng: random.Random, g: Graph, f=None):
    """An isomorphic copy of ``g`` (and formula ``f`` over it): variable j
    becomes variable perm[j], complemented where bit j of ``flip`` is set."""
    perm = _shuffled(rng, range(g.bits))
    flip = rng.randrange(1 << g.bits)

    def state(s):
        return sum((((s ^ flip) >> j) & 1) << perm[j] for j in range(g.bits))

    succ = [()] * (1 << g.bits)
    for s, targets in enumerate(g.succ):
        succ[state(s)] = tuple(state(t) for t in targets)
    h = Graph(
        g.bits,
        tuple(state(s) for s in g.init),
        tuple(succ),
        tuple(tuple(state(s) for s in members) for members in g.fair),
    )
    return h, (None if f is None else _rename(f, perm, flip))


def _rename(f, perm, flip):
    kind = f[0]
    if kind in ("atom", "natom"):
        j = int(f[1][1:])
        negated = (kind == "natom") != bool((flip >> j) & 1)
        return ("natom" if negated else "atom", f"v{perm[j]}")
    return (kind,) + tuple(_rename(sub, perm, flip) for sub in f[1:])


# A grid block holds 20 pairs of a fixed composition: (state bits, formula
# uses past operators, a witness exists within the bound).  Like the
# acceptance grid, 40% have no witness and the others need k >= 2.
GRID_BLOCK = (
    ((2, True, True),) * 3 + ((2, True, False),) * 2 + ((2, False, True),) * 3 + ((2, False, False),)
    + ((3, True, True),) * 3 + ((3, True, False),) * 2 + ((3, False, True),) * 2 + ((3, False, False),)
    + ((4, True, True), (4, True, False), (4, False, False))
)
GRID_MIN_K = 2
MAX_TRIES = 10_000


def loop_sensitive(rng: random.Random, f):
    """Wrap like the acceptance grid: G F (35%), F (20%), G (15%), bare."""
    wrap = rng.random()
    if wrap < 0.35:
        return ("R", ("false",), ("U", ("true",), f))
    if wrap < 0.55:
        return ("U", ("true",), f)
    if wrap < 0.7:
        return ("R", ("false",), f)
    return f


def grid_block(rng: random.Random, witness_k):
    """One block of (graph, witness formula, uses past operators) triples.

    The witness formula is the negated property: a verdict WITNESS k means
    some k-bounded path satisfies it.  ``witness_k(graph, formula)`` gives
    the minimal witness bound or None; candidates are drawn until they fit
    their slot of :data:`GRID_BLOCK`.
    """
    out = []
    for bits, past, has_witness in GRID_BLOCK:
        atoms = [f"v{j}" for j in range(bits)]
        for _ in range(MAX_TRIES):
            g = random_graph(rng, bits)
            f = random_pnf_formula(rng, atoms, max_cl=7, max_delta=3, allow_past=past)
            if past and past_depth(f) == 0:
                continue
            f = loop_sensitive(rng, f)
            k = witness_k(g, f)
            if (k is not None) == has_witness and (k is None or k >= GRID_MIN_K):
                break
        else:
            raise RuntimeError(f"no grid pair for slot {(bits, past, has_witness)}")
        out.append((g, f, past))
    return out


# A fair block holds 12 models of a fixed composition: (state bits,
# FAIRNESS sets, a fair lasso exists).  Without a fair lasso every check
# runs to its bound, so a third of each block has none.
FAIR_BLOCK = (
    (2, 1, True), (2, 1, True), (2, 2, True), (2, 2, False),
    (3, 1, True), (3, 1, True), (3, 2, True), (3, 2, False),
    (4, 1, True), (4, 1, False), (4, 2, True), (4, 2, False),
)


def fair_block(rng: random.Random, fair_k, max_k):
    """One block of graphs with one or two fair sets.

    ``fair_k(graph)`` gives the minimal fair lasso length or None; a graph
    with a fair lasso needs one of length at most ``max_k``.
    """
    out = []
    for bits, sets, has_lasso in FAIR_BLOCK:
        for _ in range(MAX_TRIES):
            g = random_graph(rng, bits, fair_sets=sets)
            k = fair_k(g)
            if (k is not None) == has_lasso and (k is None or k <= max_k):
                break
        else:
            raise RuntimeError(f"no fair model for slot {(bits, sets, has_lasso)}")
        out.append(g)
    return out


def counter_text(width, names):
    """Binary counter over ``names`` (least significant first), from zero.

    DEFINEs ``top`` (all ones) and ``zero`` (all zeros).  The counter visits
    its 2**width values in order and wraps around.
    """
    lines = ["VAR " + " ".join(names)]
    lines.append("INIT " + " & ".join("!" + b for b in names))
    for i, b in enumerate(names):
        carry = " & ".join(names[:i]) if i else "true"
        lines.append(f"TRANS next({b}) <-> !({b} <-> ({carry}))")
    lines.append("DEFINE top := " + " & ".join(names))
    lines.append("DEFINE zero := " + " & ".join("!" + b for b in names))
    return "\n".join(lines) + "\n"


def stall_counter_text(names, stall):
    """Two-bit counter from zero that holds its value whenever ``stall``
    (a free INPUT) is set."""
    lo, hi = names
    lines = [f"VAR {lo} {hi} {stall}", f"INPUT {stall}", f"INIT !{lo} & !{hi}"]
    lines.append(f"TRANS {stall} -> ((next({lo}) <-> {lo}) & (next({hi}) <-> {hi}))")
    lines.append(f"TRANS !{stall} -> ((next({lo}) <-> !{lo}) & (next({hi}) <-> ({hi} <-> !{lo})))")
    lines.append(f"DEFINE top := {lo} & {hi}")
    lines.append(f"DEFINE zero := !{lo} & !{hi}")
    return "\n".join(lines) + "\n"
