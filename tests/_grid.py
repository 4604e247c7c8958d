"""Seeded random generators shared by the test modules.

Models are generated as explicit sparse graphs over a few state bits and
then synthesised into symbolic form (minterm-based INIT/TRANS), so the
explicit expansion is exactly the intended graph and the oracle's path
enumeration stays cheap.
"""

import random

from pltlbmc import pltl
from pltlbmc.model import parse_model
from pltlbmc.oracle import make_lasso


def minterm(bits, state, nxt=False):
    wrap = (lambda j: f"next(v{j})") if nxt else (lambda j: f"v{j}")
    return " & ".join(("" if (state >> j) & 1 else "!") + wrap(j) for j in range(bits))


def random_symbolic_model(rng: random.Random, bits=3, fair_sets=0, n_inputs=0):
    """Sparse total graph over `bits` variables, as a symbolic model."""
    nstates = 1 << bits
    lines = ["VAR " + " ".join(f"v{j}" for j in range(bits))]
    n_init = rng.choice([1, 1, 2])
    init_states = rng.sample(range(nstates), n_init)
    lines.append("INIT " + " | ".join(f"({minterm(bits, s)})" for s in init_states))
    succ = {}
    for s in range(nstates):
        fanout = rng.choices([1, 2, 3], weights=[70, 25, 5])[0]
        succ[s] = rng.sample(range(nstates), min(fanout, nstates))
        lines.append(
            f"TRANS ({minterm(bits, s)}) -> ("
            + " | ".join(f"({minterm(bits, t, True)})" for t in succ[s])
            + ")"
        )
        # forbid everything else from s
        others = [t for t in range(nstates) if t not in succ[s]]
        if others:
            lines.append(
                f"TRANS ({minterm(bits, s)}) -> !("
                + " | ".join(f"({minterm(bits, t, True)})" for t in others)
                + ")"
            )
    for i in range(fair_sets):
        members = rng.sample(range(nstates), rng.randint(1, max(1, nstates // 2)))
        lines.append(
            f"DEFINE fair{i} := " + " | ".join(f"({minterm(bits, s)})" for s in members)
        )
        lines.append(f"FAIRNESS fair{i}")
    if n_inputs:
        lines.append("INPUT " + " ".join(f"v{j}" for j in range(min(n_inputs, bits))))
    return parse_model("\n".join(lines))


def random_pnf_formula(rng: random.Random, atoms, max_cl=8, max_delta=3, allow_past=True, allow_future=True):
    """Random PNF formula with bounded closure size and past depth."""
    future = ["X", "U", "R"] if allow_future else []
    past = ["Y", "Z", "S", "T"] if allow_past else []
    for _ in range(200):
        f = _rand_formula(rng, atoms, rng.randint(1, 4), future + past)
        if len(pltl.closure(f)) <= max_cl and pltl.past_depth(f) <= max_delta:
            return f
    raise RuntimeError("could not generate a formula within bounds")


def _rand_formula(rng, atoms, size, temporal_ops):
    if size <= 1:
        pick = rng.randrange(6)
        name = rng.choice(atoms)
        if pick < 3:
            return pltl.mk_atom(name)
        if pick < 5:
            return pltl.mk_natom(name)
        return pltl.TRUE if rng.random() < 0.5 else pltl.FALSE
    op = rng.choice(["&", "|"] + temporal_ops)
    if op in ("X", "Y", "Z"):
        return pltl._intern(op, left=_rand_formula(rng, atoms, size - 1, temporal_ops))
    ls = rng.randint(1, size - 1)
    left = _rand_formula(rng, atoms, ls, temporal_ops)
    right = _rand_formula(rng, atoms, size - ls, temporal_ops)
    return pltl._intern(op, left=left, right=right)


def random_surface_formula(rng: random.Random, atoms, size=4):
    """Random surface formula, negations and derived operators included."""
    if size <= 1:
        r = rng.randrange(5)
        if r == 0:
            return pltl.S_TRUE if rng.random() < 0.5 else pltl.S_FALSE
        return pltl.s_atom(rng.choice(atoms))
    op = rng.choice(["!", "&", "|", "->", "<->", "X", "F", "G", "U", "R", "Y", "Z", "O", "H", "S", "T"])
    if op in ("!", "X", "F", "G", "Y", "Z", "O", "H"):
        return pltl.s_unop(op, random_surface_formula(rng, atoms, size - 1))
    ls = rng.randint(1, size - 1)
    return pltl.s_binop(
        op,
        random_surface_formula(rng, atoms, ls),
        random_surface_formula(rng, atoms, size - ls),
    )


def random_lasso_word(rng: random.Random, atoms, max_total=6):
    total = rng.randint(1, max_total)
    loop_len = rng.randint(1, total)
    prefix_len = total - loop_len
    mk = lambda: {a for a in atoms if rng.random() < 0.5}
    return make_lasso([mk() for _ in range(prefix_len)], [mk() for _ in range(loop_len)])


def word_model(word, atoms):
    """Symbolic model generating exactly the given lasso word's labels."""
    n = len(word.prefix) + len(word.loop)
    bits = max(1, (n - 1).bit_length())
    lines = ["VAR " + " ".join(f"wp{i}" for i in range(bits))]

    def mt(state, nxt=False):
        wrap = (lambda j: f"next(wp{j})") if nxt else (lambda j: f"wp{j}")
        return " & ".join(("" if (state >> j) & 1 else "!") + wrap(j) for j in range(bits))

    lines.append("INIT " + mt(0))
    for t in range(1 << bits):
        if t < n:
            succ = t + 1 if t + 1 < n else len(word.prefix)
        else:
            succ = 0  # unreachable filler positions
        lines.append(f"TRANS ({mt(t)}) -> ({mt(succ, True)})")
    for a in atoms:
        states = [t for t in range(n) if a in word.at(t)]
        if states:
            lines.append(f"DEFINE {a} := " + " | ".join(f"({mt(t)})" for t in states))
        else:
            lines.append(f"DEFINE {a} := false")
    return parse_model("\n".join(lines))


def random_cnf(rng: random.Random, nvars, nclauses, width=3):
    clauses = []
    for _ in range(nclauses):
        k = min(nvars, width)
        vs = rng.sample(range(1, nvars + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses
