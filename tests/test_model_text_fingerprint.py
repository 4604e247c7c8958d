"""Model text fingerprints: the exact output of every model rewrite, digested.

Each tag hashes ``model_to_text`` of every model one rewrite builds, in
order: the liveness-to-safety transform with and without input
optimisation, the tight automaton at several unrolling caps, and its
product with a model.  The inputs are both fixtures, one model with
inputs, and seeded minterm models.  A refactor of the rewrites that changes
a digest changed a model file: a variable, a define, a line, or the shape
of an expression.
"""

import hashlib
import random

import pytest

from pltlbmc.l2s import l2s_transform
from pltlbmc.model import model_to_text, parse_model
from pltlbmc.pltl import parse_formula, s_not, to_pnf
from pltlbmc.tightba import build_tight_ba, product

from _fixtures import FIXTURES
from _grid import random_symbolic_model

D_MAX = (None, 0, 1, 2)

# Past and future specs over the counters' defines.
COUNTER_SPECS = [
    "!(F (x3 & O (x4 & O x5)))",
    "G F x4",
    "F G !x3",
    "G (x4 -> Y x3)",
    "G (x2 -> (!x5 S x0))",
    "(x0 | x1) U (G !x5)",
    "G (x5 -> (H !x3 | Z x0))",
    "X (x1 R (x0 T !x2))",
]

# Specs over the minterm models' variables, and over their first
# fairness define when they have one.
GRID_SPECS = ["G F v0", "G (v1 -> Y v0)", "(v0 | v1) U G !v1", "F (v0 & (v1 T !v0))"]
GRID_FAIR_SPECS = ["G F fair0", "G (fair0 -> O v1)"]

GOLDEN = {
    "l2s": "43 31a22c6f132c0d59",
    "l2s-optimise": "43 6f496002b1d83963",
    "tightba": "56 8d4b5f918c3511f1",
    "product": "484 c5bde7abb0934d97",
}


# Input i is free and unobserved, so the optimised transform drops it; input
# j reaches fairness through a define, so it stays.
INPUT_MODEL = """VAR a b i j
INPUT i j
INIT !a
TRANS next(a) <-> (a | i)
TRANS next(b) <-> !b
DEFINE d := a & b
DEFINE e := !b | j
FAIRNESS d
FAIRNESS e
"""


def counter_models():
    return [parse_model((FIXTURES / name).read_text()) for name in ("counter.mod", "counter_fair.mod")]


def grid_models():
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        bits = rng.choice([2, 3, 4])
        out.append(
            random_symbolic_model(rng, bits=bits, fair_sets=rng.choice([0, 1, 2]), n_inputs=rng.choice([0, 1, 2]))
        )
    return out


def pnf_neg(spec):
    return to_pnf(s_not(parse_formula(spec)))


def texts(tag):
    if tag in ("l2s", "l2s-optimise"):
        for m in counter_models() + [parse_model(INPUT_MODEL)] + grid_models():
            yield model_to_text(l2s_transform(m, optimise=tag == "l2s-optimise").model)
    elif tag == "tightba":
        for spec in COUNTER_SPECS + GRID_SPECS + GRID_FAIR_SPECS:
            for d_max in D_MAX:
                yield model_to_text(build_tight_ba(pnf_neg(spec), d_max).model)
    else:
        for m in counter_models():
            for spec in COUNTER_SPECS:
                for d_max in D_MAX:
                    yield model_to_text(product(m, build_tight_ba(pnf_neg(spec), d_max)))
        for m in grid_models():
            specs = GRID_SPECS + (GRID_FAIR_SPECS if "fair0" in m.define_map else [])
            for spec in specs:
                for d_max in (None, 1):
                    yield model_to_text(product(m, build_tight_ba(pnf_neg(spec), d_max)))


def fingerprint(tag):
    h = hashlib.sha256()
    n = 0
    for text in texts(tag):
        h.update(text.encode())
        n += 1
    return f"{n} {h.hexdigest()[:16]}"


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_model_text_fingerprint(tag):
    assert fingerprint(tag) == GOLDEN[tag]


def test_every_automaton_is_a_model_file_that_prints_back_the_same():
    for text in texts("tightba"):
        assert model_to_text(parse_model(text)) == text
