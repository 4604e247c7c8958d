"""CNF fingerprints: the exact clause database of every encoding, digested.

Each tag encodes both fixtures under a handful of specs for every bound
k <= 6 and hashes ``repr((solver.nvars, solver.db))`` of each instance in
order.  A refactor of the encoders that changes a digest changed the CNF:
a clause, its literal order, or the order in which variables are created.
A deliberate change of an encoding records new golden digests.

The ``incremental-`` tags hash the session of one scheme after each
``step(k)`` instead: ``incremental-sp0``/``incremental-sp1`` the pltl
session, the others the session named after them.

The ``minterm:`` tags do the same for two seeded minterm models, whose
INIT and TRANS repeat each state's minterm and share most of their
subterms: one 4-bit model and one 3-bit model with fairness defines.

The ``shared:`` tags do the same for specs on ``counter.mod`` in which two
untils or two releases share their right operand, and so share one
eventuality chain, over the monolithic encoding and the session of every
constraint-style scheme.
"""

import hashlib
import random

import pytest

from pltlbmc.check import INCREMENTAL_SCHEMES, SCHEMES, RunOptions, encode_bound, scheme_model
from pltlbmc.encode import IncrementalEncoder
from pltlbmc.model import parse_model
from pltlbmc.pltl import parse_formula, past_depth, s_not, to_pnf

from _fixtures import FIXTURES
from _grid import random_symbolic_model

MAX_K = 6
SPECS = {
    "counter.mod": [
        "!(F (x3 & O (x4 & O x5)))",
        "G F x4",
        "G (x4 -> Y x3)",
        "G (x2 -> (!x5 S x0))",
        "(x0 | x1) U (G !p7)",
    ],
    "counter_fair.mod": [
        "G F x4",
        "F G !x3",
        "G (x5 -> (H !x3 | Z x0))",
    ],
}

GOLDEN = {
    "fixpoint": "28 b084d5ee36b25309",
    "eventuality": "28 76adb43a2383f6b8",
    "buchi": "28 6d51ff8b9b26553e",
    "pltl": "56 f7489598a5c795d1",
    "pltl@d1": "56 b08449d3aa56a840",
    "general-buchi": "56 1793f8b6cae47326",
    "general-buchi@d1": "56 792f43cefb399e48",
    "incremental-sp0": "56 0cbb969f28bdb394",
    "incremental-sp0@d1": "56 7e888bcf1c0dc6a6",
    "incremental-sp1": "56 786ec2958c84b2de",
    "incremental-sp1@d1": "56 610a406b4fd4bfd7",
    "incremental-eventuality": "28 51f076b9964c43c7",
    "incremental-buchi": "28 b4d753f598414cf2",
    "incremental-general-buchi": "56 ee92fef5503ac22a",
    "incremental-general-buchi@d1": "56 13cbf8c965a47e6f",
}

MINTERM_SPECS = {
    (4, 0): ["G F v0", "G (v1 -> Y v2)", "(v0 | v1) U G !v3"],
    (3, 2): ["G F fair0", "G (fair1 -> O v0)"],
}

MINTERM_GOLDEN = {
    "minterm:fixpoint": "21 55e5494a3b7fd45b",
    "minterm:pltl": "35 2ef0585b51097c88",
    "minterm:general-buchi": "35 20ad78fa1d281d4e",
    "minterm:incremental-sp1": "35 6223a7a9c8858567",
    "minterm:incremental-general-buchi": "35 cc93a3cbb1f09728",
}


SHARED_SPECS = [
    "!((x0 U x4) | (x1 U x4))",
    "(x0 U x4) | (x1 U x4)",
    "!(F x4 & (x1 U x2) & (x0 U x4))",
    "G F x4 | (x1 R x2) | (x0 R x4)",
]

SHARED_GOLDEN = {
    "shared:pltl": "28 a180e8fc071fdd34",
    "shared:eventuality": "28 a180e8fc071fdd34",
    "shared:buchi": "28 db18426ff9187062",
    "shared:general-buchi": "28 4d775f9dd8bbbbe0",
    "shared:incremental-sp0": "28 f662979edee17e08",
    "shared:incremental-sp1": "28 8820a35a1959ad4d",
    "shared:incremental-eventuality": "28 f662979edee17e08",
    "shared:incremental-buchi": "28 10959cf655acf03f",
    "shared:incremental-general-buchi": "28 b108a82457b677ff",
}


def instances():
    for name, specs in SPECS.items():
        m = parse_model((FIXTURES / name).read_text())
        for spec in specs:
            yield m, to_pnf(s_not(parse_formula(spec)))


def minterm_instances():
    for (bits, fair_sets), specs in MINTERM_SPECS.items():
        m = random_symbolic_model(random.Random(bits), bits=bits, fair_sets=fair_sets)
        for spec in specs:
            yield m, to_pnf(s_not(parse_formula(spec)))


def shared_instances():
    m = parse_model((FIXTURES / "counter.mod").read_text())
    for spec in SHARED_SPECS:
        yield m, to_pnf(s_not(parse_formula(spec)))


SOURCES = {"": instances, "minterm": minterm_instances, "shared": shared_instances}


def fingerprint(tag):
    """``"<instances> <digest>"`` of one tag: a scheme name or
    ``incremental-<session>``, with ``@d1`` for d_max 1, over the fixtures,
    or over the minterm models with the prefix ``minterm:``, or over the
    shared-chain specs with the prefix ``shared:``.

    ``incremental-sp0`` hashes the pltl session after each ``step(k)``;
    ``incremental-sp1`` hashes it after ``step(k)`` and a completeness query,
    so it pins the simple path pairs the lazy refinement adds.
    ``incremental-<scheme>`` hashes that scheme's session after each
    ``step(k)``."""
    source, _, tag = tag.rpartition(":")
    kind, _, depth = tag.partition("@")
    d_max = 1 if depth == "d1" else None
    session = kind.startswith("incremental-")
    scheme = kind.partition("-")[2] if session else kind
    if scheme in ("sp0", "sp1"):
        scheme = "pltl"
    h = hashlib.sha256()
    count = 0
    for m, psi in SOURCES[source]():
        if scheme not in ("pltl", "general-buchi") and past_depth(psi) > 0:
            continue
        opts = RunOptions(scheme=scheme, d_max=d_max)
        target = scheme_model(m, psi, opts)
        if session:
            inc = IncrementalEncoder(target, psi, d_max=d_max, scheme=scheme)
            for k in range(MAX_K + 1):
                inc.step(k)
                if kind.endswith("sp1"):
                    inc.query_completeness()
                h.update(repr((inc.solver.nvars, inc.solver.db)).encode())
                count += 1
            continue
        for k in range(MAX_K + 1):
            s, _ = encode_bound(target, psi, k, opts)
            h.update(repr((s.nvars, s.db)).encode())
            count += 1
    return f"{count} {h.hexdigest()[:16]}"


def test_every_scheme_is_fingerprinted():
    kinds = {tag.partition("@")[0] for tag in GOLDEN}
    assert kinds >= set(SCHEMES)
    assert kinds >= {f"incremental-{s}" for s in INCREMENTAL_SCHEMES - {"pltl"}}


@pytest.mark.parametrize("tag", list(GOLDEN))
def test_cnf_is_unchanged(tag):
    assert fingerprint(tag) == GOLDEN[tag]


@pytest.mark.parametrize("tag", list(MINTERM_GOLDEN))
def test_minterm_cnf_is_unchanged(tag):
    assert fingerprint(tag) == MINTERM_GOLDEN[tag]


@pytest.mark.parametrize("tag", list(SHARED_GOLDEN))
def test_shared_chain_cnf_is_unchanged(tag):
    assert fingerprint(tag) == SHARED_GOLDEN[tag]
