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

Run as a script (``PYTHONPATH=src python tests/test_cnf_fingerprint.py``),
the module prints every tag's current fingerprint in the layout of
``GOLDEN``, ``MINTERM_GOLDEN`` and ``SHARED_GOLDEN``, to paste over them
when an encoding changes on purpose; the tests only ever compare against
the literals committed here.
"""

import hashlib
import random

import pytest

from pltlbmc.check import SCHEMES, RunOptions, encode_bound, scheme_model
from pltlbmc.encode import IncrementalEncoder
from pltlbmc.model import parse_model
from pltlbmc.pltl import parse_formula, past_depth, s_not, to_pnf

from _fixtures import FIXTURES, INCREMENTAL_SCHEMES
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
    "fixpoint": "28 60f187c10b321305",
    "eventuality": "28 73afea642bb79910",
    "buchi": "28 55f3d97f8d5099fb",
    "pltl": "56 145eb63b69087f9b",
    "pltl@d1": "56 37fe2118ca3dc715",
    "general-buchi": "56 803bc6e3cd01258a",
    "general-buchi@d1": "56 8de6c7740079a807",
    "incremental-sp0": "56 40b1180df52b8770",
    "incremental-sp0@d1": "56 57dc751f448b3cb5",
    "incremental-sp1": "56 4214518858ffb7ea",
    "incremental-sp1@d1": "56 04268796ede7774c",
    "incremental-eventuality": "28 79b49de77aa2177f",
    "incremental-buchi": "28 480361f0c9db5a68",
    "incremental-general-buchi": "56 dfd9a72bed909523",
    "incremental-general-buchi@d1": "56 368677bd84419614",
}

MINTERM_SPECS = {
    (4, 0): ["G F v0", "G (v1 -> Y v2)", "(v0 | v1) U G !v3"],
    (3, 2): ["G F fair0", "G (fair1 -> O v0)"],
}

MINTERM_GOLDEN = {
    "minterm:fixpoint": "21 7d2754c2218fffc3",
    "minterm:pltl": "35 3243eda58d98d9c5",
    "minterm:general-buchi": "35 0f0aad9160e04c8a",
    "minterm:incremental-sp1": "35 6f676079d06b11f7",
    "minterm:incremental-general-buchi": "35 e2ae6ff01fffc01d",
}


SHARED_SPECS = [
    "!((x0 U x4) | (x1 U x4))",
    "(x0 U x4) | (x1 U x4)",
    "!(F x4 & (x1 U x2) & (x0 U x4))",
    "G F x4 | (x1 R x2) | (x0 R x4)",
]

SHARED_GOLDEN = {
    "shared:pltl": "28 8b1e925ac1798c5f",
    "shared:eventuality": "28 8b1e925ac1798c5f",
    "shared:buchi": "28 ccf6a47fead76421",
    "shared:general-buchi": "28 c826580c2e3213a9",
    "shared:incremental-sp0": "28 736b22dc425d178d",
    "shared:incremental-sp1": "28 5a658265b7f0ca3f",
    "shared:incremental-eventuality": "28 736b22dc425d178d",
    "shared:incremental-buchi": "28 8b36c40ef0f143be",
    "shared:incremental-general-buchi": "28 ba7727619ce330c9",
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
            inc = IncrementalEncoder(target, psi, d_max=d_max, style=SCHEMES[scheme].style)
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


if __name__ == "__main__":
    for name, golden in (("GOLDEN", GOLDEN), ("MINTERM_GOLDEN", MINTERM_GOLDEN), ("SHARED_GOLDEN", SHARED_GOLDEN)):
        print(f"{name} = {{")
        for tag in golden:
            print(f'    "{tag}": "{fingerprint(tag)}",')
        print("}\n")
