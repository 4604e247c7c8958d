"""The benchmark's tracer, ``perfbench/spans.py``, patches the package's
entry points at the names their callers look up.  These tests load it by
path, as it is, and check that those names are where it looks: each entry
point is an attribute of its owner, a monolithic run of every scheme
records a span of its encoder, and a session run records
``IncrementalEncoder.step``.  The encode counters need each encoder's map
to be a ``CircuitBuilder`` that the tracer saw being made."""

import importlib.util
from pathlib import Path

import pytest

from pltlbmc.check import SCHEMES, RunOptions, run_bmc
from pltlbmc.model import parse_model

from _fixtures import FIXTURES

ROOT = Path(__file__).resolve().parent.parent
COUNTER = parse_model((FIXTURES / "counter.mod").read_text())


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()


def traced_run(opts):
    """The span names and counters of one traced ``run_bmc``, a witness of
    ``!(G F x4)`` at bound 6."""
    tracer = SPANS.Tracer()
    tracer.install()
    try:
        verdict = run_bmc(COUNTER, "!(G F x4)", opts)
    finally:
        tracer.uninstall()
    assert verdict.k == 6
    return {name for _, name, *_ in tracer.spans}, tracer.counts


def test_every_entry_point_is_an_attribute_of_its_owner():
    for owner, attr, _layer, _name in SPANS.ENTRY_POINTS:
        assert attr in owner.__dict__, (owner.__name__, attr)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_a_monolithic_run_records_its_encoder(scheme):
    # the record's lambda names its encoder in the check module's globals,
    # where the tracer patches it
    (encoder,) = SCHEMES[scheme].encode.__code__.co_names
    names, counts = traced_run(RunOptions(scheme=scheme, incremental=False, max_k=6))
    assert names & SPANS.ENCODE_CALLS == {encoder}
    assert counts["encode.calls"] == 7
    assert counts["encode.clauses"] > 0 and counts["sat.gates"] > 0


@pytest.mark.parametrize("scheme", sorted(s for s in SCHEMES if SCHEMES[s].style))
def test_a_session_run_records_its_steps(scheme):
    names, counts = traced_run(RunOptions(scheme=scheme, max_k=6))
    assert names & SPANS.ENCODE_CALLS == {"IncrementalEncoder.step"}
    assert "IncrementalEncoder.query" in names
    assert counts["encode.calls"] == 7
    assert counts["encode.clauses"] > 0 and counts["sat.gates"] > 0
