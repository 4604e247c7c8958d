"""Per-layer tracing from outside the program.

The tracer replaces each public entry point of a ``pltlbmc`` module with a
wrapper that records a span (id, name, start, end, parent).  Each entry
point is patched at the name its caller looks up: ``check`` binds the
encoders, ``build_tight_ba``, ``product`` and ``extract_witness`` by name,
``encode`` and ``tightba`` bind ``closure``, ``l2s`` binds
``explicit_expand``, ``cli`` reaches ``run_bmc`` through the ``check``
module, and methods are looked up on their classes.  Patches are
installed only while tracing is on, so an untraced block runs the program's
own functions.

Spans stay in memory; :meth:`Tracer.write` dumps them as JSON lines.  A
span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import json
import time
import weakref
from collections import Counter, defaultdict

from pltlbmc import check, cli, encode, l2s, model, pltl, sat, tightba

# (owner, attribute, layer, span name).  The span name is what the layer
# metrics below group by.
ENTRY_POINTS = (
    (pltl, "parse_formula", "pltl", "parse_formula"),
    (check, "parse_formula", "pltl", "parse_formula"),
    (cli, "parse_formula", "pltl", "parse_formula"),
    (pltl, "to_pnf", "pltl", "to_pnf"),
    (check, "to_pnf", "pltl", "to_pnf"),
    (encode, "closure", "pltl", "closure"),
    (tightba, "closure", "pltl", "closure"),
    (model, "parse_model", "model", "parse_model"),
    (cli, "parse_model", "model", "parse_model"),
    (l2s, "explicit_expand", "model", "explicit_expand"),
    (check, "encode_ltl_fixpoint", "encode", "encode_ltl_fixpoint"),
    (check, "encode_ltl_eventuality", "encode", "encode_ltl_eventuality"),
    (check, "encode_ltl_buchi", "encode", "encode_ltl_buchi"),
    (check, "encode_pltl", "encode", "encode_pltl"),
    (check, "encode_general_buchi", "encode", "encode_general_buchi"),
    (encode.IncrementalEncoder, "step", "encode", "IncrementalEncoder.step"),
    (encode.IncrementalEncoder, "query_witness", "encode", "IncrementalEncoder.query"),
    (encode.IncrementalEncoder, "query_completeness", "encode", "IncrementalEncoder.query"),
    (sat.Solver, "solve", "sat", "Solver.solve"),
    (check, "run_bmc", "check", "run_bmc"),
    (check, "extract_witness", "check", "extract_witness"),
    (check, "build_tight_ba", "tightba", "build_tight_ba"),
    (check, "product", "tightba", "product"),
    (l2s, "l2s_transform", "l2s", "l2s_transform"),
    (l2s, "check_l2s_reachability", "l2s", "check_l2s_reachability"),
    (cli, "main", "cli", "cli.main"),
)

ENCODE_CALLS = frozenset(
    n for _, _, layer, n in ENTRY_POINTS if layer == "encode" and n != "IncrementalEncoder.query"
)

# Per-layer metrics, in the order they are reported.  Time metrics are self
# times in seconds; the rest are counts or ratios.
LAYER_METRICS = (
    ("pltl.self_s", "s"),
    ("model.parse_s", "s"),
    ("model.expand_s", "s"),
    ("encode.self_s", "s"),
    ("encode.calls", "count"),
    ("encode.clauses_per_s", "1/s"),
    ("sat.solve_s", "s"),
    ("sat.solves", "count"),
    ("sat.instances", "count"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.learned", "count"),
    ("sat.gates", "count"),
    ("check.self_s", "s"),
    ("check.extract_s", "s"),
    ("check.solves_per_verdict", "1"),
    ("check.bounds", "count"),
    ("tightba.self_s", "s"),
    ("tightba.product_vars", "count"),
    ("l2s.self_s", "s"),
    ("l2s.model_bits", "count"),
    ("cli.self_s", "s"),
    ("trace.loop_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_ratio", "1"),
)


def _builder_solver(args):
    """The solver an encoder call writes into, found among its arguments."""
    for a in args:
        if isinstance(a, sat.CircuitBuilder):
            return a.solver
        if isinstance(a, encode.IncrementalEncoder):
            return a.solver
    return None


class Tracer:
    """Span recorder plus the counters read at the traced boundaries."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self._stack = []
        self.counts = Counter()
        # per solver, the (vars, clauses, learned, gates) of its last solve
        self._last = weakref.WeakKeyDictionary()
        self._builders = weakref.WeakKeyDictionary()  # solver -> ref(builder)
        self._saved = []

    # -- installing the wrappers ---------------------------------------------

    def install(self):
        if self._saved:
            return
        for owner, attr, _layer, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        init = sat.CircuitBuilder.__init__
        self._saved.append((sat.CircuitBuilder, "__init__", init))
        builders = self._builders

        def builder_init(b, solver, *args, **kwargs):
            init(b, solver, *args, **kwargs)
            builders[solver] = weakref.ref(b)

        sat.CircuitBuilder.__init__ = builder_init

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        after = self._after

        def wrapper(*args, **kwargs):
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            before = _db_size(args) if name in ENCODE_CALLS else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, name, t0, t1, parent))
            after(name, args, result, before)
            return result

        return wrapper

    # -- counters ------------------------------------------------------------

    def _after(self, name, args, result, before):
        c = self.counts
        if name in ENCODE_CALLS:
            c["encode.calls"] += 1
            c["encode.clauses"] += _db_size(args) - before
        elif name == "Solver.solve":
            self._solved(args[0])
        elif name == "run_bmc":
            c["check.verdicts"] += 1
            c["check.bounds"] += getattr(result, "k", getattr(result, "max_k", 0))
        elif name == "product":
            c["tightba.product_vars"] += len(result.vars)
        elif name == "l2s_transform":
            c["l2s.model_bits"] += len(result.model.vars)

    def _solved(self, solver):
        c = self.counts
        c["sat.solves"] += 1
        st = solver.stats()
        ref = self._builders.get(solver)
        builder = ref() if ref is not None else None
        now = (st["vars"], st["clauses"], st["learned"], len(builder.cache) if builder else 0)
        prev = self._last.get(solver)
        if prev is None:
            c["sat.instances"] += 1
            prev = (0, 0, 0, 0)
        for key, new, old in zip(("sat.vars", "sat.clauses", "sat.learned", "sat.gates"), now, prev):
            c[key] += new - old
        self._last[solver] = now

    # -- results ---------------------------------------------------------------

    def self_times(self, windows=None):
        """Self time per span name, over the spans that start inside one of
        the (start, end) ``windows`` when given."""
        child = defaultdict(float)
        for _sid, _name, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = Counter()
        for sid, name, t0, t1, _parent in self.spans:
            if windows is None or any(a <= t0 < b for a, b in windows):
                out[name] += (t1 - t0) - child[sid]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent}))
                fh.write("\n")


def _db_size(args):
    solver = _builder_solver(args)
    return len(solver.db) if solver is not None else 0


LAYER_OF = {name: layer for _, _, layer, name in ENTRY_POINTS}


def loop_layers(tracer: Tracer, windows, loop_s):
    """Self seconds per layer inside the traced loop blocks, largest first,
    with the remainder not covered by any layer (the benchmark's own loop
    and output capture) as ``unattributed``."""
    by_layer = Counter()
    for name, t in tracer.self_times(windows).items():
        by_layer[LAYER_OF[name]] += t
    rows = by_layer.most_common()
    rows.append(("unattributed", loop_s - sum(by_layer.values())))
    return rows


def layer_metrics(tracer: Tracer, windows, loop_s, overhead_ratio):
    """Per-layer metrics over the traced set-up and the traced loop blocks.

    ``windows`` are the (start, end) clock readings of the traced blocks
    and ``loop_s`` their total wall time.
    """
    selfs = tracer.self_times()
    c = tracer.counts
    by_layer = defaultdict(float)
    for name, t in selfs.items():
        by_layer[LAYER_OF[name]] += t
    encode_s = by_layer["encode"]
    verdicts = c["check.verdicts"]
    values = {
        "pltl.self_s": by_layer["pltl"],
        "model.parse_s": selfs["parse_model"],
        "model.expand_s": selfs["explicit_expand"],
        "encode.self_s": encode_s,
        "encode.calls": c["encode.calls"],
        "encode.clauses_per_s": c["encode.clauses"] / encode_s if encode_s > 0 else 0.0,
        "sat.solve_s": by_layer["sat"],
        "sat.solves": c["sat.solves"],
        "sat.instances": c["sat.instances"],
        "sat.vars": c["sat.vars"],
        "sat.clauses": c["sat.clauses"],
        "sat.learned": c["sat.learned"],
        "sat.gates": c["sat.gates"],
        "check.self_s": selfs["run_bmc"],
        "check.extract_s": selfs["extract_witness"],
        "check.solves_per_verdict": c["sat.solves"] / verdicts if verdicts else 0.0,
        "check.bounds": c["check.bounds"],
        "tightba.self_s": by_layer["tightba"],
        "tightba.product_vars": c["tightba.product_vars"],
        "l2s.self_s": by_layer["l2s"],
        "l2s.model_bits": c["l2s.model_bits"],
        "cli.self_s": by_layer["cli"],
        "trace.loop_s": loop_s,
        "trace.unattributed_s": dict(loop_layers(tracer, windows, loop_s))["unattributed"],
        "trace.overhead_ratio": overhead_ratio,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
