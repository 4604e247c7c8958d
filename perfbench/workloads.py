"""The benchmark's workloads: seeded inputs, the verdict calls, and the
independent answers every verdict is checked against.

A workload's ``setup(rng, workdir)`` generates and parses its inputs and
returns blocks of :class:`Job` objects.  A job's ``run`` is the timed call
into the program; its ``check`` runs after the timed loop and returns None
for a correct verdict or a message saying what is wrong.  References are
computed lazily inside ``check``, so they never count towards set-up or
verdict time.

All calls into ``pltlbmc`` go through module attributes, so the tracer's
wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import string
import time
from dataclasses import dataclass
from typing import Callable, Optional

from pltlbmc import check, cli, l2s, model, oracle, pltl

import gen

# Instance shapes come from these fixed seeds; the run's seed relabels them
# (see gen.py).  Every shape appears COPIES times per pass, each copy with
# its own relabeling, so that the median verdict time rests on more than
# one sample of each case.
COPIES = 2
GRID_BASE_SEED = 1001
GRID_BLOCKS = 2
GRID_MAX_K = 6
FAIR_BASE_SEED = 1002
FAIR_BLOCKS = 2
FAIR_MAX_K = 10
DEEP_MAX_K = 80


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Inputs:
    blocks: list  # of lists of Job
    texts: list  # every generated input text, for the reproducibility digest
    oracle_s: float = 0.0  # oracle time spent choosing inputs, not set-up


_PNF = {
    "&": pltl.mk_and,
    "|": pltl.mk_or,
    "X": pltl.mk_next,
    "U": pltl.mk_until,
    "R": pltl.mk_release,
    "Y": pltl.mk_prev,
    "Z": pltl.mk_prevz,
    "S": pltl.mk_since,
    "T": pltl.mk_trigger,
}


def _pnf(f):
    """A generator formula tuple as an interned PNF formula."""
    kind = f[0]
    if kind == "true":
        return pltl.TRUE
    if kind == "false":
        return pltl.FALSE
    if kind == "atom":
        return pltl.mk_atom(f[1])
    if kind == "natom":
        return pltl.mk_natom(f[1])
    return _PNF[kind](*(_pnf(sub) for sub in f[1:]))


def _explicit(g: gen.Graph):
    """A generator graph as the oracle's explicit model."""
    names = tuple(f"v{j}" for j in range(g.bits))
    n = 1 << g.bits
    return model.ExplicitModel(
        var_names=names,
        define_names=(),
        nstates=n,
        initial=tuple(sorted(set(g.init))),
        succ=tuple(tuple(sorted(set(succ))) for succ in g.succ),
        labels=tuple(frozenset(v for j, v in enumerate(names) if s >> j & 1) for s in range(n)),
        fair_sets=tuple(frozenset(f) for f in g.fair),
    )


def _state_index(em, assignment):
    return sum(1 << j for j, v in enumerate(em.var_names) if assignment[v])


def _validate_path(em, assignments, loop, f):
    """Re-check a decoded path on the explicit model and evaluate ``f`` on
    it with the oracle's bounded semantics."""
    states = [_state_index(em, a) for a in assignments]
    bp = oracle.BoundedPath(em, states, loop)
    try:
        bp.check()
    except oracle.OracleError as exc:
        return f"witness is not a path of the model: {exc}"
    if not oracle.eval_bounded(bp, f, 0):
        return "witness does not satisfy the negated property"
    return None


def _bound(verdict):
    """k of a witness, None for an exhausted bound; anything else is wrong."""
    if isinstance(verdict, check.WitnessFound):
        return verdict.k
    if isinstance(verdict, check.BoundExhausted):
        return None
    raise TypeError(f"unexpected verdict {verdict!r}")


# ---------------------------------------------------------------------------
# grid: random models x PLTL formulas, every admitting scheme
# ---------------------------------------------------------------------------

GRID_SCHEMES = (("pltl", True), ("pltl", False), ("general-buchi", False))
FUTURE_SCHEMES = (("fixpoint", False), ("eventuality", False), ("buchi", False))


class GridPair:
    def __init__(self, model_text, psi_text, future_only):
        self.model = model.parse_model(model_text)
        self.spec = pltl.parse_formula(f"!({psi_text})")
        self.psi_text = psi_text
        self.schemes = GRID_SCHEMES + (FUTURE_SCHEMES if future_only else ())
        self._ref = None

    def jobs(self):
        return [
            Job(
                f"grid/{scheme}" + ("" if scheme != "pltl" else "-incremental" if incremental else "-monolithic"),
                lambda s=scheme, i=incremental: self.run(s, i),
                lambda verdict, s=scheme: self.check(s, verdict),
            )
            for scheme, incremental in self.schemes
        ]

    def run(self, scheme, incremental):
        opts = check.RunOptions(scheme=scheme, incremental=incremental, max_k=GRID_MAX_K)
        return check.run_bmc(self.model, self.spec, opts)

    def reference(self):
        """(explicit model, psi, minimal witness k, minimal lasso witness k)."""
        if self._ref is None:
            em = model.explicit_expand(self.model)
            psi = pltl.to_pnf(pltl.parse_formula(self.psi_text))
            budget = oracle.Budget(max_bits=6, max_k=GRID_MAX_K)
            kmin = oracle.minimal_witness_k(em, psi, GRID_MAX_K, budget)
            self._ref = (em, psi, kmin, _minimal_lasso_k(em, psi, GRID_MAX_K))
        return self._ref

    def check(self, scheme, verdict):
        em, psi, kmin, klasso = self.reference()
        k = _bound(verdict)
        # general-buchi searches fair loops of the product, so it finds
        # lasso-shaped witnesses only; the other schemes match the oracle's
        # minimal bounded witness.
        want = klasso if scheme == "general-buchi" else kmin
        if k != want:
            return f"{scheme}: k={k}, oracle says {want} for {self.psi_text}"
        if k is None:
            return None
        w = verdict.witness
        return _validate_path(em, w.states, w.loop_start, psi)


def _minimal_lasso_k(em, f, max_k):
    """Smallest k with a (k, l)-loop of the explicit model satisfying f."""
    for k in range(1, max_k + 1):
        stack = [[s] for s in em.initial]
        while stack:
            path = stack.pop()
            if len(path) <= k:
                stack.extend(path + [t] for t in em.succ[path[-1]])
                continue
            for l in range(1, k + 1):
                if path[l - 1] == path[k] and oracle.eval_bounded(oracle.BoundedPath(em, path, l), f, 0):
                    return k
    return None


def grid_setup(rng, workdir):
    oracle_s = 0.0

    def witness_k(g, f):
        nonlocal oracle_s
        t0 = time.perf_counter()
        budget = oracle.Budget(max_bits=6, max_k=GRID_MAX_K)
        k = oracle.minimal_witness_k(_explicit(g), _pnf(f), GRID_MAX_K, budget)
        oracle_s += time.perf_counter() - t0
        return k

    base = random.Random(GRID_BASE_SEED)
    blocks, texts = [], []
    for _ in range(GRID_BLOCKS):
        shapes = gen.grid_block(base, witness_k)
        for _ in range(COPIES):
            block = []
            for g, f, past in shapes:
                g, f = gen.relabel(rng, g, f)
                model_text, psi_text = gen.model_text(g), gen.formula_text(f)
                texts += [model_text, psi_text]
                block.append(GridPair(model_text, psi_text, not past))
            rng.shuffle(block)
            blocks.append([job for pair in block for job in pair.jobs()])
    return Inputs(blocks, texts, oracle_s)


# ---------------------------------------------------------------------------
# fair: liveness-to-safety and fair-loop search on fair models
# ---------------------------------------------------------------------------


class FairModel:
    def __init__(self, text):
        self.model = model.parse_model(text)
        self.safety_spec = pltl.parse_formula(f"G !{l2s.TARGET}")
        self.loop_spec = pltl.parse_formula("false")
        self.safety_model = None
        self._ref = None

    def jobs(self):
        return [
            Job("fair/l2s", self.run_l2s, self.check_l2s),
            Job("fair/l2s-bmc", self.run_safety, self.check_safety),
            Job("fair/general-buchi", self.run_fair_loop, self.check_fair_loop),
        ]

    def run_l2s(self):
        t = l2s.l2s_transform(self.model)
        self.safety_model = t.model
        return t, l2s.check_l2s_reachability(t, max_bits=16)

    def run_safety(self):
        return check.run_bmc(self.safety_model, self.safety_spec, check.RunOptions(max_k=FAIR_MAX_K))

    def run_fair_loop(self):
        opts = check.RunOptions(scheme="general-buchi", max_k=FAIR_MAX_K)
        return check.run_bmc(self.model, self.loop_spec, opts)

    def reference(self):
        """(explicit model, 'G F fair_i' conjunction, minimal fair lasso k)."""
        if self._ref is None:
            em = model.explicit_expand(self.model)
            found = oracle.fair_lasso_search(em)
            fair = " & ".join(f"G F fair{i}" for i in range(len(self.model.fairness)))
            self._ref = (em, pltl.to_pnf(pltl.parse_formula(fair)), found[0] if found else None)
        return self._ref

    def _closed_loop(self, em, fair, trace):
        """Validate an l2s trace ending in LoopClosed as a fair lasso of the
        original model: the loop starts where the in-loop flag first rises."""
        loop = next((i for i, st in enumerate(trace) if st[l2s.INLOOP_VAR]), None)
        if loop is None:
            return "l2s trace never enters the loop"
        return _validate_path(em, trace, loop, fair)

    def check_l2s(self, outcome):
        em, fair, kfair = self.reference()
        t, r = outcome
        if t.target != l2s.TARGET:
            return f"l2s target is {t.target!r}, not {l2s.TARGET!r}"
        if kfair is None:
            return None if isinstance(r, l2s.Unreachable) else "l2s reached LoopClosed without a fair lasso"
        if not isinstance(r, l2s.Reachable):
            return f"l2s missed the fair lasso of length {kfair}"
        if r.depth != kfair:
            return f"l2s depth {r.depth}, minimal fair lasso {kfair}"
        return self._closed_loop(em, fair, r.trace)

    def _expected(self):
        em, fair, kfair = self.reference()
        return em, fair, kfair if kfair is not None and kfair <= FAIR_MAX_K else None

    def check_safety(self, verdict):
        em, fair, want = self._expected()
        k = _bound(verdict)
        if k != want:
            return f"G !{l2s.TARGET}: k={k}, minimal fair lasso {want}"
        if k is None:
            return None
        w = verdict.witness
        hit = next((i for i, labels in enumerate(w.labels) if l2s.TARGET in labels), None)
        if hit is None:
            return f"witness never reaches {l2s.TARGET}"
        return self._closed_loop(em, fair, w.states[: hit + 1])

    def check_fair_loop(self, verdict):
        em, fair, want = self._expected()
        k = _bound(verdict)
        if k != want:
            return f"general-buchi fair loop: k={k}, minimal fair lasso {want}"
        if k is None:
            return None
        w = verdict.witness
        return _validate_path(em, w.states, w.loop_start, fair)


def fair_setup(rng, workdir):
    oracle_s = 0.0

    def fair_k(g):
        nonlocal oracle_s
        t0 = time.perf_counter()
        found = oracle.fair_lasso_search(_explicit(g))
        oracle_s += time.perf_counter() - t0
        return found[0] if found else None

    base = random.Random(FAIR_BASE_SEED)
    blocks, texts = [], []
    for _ in range(FAIR_BLOCKS):
        shapes = gen.fair_block(base, fair_k, FAIR_MAX_K)
        for _ in range(COPIES):
            block = []
            for g in shapes:
                text = gen.model_text(gen.relabel(rng, g)[0])
                texts.append(text)
                block.append(FairModel(text))
            rng.shuffle(block)
            blocks.append([job for m in block for job in m.jobs()])
    return Inputs(blocks, texts, oracle_s)


# ---------------------------------------------------------------------------
# deep: counters proved or refuted through the command line front end
# ---------------------------------------------------------------------------

# (property, expected verdict, bound as a function of the counter width).
# A width-n counter from zero visits 2**n values in order, so G !top first
# fails at k = 2**n - 1 and G F top is witnessed by the whole cycle,
# k = 2**n.  The proof closes once no simple path remains: each value with
# the in-loop flag off and on, k = 2**(n+1).
COUNTER_CASES = (
    ("G (top -> O zero)", "proved", lambda n: 2 ** (n + 1)),
    ("F G !top", "witness", lambda n: 2**n),
    ("G !top", "witness", lambda n: 2**n - 1),
)
COUNTER_WIDTHS = (3, 4, 5)
# Eleven cases in all, under COPIES namings.  Five of them cost less than
# the width-3 proof and five cost more, so the width-3 proof runs
# MEDIAN_CASE_RUNS times per naming: then the median verdict is the median
# of those runs, spread over the pass, rather than one or two runs at one
# moment of it, and it never falls between two cases of different cost.
MEDIAN_CASE = ("counter3", "G (top -> O zero)")
MEDIAN_CASE_RUNS = 5

# The stall counter reaches top after three counting steps and can then
# hold it forever, so G F top has a (4, 4)-loop.  Its state is the value and
# the stall bit, 8 states, and one cycle runs through all of them (hold,
# then count, at each value), so a simple path can take every state with
# the in-loop flag off and then on.  top & zero is false in every state, so
# the formula values are the same at every position and cannot tell two
# positions apart: 16 classes, so the proof closes at k = 16.
STALL_CASES = (
    ("G !(top & zero)", "proved", 16),
    ("F G !top", "witness", 4),
)


class DeepCase:
    def __init__(self, path, m, spec, verdict, k):
        self.model = m
        self.argv = ["check", path, "--spec", spec, "--complete", "--max-k", str(DEEP_MAX_K), "--emit-json"]
        self.spec = spec
        self.expect = (verdict, k)

    def job(self):
        return Job(f"deep/{self.expect[0]}", self.run, self.check)

    def run(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv)
        return code, out.getvalue()

    def check(self, outcome):
        code, text = outcome
        lines = text.strip().splitlines()
        record = json.loads(lines[-1]) if lines else {}
        got = (record.get("verdict"), record.get("k"))
        if got != self.expect:
            return f"{self.spec}: got {got}, expected {self.expect}"
        if code != (0 if self.expect[0] == "proved" else 1):
            return f"{self.spec}: exit code {code}"
        if self.expect[0] == "proved":
            return None
        em = model.explicit_expand(self.model)
        psi = pltl.to_pnf(pltl.s_not(pltl.parse_formula(self.spec)))
        return _validate_path(em, record["trace"], record["loop_start"], psi)


def deep_setup(rng, workdir):
    """Every property on every counter, in seeded order, over seeded
    variable names (the counters' structure is fixed).

    The command line front end reads the model files and parses them again
    inside the timed call; parsing them here as well keeps set-up time
    comparable across workloads and rejects a bad input before timing.
    """
    blocks, texts = [], []
    for copy in range(COPIES):
        prefix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
        cases = []
        for n in COUNTER_WIDTHS:
            names = [f"{prefix}{i}" for i in range(n)]
            cases.append((f"counter{n}", gen.counter_text(n, names), [(s, v, k(n)) for s, v, k in COUNTER_CASES]))
        stall = gen.stall_counter_text((f"{prefix}0", f"{prefix}1"), f"{prefix}_stall")
        cases.append(("stall", stall, list(STALL_CASES)))
        jobs = []
        for name, text, props in cases:
            path = os.path.join(workdir, f"deep{copy}-{name}.mod")
            with open(path, "w") as fh:
                fh.write(text)
            m = model.parse_model(text)
            texts.append(text)
            for spec, verdict, k in props:
                pltl.parse_formula(spec)
                texts.append(spec)
                runs = MEDIAN_CASE_RUNS if (name, spec) == MEDIAN_CASE else 1
                jobs.extend([DeepCase(path, m, spec, verdict, k).job()] * runs)
        rng.shuffle(jobs)
        blocks.append(jobs)
    return Inputs(blocks, texts)


WORKLOADS = {"grid": grid_setup, "deep": deep_setup, "fair": fair_setup}
