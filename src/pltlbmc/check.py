"""Verification driver: the bound-increasing loop, witness extraction, and
the termination check that lets bounded model checking prove properties.

A property holds when the completeness formula (the encoding with every
bound-dependent constraint retired) conjoined with the simple path
constraint becomes unsatisfiable: any longer witness would have to repeat
an equivalence class of (state, in-loop flag, formula values), and such a
repetition can always be cut out of a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .pltl import SurfaceFormula, parse_formula, to_pnf, s_not
from .model import SymbolicModel, eval_expr
from .sat import Solver, CircuitBuilder, SAT, UNSAT, export_dimacs, run_external_solver
from .encode import (
    TimedVarMap,
    IncrementalEncoder,
    encode_ltl_fixpoint,
    encode_ltl_eventuality,
    encode_ltl_buchi,
    encode_pltl,
    encode_general_buchi,
)
from .tightba import build_tight_ba, product


class CheckError(Exception):
    pass


class WitnessValidationError(CheckError):
    """The decoded witness violates the model; indicates an encoder bug."""


@dataclass
class Witness:
    states: list  # per step, dict var -> bool (of the encoded model)
    loop_start: Optional[int]
    labels: list  # per step, frozenset of true vars/defines
    display_vars: tuple = ()

    @property
    def k(self):
        return len(self.states) - 1


@dataclass
class WitnessFound:
    witness: Witness
    k: int


@dataclass
class Proved:
    k: int


@dataclass
class BoundExhausted:
    max_k: int


@dataclass
class RunOptions:
    scheme: str = "pltl"
    d_max: Optional[int] = None
    incremental: bool = True
    completeness: bool = False
    max_k: int = 25
    increment: int = 1
    force_stabilise: bool = False
    release_acceptance: bool = True
    polarity_aware: bool = False
    external_solver: Optional[tuple] = None
    dimacs_dir: Optional[str] = None


# Scheme name -> encoder.  An entry lowers (model, psi, k) into the builder
# ``b`` over ``vm`` and returns the literal whose assertion asks for a witness
# of bound k.  The general-buchi entry ignores psi: its model is already the
# product with psi's automaton (see ``scheme_model``).  The encoders are looked
# up in this module's globals at call time.
SCHEMES = {
    "fixpoint": lambda m, psi, k, b, vm, opts: encode_ltl_fixpoint(m, psi, k, b, vm),
    "eventuality": lambda m, psi, k, b, vm, opts: encode_ltl_eventuality(m, psi, k, b, vm),
    "buchi": lambda m, psi, k, b, vm, opts: encode_ltl_buchi(
        m, psi, k, b, vm, release_acceptance=opts.release_acceptance
    ),
    "pltl": lambda m, psi, k, b, vm, opts: encode_pltl(
        m, psi, k, opts.d_max, b, vm, force_stabilise=opts.force_stabilise
    ),
    "general-buchi": lambda m, psi, k, b, vm, opts: encode_general_buchi(m, k, b, vm),
}


def scheme_model(m: SymbolicModel, psi, opts: RunOptions) -> SymbolicModel:
    """The model the scheme unrolls: for general-buchi the product of m with
    the tight automaton of psi, otherwise m itself."""
    if opts.scheme == "general-buchi":
        return product(m, build_tight_ba(psi, d_max=opts.d_max))
    return m


def encode_bound(target: SymbolicModel, psi, k, opts: RunOptions):
    """A fresh solver holding the scheme's encoding of bound k, and its
    variable map."""
    s = Solver()
    b = CircuitBuilder(s, polarity_aware=opts.polarity_aware)
    vm = TimedVarMap(b, d_max=opts.d_max)
    b.assert_(SCHEMES[opts.scheme](target, psi, k, b, vm, opts))
    return s, vm


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------


def extract_witness(value_of, vm: TimedVarMap, m: SymbolicModel, k) -> Witness:
    """Decode states and loop choice from a model and re-validate them.

    ``value_of`` maps a solver literal to its boolean value.  Validation
    re-evaluates the init, transition, and loop-equality conditions on the
    symbolic model, so an encoder bug surfaces as an error rather than a
    bogus counterexample.
    """
    states = []
    for i in range(k + 1):
        states.append({n: value_of(vm.state_bit(i, n)) for n in m.vars})
    loop = None
    for i in range(1, k + 1):
        if i in vm.loopsel and value_of(vm.loopsel[i]):
            if loop is not None:
                raise WitnessValidationError("two loop selectors are true")
            loop = i
    define_map = m.define_map
    if not eval_expr(m.init, states[0], None, define_map):
        raise WitnessValidationError("decoded path does not start in an initial state")
    for i in range(1, k + 1):
        if not eval_expr(m.trans, states[i - 1], states[i], define_map):
            raise WitnessValidationError(f"decoded step {i - 1} -> {i} is not a transition")
    if loop is not None and states[loop - 1] != states[k]:
        raise WitnessValidationError("loop selector does not match the state bits")
    labels = []
    for st in states:
        true_names = {n for n, v in st.items() if v}
        true_names |= {n for n, e in m.defines if eval_expr(e, st, None, define_map)}
        labels.append(frozenset(true_names))
    return Witness(states=states, loop_start=loop, labels=labels, display_vars=m.vars)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_bmc(m: SymbolicModel, spec, opts: RunOptions = None):
    """Check M |= spec by searching for bounded witnesses of its negation."""
    opts = opts or RunOptions()
    if isinstance(spec, str):
        spec = parse_formula(spec)
    psi = to_pnf(s_not(spec)) if isinstance(spec, SurfaceFormula) else spec
    if opts.scheme not in SCHEMES:
        raise CheckError(f"unknown scheme {opts.scheme!r}")
    if opts.max_k < 0:
        raise CheckError(f"max_k must be non-negative, got {opts.max_k}")
    if opts.increment < 1:
        raise CheckError(f"increment must be at least 1, got {opts.increment}")
    if opts.completeness:
        if opts.scheme != "pltl" or not opts.incremental:
            raise CheckError("completeness needs the incremental pltl scheme")
        if opts.external_solver:
            raise CheckError("completeness cannot use an external solver")
        return _run_complete(m, psi, opts)
    if opts.scheme == "pltl" and opts.incremental and not opts.external_solver:
        return _run_incremental(m, psi, opts)
    return _run_monolithic(m, psi, opts)


def _bounds(opts):
    return range(0, opts.max_k + 1, opts.increment)


def _run_monolithic(m, psi, opts):
    target = scheme_model(m, psi, opts)
    for k in _bounds(opts):
        s, vm = encode_bound(target, psi, k, opts)
        res, value_of = _solve(s, opts, k)
        if res == SAT:
            w = extract_witness(value_of, vm, target, k)
            w.display_vars = m.vars
            return WitnessFound(witness=w, k=k)
    return BoundExhausted(max_k=opts.max_k)


def _solve(s, opts, k):
    if opts.external_solver:
        import os
        import tempfile

        directory = opts.dimacs_dir or tempfile.gettempdir()
        path = os.path.join(directory, f"bmc_k{k}.cnf")
        export_dimacs(s, path)
        verdict, values = run_external_solver(opts.external_solver, path)
        return verdict, lambda lit: values.get(abs(lit), False) == (lit > 0)
    res = s.solve()
    return res, s.model_value


def _run_incremental(m, psi, opts):
    inc = IncrementalEncoder(
        m,
        psi,
        d_max=opts.d_max,
        force_stabilise=opts.force_stabilise,
        polarity_aware=opts.polarity_aware,
        simple_path=False,
    )
    query_at = set(_bounds(opts))
    for k in range(0, opts.max_k + 1):
        inc.step(k)
        if k not in query_at:
            continue
        if inc.query_witness() == SAT:
            w = extract_witness(inc.model_value, inc.vm, m, k)
            return WitnessFound(witness=w, k=k)
    return BoundExhausted(max_k=opts.max_k)


def _run_complete(m, psi, opts):
    """Alternate completeness and witness queries on one incremental solver.

    With increment 1 the witness query carries the simple path conjunct, so
    the first satisfiable bound is still the minimal witness length.  With
    larger increments the witness query runs bare, and a termination verdict
    additionally requires the bare witness query to fail at the same bound
    (a witness at a skipped bound would persist to the current one).
    """
    inc = IncrementalEncoder(
        m,
        psi,
        d_max=opts.d_max,
        force_stabilise=opts.force_stabilise,
        polarity_aware=opts.polarity_aware,
    )
    step_one = opts.increment == 1
    query_at = set(_bounds(opts))
    for k in range(0, opts.max_k + 1):
        inc.step(k)
        if k not in query_at:
            continue
        comp_unsat = inc.query_completeness() == UNSAT
        if step_one:
            if comp_unsat:
                return Proved(k=k)
            if inc.query_witness(simple_path=True) == SAT:
                w = extract_witness(inc.model_value, inc.vm, m, k)
                return WitnessFound(witness=w, k=k)
        else:
            if inc.query_witness(simple_path=False) == SAT:
                w = extract_witness(inc.model_value, inc.vm, m, k)
                return WitnessFound(witness=w, k=k)
            if comp_unsat:
                return Proved(k=k)
    return BoundExhausted(max_k=opts.max_k)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def verdict_line(verdict) -> str:
    if isinstance(verdict, WitnessFound):
        return f"VERDICT WITNESS k={verdict.k}"
    if isinstance(verdict, Proved):
        return f"VERDICT PROVED k={verdict.k}"
    return f"VERDICT UNKNOWN max_k={verdict.max_k}"


def trace_lines(w: Witness):
    out = []
    show = w.display_vars or sorted(w.states[0])
    for i, st in enumerate(w.states):
        if w.loop_start is not None and i == w.loop_start:
            out.append("-- loop starts here --")
        vals = " ".join(f"{n}={int(st[n])}" for n in show)
        out.append(f"state {i}: {vals}")
    return out


def exit_code(verdict) -> int:
    if isinstance(verdict, Proved):
        return 0
    if isinstance(verdict, WitnessFound):
        return 1
    return 2
