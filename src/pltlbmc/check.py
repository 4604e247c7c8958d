"""Verification driver: the bound-increasing loop, witness extraction, and
the termination check that lets bounded model checking prove properties.

A property holds when the completeness formula (the encoding with every
bound-dependent constraint retired) conjoined with the simple path
constraint becomes unsatisfiable: any longer witness would have to repeat
an equivalence class of (state, in-loop flag, formula values), and such a
repetition can always be cut out of a witness.  The simple path constraint
is refined lazily: the solver first runs without it, and only the pairs of
positions its models repeat are constrained apart before it runs again
(see ``IncrementalEncoder``).
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from .pltl import SurfaceFormula, atoms_of, parse_formula, past_depth, to_pnf, s_not
from .model import SymbolicModel, eval_expr
from .sat import Solver, SAT, UNSAT, export_dimacs, run_external_solver
from .encode import (
    TimedVarMap,
    IncrementalEncoder,
    PastOperatorError,
    UnresolvedAtomError,
    buchi_style,
    eventuality_style,
    fairness_style,
    unroll_model,
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
    display_vars: tuple = ()  # what the state lines and the JSON trace show: the model's variables


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
    external_solver: Optional[tuple] = None


class Scheme(NamedTuple):
    """Every fact about one scheme.

    ``encode`` takes (model, psi, k, vm), lowers the bound-k encoding into
    the map ``vm`` (which carries the unrolling cap d_max) and returns the
    literal whose assertion asks for a witness of bound k; it looks the
    encoder up in this module's globals at call time.  ``style`` is the
    chain style of a constraint-style scheme, which then also runs as one
    incremental session, and None for fixpoint, whose loop dispatch depends
    on k.  A ``future_only`` scheme rejects past operators, and an
    ``automaton`` scheme unrolls the product of the model with psi's tight
    automaton (``scheme_model``)."""

    encode: Callable
    style: Optional[Callable]
    future_only: bool
    automaton: bool


SCHEMES = {
    "fixpoint": Scheme(lambda m, psi, k, vm: encode_ltl_fixpoint(m, psi, k, vm), None, True, False),
    "eventuality": Scheme(lambda m, psi, k, vm: encode_ltl_eventuality(m, psi, k, vm), eventuality_style, True, False),
    "buchi": Scheme(lambda m, psi, k, vm: encode_ltl_buchi(m, psi, k, vm), buchi_style, True, False),
    "pltl": Scheme(lambda m, psi, k, vm: encode_pltl(m, psi, k, vm), eventuality_style, False, False),
    "general-buchi": Scheme(lambda m, psi, k, vm: encode_general_buchi(m, psi, k, vm), fairness_style, False, True),
}


def scheme_model(m: SymbolicModel, psi, opts: RunOptions) -> SymbolicModel:
    """The model the scheme unrolls: for an automaton scheme the product of
    m with the tight automaton of psi, otherwise m itself.  Every atom of
    psi must be a variable or define of m, whether or not the encoding
    reaches it, and a future-only scheme takes no past operator."""
    for name in sorted(atoms_of(psi)):
        if name not in m.vars and name not in m.define_map:
            raise UnresolvedAtomError(f"atom {name!r} is neither a variable nor a define")
    scheme = SCHEMES[opts.scheme]
    if scheme.future_only and past_depth(psi) > 0:
        raise PastOperatorError("formula contains past operators; this scheme handles future formulas only, use pltl")
    if scheme.automaton:
        return product(m, build_tight_ba(psi, d_max=opts.d_max))
    return m


def encode_bound(target: SymbolicModel, psi, k, opts: RunOptions, prefix: TimedVarMap = None):
    """A solver holding the scheme's encoding of bound k, and its variable
    map.

    Without ``prefix`` the solver is fresh.  With it, ``prefix`` is a map
    that holds nothing but the model unrolling (``unroll_model``) up to at
    most k: it is unrolled to k, and the bound is encoded on a copy of it,
    which gives the same solver as a fresh one, while ``prefix`` stays
    ready for a later bound."""
    if k < 0:
        raise CheckError(f"k must be non-negative, got {k}")
    if prefix is None:
        vm = TimedVarMap(Solver(), d_max=opts.d_max)
    else:
        if len(prefix.steps) > k + 1:
            raise CheckError(f"the prefix is unrolled past bound {k}")
        unroll_model(target, k, prefix)
        vm = prefix.copy()
    vm.solver.add_clause([SCHEMES[opts.scheme].encode(target, psi, k, vm)])
    return vm.solver, vm


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
        if value_of(vm.loop_sel(i)):
            if loop is not None:
                raise WitnessValidationError("two loop selectors are true")
            loop = i
    define_map = m.define_map
    values = []
    for st in states:
        # each define once, after the defines it names, which it then reads
        # from ``vals`` instead of evaluating them again
        vals = dict(st)
        for n in m.define_order:
            vals[n] = eval_expr(define_map[n], vals)
        values.append(vals)
    if not eval_expr(m.init, values[0]):
        raise WitnessValidationError("decoded path does not start in an initial state")
    for i in range(1, k + 1):
        if not eval_expr(m.trans, values[i - 1], values[i]):
            raise WitnessValidationError(f"decoded step {i - 1} -> {i} is not a transition")
    if loop is not None and states[loop - 1] != states[k]:
        raise WitnessValidationError("loop selector does not match the state bits")
    labels = [frozenset(n for n, v in vals.items() if v) for vals in values]
    return Witness(states=states, loop_start=loop, labels=labels, display_vars=m.vars)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_bmc(m: SymbolicModel, spec, opts: RunOptions = None):
    """Check M |= spec by searching for bounded witnesses of its negation.

    A ``spec`` given as text or as a ``SurfaceFormula`` is the property and
    is negated into PNF; a PNF ``Formula`` is taken as psi itself, the
    formula a witness satisfies, and is not negated.

    Every scheme with a chain style runs as one incremental session
    (``_run_incremental``); fixpoint, ``incremental=False`` and an external
    solver encode each bound into a solver of its own (``_run_monolithic``).
    That driver lowers the model unrolling once per run, each TRANS step
    once, and encodes each bound on a copy of it, with the same CNF as a
    bound encoded on a fresh solver (``encode_bound``)."""
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
        # the termination argument is made for the eventuality chains only:
        # cutting a loop segment may drop the only visit to an acceptance set
        if SCHEMES[opts.scheme].style is not eventuality_style or not opts.incremental:
            raise CheckError("completeness needs an incremental session with eventuality chains")
        if opts.external_solver:
            raise CheckError("completeness cannot use an external solver")
    if SCHEMES[opts.scheme].style and opts.incremental and not opts.external_solver:
        return _run_incremental(m, psi, opts)
    return _run_monolithic(m, psi, opts)


def _bounds(opts):
    return range(0, opts.max_k + 1, opts.increment)


def _run_monolithic(m, psi, opts):
    """Encode and solve bound after bound.  The CNF of every bound begins
    with the model unrolling, so one prefix map holds it for the whole run,
    each TRANS step lowered once, and each bound is encoded on a copy."""
    target = scheme_model(m, psi, opts)
    prefix = TimedVarMap(Solver(), d_max=opts.d_max)
    for k in _bounds(opts):
        found = _solve_bound(m, target, psi, k, opts, prefix)
        if found is not None:
            return found
    return BoundExhausted(max_k=opts.max_k)


def _solve_bound(m, target, psi, k, opts, prefix):
    """The witness of bound k, or None; the bound's solver dies on return,
    so the prefix and one bound are all that is alive at a time."""
    s, vm = encode_bound(target, psi, k, opts, prefix)
    res, value_of = _solve(s, opts, k)
    if res != SAT:
        return None
    w = extract_witness(value_of, vm, target, k)
    w.display_vars = m.vars
    return WitnessFound(witness=w, k=k)


def _solve(s, opts, k):
    if opts.external_solver:
        # a private directory, so concurrent runs never share a CNF file
        with tempfile.TemporaryDirectory(prefix="pltlbmc-") as directory:
            path = os.path.join(directory, f"bmc_k{k}.cnf")
            export_dimacs(s, path)
            verdict, values = run_external_solver(opts.external_solver, path)
        return verdict, lambda lit: values.get(abs(lit), False) == (lit > 0)
    res = s.solve()
    return res, s.model_value


def _run_incremental(m, psi, opts):
    """Query witnesses, and with completeness also termination,
    bound by bound on one incremental session of the scheme's model.

    With increment 1 the witness query carries the simple path conjunct, so
    the first satisfiable bound is still the minimal witness length.  With
    larger increments the witness query runs bare, and a termination verdict
    additionally requires the bare witness query to fail at the same bound
    (a witness at a skipped bound would persist to the current one).  The
    session steps up to the last bound it queries, not past it.
    """
    target = scheme_model(m, psi, opts)
    inc = IncrementalEncoder(target, psi, d_max=opts.d_max, style=SCHEMES[opts.scheme].style)
    step_one = opts.increment == 1
    for k in range(0, _bounds(opts)[-1] + 1):
        inc.step(k)
        if k % opts.increment:
            continue
        proved = opts.completeness and inc.query_completeness() == UNSAT
        if proved and step_one:
            return Proved(k=k)
        if inc.query_witness(simple_path=opts.completeness and step_one) == SAT:
            w = extract_witness(inc.solver.model_value, inc.vm, target, k)
            w.display_vars = m.vars
            return WitnessFound(witness=w, k=k)
        if proved:
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
    for i, st in enumerate(w.states):
        if w.loop_start is not None and i == w.loop_start:
            out.append("-- loop starts here --")
        vals = " ".join(f"{n}={int(st[n])}" for n in w.display_vars)
        out.append(f"state {i}: {vals}")
    return out


def exit_code(verdict) -> int:
    if isinstance(verdict, Proved):
        return 0
    if isinstance(verdict, WitnessFound):
        return 1
    return 2
