"""Command line front end.

Subcommands: ``check`` (run the bounded model checker), ``encode`` (emit a
DIMACS file plus a variable map), ``l2s`` (liveness-to-safety transform),
``tightba`` (write a formula's automaton as a model file), and ``oracle``
(brute-force verdict for small models).

Exit codes: 0 proved, 1 witness found, 2 unknown/bound exhausted, 3 error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .pltl import parse_formula, to_pnf, s_not, format_formula, closure
from .model import parse_model, model_to_text, explicit_expand, ModelError
from .sat import export_dimacs
from .tightba import build_tight_ba
from .l2s import l2s_transform
from .oracle import Budget, exists_witness_bounded, BudgetExceeded
from . import check as checker

EXIT_PROVED = 0
EXIT_WITNESS = 1
EXIT_UNKNOWN = 2
EXIT_ERROR = 3

DMAX_HELP = "virtual unrolling cap: a non-negative integer or 'full'"


def _load_model(path):
    with open(path) as fh:
        return parse_model(fh.read())


def _spec_formula(args, m):
    text = args.spec if args.spec is not None else m.spec_text
    if text is None:
        raise ModelError("no specification: pass --spec or add a SPEC line to the model")
    return parse_formula(text)


def _dmax(value):
    if value is None or value == "full":
        return None
    return int(value)


def _add_common(p):
    p.add_argument("model", help="model file")
    p.add_argument("--spec", help="property (overrides the model's SPEC line)")
    p.add_argument("--emit-json", action="store_true", help="also print machine-readable records")


def _add_scheme(p):
    p.add_argument("--scheme", choices=list(checker.SCHEMES), default="pltl")
    p.add_argument("--dmax", default="full", help=DMAX_HELP)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pltlbmc")
    sub = ap.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check", help="run bounded model checking")
    _add_common(pc)
    _add_scheme(pc)
    pc.add_argument("--no-incremental", action="store_true")
    pc.add_argument("--complete", action="store_true", help="enable the termination check")
    pc.add_argument("--max-k", type=int, default=25)
    pc.add_argument("--increment", type=int, default=1)
    pc.add_argument("--force-stabilise", action="store_true")
    pc.add_argument("--no-release-acceptance", action="store_true")
    pc.add_argument(
        "--polarity-aware",
        action="store_true",
        help="one-sided clause lowering for monotone gate cones",
    )
    pc.add_argument(
        "--solver",
        nargs="+",
        metavar=("KIND", "CMD"),
        help="'external CMD...' runs a DIMACS solver binary per bound",
    )

    pe = sub.add_parser("encode", help="emit DIMACS plus a variable map for one bound")
    _add_common(pe)
    _add_scheme(pe)
    pe.add_argument("-k", type=int, required=True)
    pe.add_argument("-o", "--out", required=True, help="output CNF path")
    pe.add_argument("--map", help="variable map path (default: OUT.map)")

    pl = sub.add_parser("l2s", help="liveness-to-safety transformation")
    pl.add_argument("model")
    pl.add_argument("-o", "--out", help="output model path (default: stdout)")
    pl.add_argument("--optimise", action="store_true", help="drop loop-irrelevant inputs")

    pt = sub.add_parser("tightba", help="write a formula's tight automaton as a model file")
    pt.add_argument("formula", help="PLTL formula text")
    pt.add_argument("--dmax", default="full", help=DMAX_HELP)
    pt.add_argument("-o", "--out", help="output model path (default: stdout)")

    po = sub.add_parser("oracle", help="brute-force verdict on a small model")
    _add_common(po)
    po.add_argument("--max-k", type=int, default=8)
    po.add_argument("--max-bits", type=int, default=6)

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        return EXIT_ERROR
    except Exception as exc:  # uniform error reporting for the CLI surface
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _dispatch(args):
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "encode":
        return _cmd_encode(args)
    if args.command == "l2s":
        return _cmd_l2s(args)
    if args.command == "tightba":
        return _cmd_tightba(args)
    if args.command == "oracle":
        return _cmd_oracle(args)
    raise RuntimeError("unreachable")


def _cmd_check(args):
    m = _load_model(args.model)
    spec = _spec_formula(args, m)
    external = None
    if args.solver:
        if args.solver[0] != "external" or len(args.solver) < 2:
            raise ValueError("--solver expects: external CMD [ARG...]")
        external = tuple(args.solver[1:])
    opts = checker.RunOptions(
        scheme=args.scheme,
        d_max=_dmax(args.dmax),
        incremental=not args.no_incremental,
        completeness=args.complete,
        max_k=args.max_k,
        increment=args.increment,
        force_stabilise=args.force_stabilise,
        release_acceptance=not args.no_release_acceptance,
        polarity_aware=args.polarity_aware,
        external_solver=external,
    )
    verdict = checker.run_bmc(m, spec, opts)
    print(checker.verdict_line(verdict))
    if isinstance(verdict, checker.WitnessFound):
        for line in checker.trace_lines(verdict.witness):
            print(line)
    if args.emit_json:
        print(json.dumps(_verdict_record(verdict)))
    return checker.exit_code(verdict)


def _verdict_record(verdict):
    if isinstance(verdict, checker.WitnessFound):
        w = verdict.witness
        return {
            "verdict": "witness",
            "k": verdict.k,
            "loop_start": w.loop_start,
            "trace": [{n: bool(v) for n, v in st.items()} for st in w.states],
        }
    if isinstance(verdict, checker.Proved):
        return {"verdict": "proved", "k": verdict.k}
    return {"verdict": "unknown", "max_k": verdict.max_k}


def _cmd_encode(args):
    m = _load_model(args.model)
    spec = _spec_formula(args, m)
    psi = to_pnf(s_not(spec))
    opts = checker.RunOptions(scheme=args.scheme, d_max=_dmax(args.dmax))
    s, vm = checker.encode_bound(checker.scheme_model(m, psi, opts), psi, args.k, opts)
    export_dimacs(s, args.out)
    map_path = args.map or (args.out + ".map")
    _write_var_map(map_path, vm, psi)
    print(f"wrote {args.out} and {map_path}")
    return 0


def _write_var_map(path, vm, psi):
    cl = closure(psi)
    pos = {f.fid: n for n, f in enumerate(cl)}
    with open(path, "w") as fh:
        for n, f in enumerate(cl):
            fh.write(f"# phi {n} {format_formula(f)}\n")
        for (i, name), var in sorted(vm.state.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
            fh.write(f"state - {i} - {name} {var}\n")
        for i, var in sorted(vm.loopsel.items()):
            fh.write(f"loopsel - {i} - - {var}\n")
        for i, var in sorted(vm.inloop.items()):
            fh.write(f"inloop - {i} - - {var}\n")
        if vm._loopexists is not None:
            fh.write(f"loopexists - - - - {vm._loopexists}\n")
        for (fid, i, d), var in sorted(vm.fvars.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), kv[0][2])):
            fh.write(f"formula {pos.get(fid, fid)} {i} {d} - {var}\n")
        for (role, key, i), var in sorted(vm.aux.items(), key=lambda kv: (kv[0][0], str(kv[0][1]), str(kv[0][2]))):
            fh.write(f"aux_{role} {key} {i} - - {var}\n")


def _cmd_l2s(args):
    m = _load_model(args.model)
    t = l2s_transform(m, optimise=args.optimise)
    text = model_to_text(t.model)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out} (target define: {t.target})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_tightba(args):
    psi = to_pnf(parse_formula(args.formula))
    ba = build_tight_ba(psi, d_max=_dmax(args.dmax))
    text = model_to_text(ba.model)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_oracle(args):
    m = _load_model(args.model)
    spec = _spec_formula(args, m)
    psi = to_pnf(s_not(spec))
    budget = Budget(max_bits=args.max_bits, max_k=args.max_k)
    em = explicit_expand(m, max_bits=args.max_bits)
    found = None
    for k in range(args.max_k + 1):
        try:
            if exists_witness_bounded(em, psi, k, budget):
                found = k
                break
        except BudgetExceeded as exc:
            raise ModelError(f"oracle budget exceeded: {exc}")
    if found is not None:
        print(f"VERDICT WITNESS k={found}")
        if args.emit_json:
            print(json.dumps({"verdict": "witness", "k": found}))
        return EXIT_WITNESS
    print(f"VERDICT UNKNOWN max_k={args.max_k}")
    if args.emit_json:
        print(json.dumps({"verdict": "unknown", "max_k": args.max_k}))
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
