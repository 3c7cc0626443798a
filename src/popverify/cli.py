"""Command-line entry point.

Subcommands: ``build`` (emit a constructed protocol file), ``transform``
(model-to-model compilers), ``verify`` (sweep a protocol against a
predicate file), ``simulate`` (one random fair execution, or the
set-union protocol under local fairness), ``analyze`` (minimal unstable
configurations and the implied truncation constant), and ``pred``
(evaluate a predicate file on an input).

Exit codes: 0 success, 1 verification mismatch (or, for ``simulate``, a
run that did not converge), 2 usage or parse error (including a
``--transit-cap`` below 1), 3 node-budget exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import protofile, protocols, transforms, verifier
from .multiset import Multiset
from .semilinear import Modulo, Threshold, parse_predicate, simple_threshold

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


# Characters that the protocol, multiset or predicate formats read as
# syntax; an input symbol holding one cannot be read back from a file.
_SYNTAX = frozenset("#{}[](),:;")


def _symbol(text: str) -> str:
    """``text`` as an input symbol that every file format carries back."""
    if not text or "->" in text or any(ch.isspace() or ch in _SYNTAX for ch in text):
        raise argparse.ArgumentTypeError(
            f"bad input symbol {text!r}: it must be nonempty, without whitespace, "
            "'->' or any of # { } [ ] ( ) , : ;"
        )
    return text


def _coeffs(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise argparse.ArgumentTypeError(f"expected sym=coef, got {part!r}")
        sym, _, val = part.partition("=")
        sym = _symbol(sym.strip())
        if sym in out:
            raise argparse.ArgumentTypeError(f"repeated symbol in coefficients: {sym}")
        try:
            out[sym] = int(val)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad coefficient in {part!r}") from None
    if not out:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return out


def _alphabet(text: str) -> tuple:
    syms = tuple(_symbol(s.strip()) for s in text.split(",") if s.strip())
    if not syms:
        raise argparse.ArgumentTypeError("empty alphabet")
    repeated = sorted({s for s in syms if syms.count(s) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"repeated symbols in alphabet: {', '.join(repeated)}")
    return syms


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="popverify")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a protocol and emit its file")
    bsub = b.add_subparsers(dest="builder", required=True)

    bt = bsub.add_parser("threshold", help="simple threshold tower")
    bt.add_argument("--sigma", required=True)
    bt.add_argument("--k", type=int, required=True)
    bt.add_argument("--alphabet", type=_alphabet, required=True)
    bt.add_argument("--out")

    bm = bsub.add_parser("modulo", help="active/passive modulo protocol")
    bm.add_argument("--coeffs", type=_coeffs, required=True)
    bm.add_argument("--r", type=int, required=True)
    bm.add_argument("--m", type=int, required=True)
    bm.add_argument("--out")

    ba = bsub.add_parser("avg-threshold", help="averaging threshold protocol")
    ba.add_argument("--coeffs", type=_coeffs, required=True)
    ba.add_argument("--r", type=int, required=True)
    ba.add_argument("--out")

    bd = bsub.add_parser("delayed-modulo", help="delayed transmission modulo")
    bd.add_argument("--coeffs", type=_coeffs, required=True)
    bd.add_argument("--r", type=int, required=True)
    bd.add_argument("--m", type=int, required=True)
    bd.add_argument("--out")

    bdt = bsub.add_parser("delayed-threshold", help="delayed transmission simple threshold")
    bdt.add_argument("--sigma", required=True)
    bdt.add_argument("--k", type=int, required=True)
    bdt.add_argument("--alphabet", type=_alphabet, required=True)
    bdt.add_argument("--out")

    bp = bsub.add_parser("presence", help="delayed observation presence detector")
    bp.add_argument("--sigma", required=True)
    bp.add_argument("--alphabet", type=_alphabet, required=True)
    bp.add_argument("--out")

    t = sub.add_parser("transform", help="model-to-model compilers")
    t.add_argument("--kind", choices=["queued", "tokens", "mirrors", "unmirrors"], required=True)
    t.add_argument("--in", dest="infile", required=True)
    t.add_argument("--out")
    t.add_argument("--sigma-tok", help="token input symbol (kind=tokens)")
    t.add_argument("--k", type=int, help="storage bound (kind=tokens)")

    v = sub.add_parser("verify", help="sweep a protocol against a predicate")
    v.add_argument("--protocol", required=True)
    v.add_argument("--predicate", required=True)
    v.add_argument("--max-n", type=int, required=True)
    v.add_argument("--transit-cap", type=int)
    v.add_argument("--budget", type=int, default=verifier.DEFAULT_NODE_BUDGET)
    v.add_argument("--format", choices=["text", "records"], default="text")

    s = sub.add_parser("simulate", help="random fair execution of one input")
    group = s.add_mutually_exclusive_group(required=True)
    group.add_argument("--protocol")
    group.add_argument("--set-union-alphabet", type=_alphabet,
                       help="run the set-union protocol under local fairness")
    s.add_argument("--input", required=True, help='input multiset, e.g. "{a:3}"')
    # No defaults here, so a set-union run can tell these flags were
    # given; a --protocol run falls back on fair_run's defaults.
    s.add_argument("--seed", type=int, help="--protocol only (default 0)")
    s.add_argument("--max-steps", type=int, help="--protocol only (default 10000)")
    s.add_argument("--transit-cap", type=int, help="--protocol only")

    a = sub.add_parser("analyze", help="minimal unstable configurations")
    a.add_argument("--protocol", required=True)
    a.add_argument("--size-bound", type=int, required=True)
    a.add_argument("--budget", type=int, default=verifier.DEFAULT_NODE_BUDGET)
    a.add_argument("--transit-cap", type=int)

    p = sub.add_parser("pred", help="predicate engine")
    psub = p.add_subparsers(dest="action", required=True)
    pe = psub.add_parser("eval", help="evaluate a predicate on an input")
    pe.add_argument("--predicate", required=True)
    pe.add_argument("--input", required=True)

    return ap


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_protocol(path: str):
    with open(path) as fh:
        return protofile.parse(fh.read())


def _load_predicate(path: str):
    with open(path) as fh:
        return parse_predicate(fh.read())


def _cmd_build(args) -> int:
    if args.builder == "threshold":
        spec = protocols.build_simple_threshold(args.sigma, args.k, args.alphabet)
    elif args.builder == "modulo":
        spec = protocols.build_modulo(Modulo(args.coeffs, args.r, args.m))
    elif args.builder == "avg-threshold":
        spec = protocols.build_threshold_avg(Threshold(args.coeffs, args.r))
    elif args.builder == "delayed-modulo":
        spec = protocols.build_delayed_transmission(Modulo(args.coeffs, args.r, args.m))
    elif args.builder == "delayed-threshold":
        spec = protocols.build_delayed_transmission(
            simple_threshold(args.sigma, args.k), args.alphabet
        )
    else:
        spec = protocols.detect(args.sigma, args.alphabet)
    _write(protofile.emit(spec), args.out)
    return EXIT_OK


def _cmd_transform(args) -> int:
    spec = _load_protocol(args.infile)
    if args.kind == "queued":
        out, _ = transforms.two_way_to_queued(spec)
    elif args.kind == "tokens":
        if not args.sigma_tok or args.k is None:
            print("error: transform --kind tokens needs --sigma-tok and --k", file=sys.stderr)
            return EXIT_USAGE
        out, _ = transforms.two_way_to_queued_tokens(spec, args.sigma_tok, args.k)
    elif args.kind == "mirrors":
        out = transforms.io_add_mirrors(spec)
    else:
        out = transforms.io_remove_mirrors(spec)
    _write(protofile.emit(out), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _load_protocol(args.protocol)
    psi = _load_predicate(args.predicate)
    report = verifier.sweep(
        spec,
        psi,
        max_n=args.max_n,
        node_budget=args.budget,
        transit_cap=args.transit_cap,
    )
    if args.format == "records":
        for e in report.entries:
            rec = {
                "input": str(e.input),
                "expected": e.expected,
                "verdict": str(e.verdict) if e.verdict else "budget-exceeded",
                "ok": e.ok,
            }
            if e.verdict and e.verdict.witness is not None:
                rec["witness"] = [str(c) for c in e.verdict.witness]
            if e.error:
                rec["error"] = e.error
            print(json.dumps(rec, sort_keys=True))
    else:
        print(report.summary())
    if report.budget_failures:
        return EXIT_BUDGET
    if report.mismatches:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_simulate(args) -> int:
    x = Multiset.parse(args.input)
    run_opts = {
        name: value
        for name, value in vars(args).items()
        if name in ("seed", "max_steps", "transit_cap") and value is not None
    }
    if args.set_union_alphabet:
        if run_opts:
            flags = ", ".join("--" + name.replace("_", "-") for name in run_opts)
            print(f"error: --set-union-alphabet takes no {flags}", file=sys.stderr)
            return EXIT_USAGE
        protocol = protocols.build_set_union(args.set_union_alphabet)
        result = verifier.local_fair_run(protocol, x)
        print(f"rounds {result.rounds}")
        for state in result.states:
            print("agent " + "{" + ",".join(sorted(state)) + "}")
        return EXIT_OK
    trace = verifier.fair_run(_load_protocol(args.protocol), x, **run_opts)
    for c in trace.configs:
        print(str(c))
    if trace.converged:
        print(f"converged with output {trace.output} after {trace.steps} steps")
        return EXIT_OK
    print(f"did not converge after {trace.steps} steps", file=sys.stderr)
    return EXIT_MISMATCH


def _cmd_analyze(args) -> int:
    spec = _load_protocol(args.protocol)
    analysis = verifier.minimal_unstable(
        spec, args.size_bound, node_budget=args.budget, transit_cap=args.transit_cap
    )
    print(f"unstable configurations up to size {args.size_bound}: {len(analysis.unstable)}")
    print(f"minimal unstable configurations: {len(analysis.minimal)}")
    for c in analysis.minimal:
        print(f"  {c}")
    print(f"implied truncation constant: {analysis.truncation_k}")
    return EXIT_OK


def _cmd_pred(args) -> int:
    psi = _load_predicate(args.predicate)
    x = Multiset.parse(args.input)
    print("true" if psi(x) else "false")
    return EXIT_OK


_HANDLERS = {
    "build": _cmd_build,
    "transform": _cmd_transform,
    "verify": _cmd_verify,
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "pred": _cmd_pred,
}


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except verifier.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
