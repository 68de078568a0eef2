"""Command line front end.

Verdicts are written as JSON on stdout for scripting; a short human-readable
account goes to stderr.  Exit status: 0 when the outcome matches the
expectation (``--expect pass`` unless overridden), 1 when it does not, and
2 for malformed inputs, usage errors or an input too large for memory or
too deeply nested.

Processes are given as JSON files, or as ``example:NAME`` to pull a gallery
entry built with its default parameters.

Each subcommand imports only the modules it uses, so ``causkit prove`` (the
prover: ``mll``, ``typesys`` and ``errors``) starts without importing numpy.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
from typing import Sequence

from . import BACKENDS, DEFAULT_TOL
from .errors import CauskitError


def _load_process(spec: str):
    from . import core, gallery

    if spec.startswith("example:"):
        return gallery.build(spec[len("example:") :]).process
    return core.load_process(spec)


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _say(line: str) -> None:
    print(line, file=sys.stderr)


def _at_least(kind: type, low: int, what: str):
    """An argparse type: a finite ``kind`` value, at least ``low``."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low <= value < math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError(f"expected {what} >= {low}, got {text!r}")
        return value

    return parse


_tolerance = _at_least(float, 0, "a finite number")
_budget = _at_least(int, 1, "an integer")


def _example_params(builder, pairs: Sequence[str]) -> dict[str, object]:
    """``key=value`` pairs for a gallery builder, each value read as the type
    of that parameter's default."""
    signature = inspect.signature(builder).parameters
    params: dict[str, object] = {}
    for kv in pairs:
        key, eq, value = kv.partition("=")
        if not eq:
            raise CauskitError(f"--param expects key=value, got {kv!r}")
        if key not in signature:
            takes = ", ".join(signature) or "no parameters"
            raise CauskitError(f"unknown --param {key!r}; {builder.__name__} takes {takes}")
        kind = type(signature[key].default)  # every builder has defaults: example:NAME uses them
        try:
            params[key] = kind(value)
        except ValueError:
            article = "an" if kind is int else "a"
            raise CauskitError(f"--param {key} expects {article} {kind.__name__}, got {value!r}") from None
    return params


def _verdict_exit(passed: bool, expect: str) -> int:
    return 0 if passed == (expect == "pass") else 1


# -- subcommands -----------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    from . import backends, checks, events

    p = _load_process(args.process)
    if args.type is not None:
        rep = checks.check_membership(p, args.type, tol=args.tol, budget=args.budget)
        mode = {"mode": "membership", "type": args.type}
    elif args.poset is not None:
        rep = checks.check_order_consistency(p, events.load_poset(args.poset), tol=args.tol)
        mode = {"mode": "order-consistency", "poset": args.poset}
    else:
        rep = backends.is_causal(p, tol=args.tol)
        mode = {"mode": "causal"}
    _emit(
        {
            "process": args.process,
            "backend": p.backend,
            **mode,
            "passed": rep.passed,
            "residual": rep.residual,
            "tol": rep.tol,
            "detail": rep.detail,
        }
    )
    _say(f"{args.process}: {rep}")
    return _verdict_exit(rep.passed, args.expect)


def cmd_prove(args: argparse.Namespace) -> int:
    from . import mll

    proof = mll.prove(args.sequent, budget=args.budget)
    rendered = mll.render_proof(proof) if proof is not None else None
    _emit({"sequent": args.sequent, "provable": proof is not None, "proof": rendered})
    if proof is None:
        _say(f"not provable: {args.sequent}")
    else:
        _say(rendered)
    return _verdict_exit(proof is not None, args.expect)


def cmd_axioms(args: argparse.Namespace) -> int:
    from . import axioms

    which = tuple(args.backend) if args.backend else BACKENDS
    results = axioms.run_all(which)
    _emit({"results": [r.to_dict() for r in results]})
    ok = True
    for r in results:
        mark = "ok " if r.as_expected else "??"
        _say(
            f"{mark} {r.backend:6} {r.axiom}: holds={str(r.holds).lower():5}"
            f" residual={r.residual:.3g}"
        )
        ok = ok and r.as_expected
    return 0 if ok else 1


def cmd_examples(args: argparse.Namespace) -> int:
    from . import checks, gallery

    if args.name is None:
        listing = []
        for name in sorted(gallery.REGISTRY):
            doc = (gallery.REGISTRY[name].__doc__ or "").strip().splitlines()[0]
            listing.append({"name": name, "description": doc})
            _say(f"{name:20} {doc}")
        _emit({"examples": listing})
        return 0
    try:
        params = _example_params(gallery.builder(args.name), args.param or [])
        if args.seed is not None:
            params["seed"] = args.seed
        inst = gallery.build(args.name, **params)
    except (ValueError, TypeError) as e:
        raise CauskitError(str(e)) from e
    rows = []
    ok = True
    for ty, expect in inst.expectations:
        rep = checks.check_membership(inst.process, ty, tol=args.tol, budget=args.budget)
        match = rep.passed == expect
        ok = ok and match
        rows.append(
            {
                "type": ty,
                "expected": expect,
                "passed": rep.passed,
                "residual": rep.residual,
            }
        )
        _say(f"{'ok ' if match else '??'} expect={expect!s:5} got={rep.passed!s:5} {ty}")
    _emit({"name": inst.name, "description": inst.description, "checks": rows})
    return 0 if ok else 1


def cmd_convert(args: argparse.Namespace) -> int:
    from . import core

    p = _load_process(args.process)
    if args.out_order or args.in_order:
        outs = args.out_order.split(",") if args.out_order else [w.label for w in p.out_wires]
        ins = args.in_order.split(",") if args.in_order else [w.label for w in p.in_wires]
        p = core.permute(p, outs, ins)
    if args.out:
        core.dump_process(p, args.out)
        _say(f"wrote {args.out}")
    else:
        _emit(core.to_json_dict(p))
    wires = ", ".join(f"{w.label}[{w.dim}]:{p.role(w.label)}" for w in p.wires)
    _say(f"{p.backend} process with wires {wires}")
    return 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causkit",
        description="verify causal-structure properties of stochastic, quantum and relational processes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser, expect: bool = True) -> None:
        sp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL, help="residual tolerance")
        sp.add_argument(
            "--budget", type=_budget, default=20000, help="bound on enumerated channel tuples (rel) / expansions"
        )
        if expect:
            sp.add_argument(
                "--expect",
                choices=("pass", "fail"),
                default="pass",
                help="exit 0 only if the verdict matches this expectation",
            )

    sp = sub.add_parser("check", help="check causality, type membership or order consistency")
    sp.add_argument("process", help="process JSON file or example:NAME")
    mode = sp.add_mutually_exclusive_group()
    mode.add_argument("--type", help="causal type, e.g. \"(A[2] -o A'[2]) (x) (B[2] -o B'[2])\"")
    mode.add_argument("--poset", help="event poset JSON file (events + order pairs)")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("prove", help="decide a type sequent, e.g. \"A (x) B |- A (+) B\"")
    sp.add_argument("sequent")
    sp.add_argument("--budget", type=_budget, default=200_000)
    sp.add_argument("--expect", choices=("pass", "fail"), default="pass")
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("axioms", help="run the backend axiom harness")
    sp.add_argument("--backend", action="append", choices=BACKENDS, help="restrict to a backend")
    sp.set_defaults(func=cmd_axioms)

    sp = sub.add_parser("examples", help="list gallery examples or re-verify one")
    sp.add_argument("name", nargs="?", help="example name (omit to list)")
    sp.add_argument("--param", action="append", help="builder parameter key=value")
    sp.add_argument("--seed", type=int, help="override the example's seed parameter")
    common(sp, expect=False)
    sp.set_defaults(func=cmd_examples)

    sp = sub.add_parser("convert", help="reserialize a process, optionally permuting wires")
    sp.add_argument("process", help="process JSON file or example:NAME")
    sp.add_argument("--out", help="write to this file instead of stdout")
    sp.add_argument("--out-order", help="comma-separated output wire order")
    sp.add_argument("--in-order", help="comma-separated input wire order")
    sp.set_defaults(func=cmd_convert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CauskitError, OSError, MemoryError, RecursionError) as e:
        message = "input nested too deeply" if isinstance(e, RecursionError) else str(e) or type(e).__name__
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
