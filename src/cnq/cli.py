"""Command-line interface.

Subcommands::

    eval      symbolic per-line outcomes (exponents, collapsed forms)
    verify    check spec lines, report PASS/FAIL with witnesses
    simulate  dense statevector runs on basis inputs
    check     cross-check the calculus against simulation
    optimize  one merge pass; prints the rewritten circuit
    equiv     compare two circuits line by line
    fuzz      cross-check seeded random circuits against simulation
              (``--count N`` circuits, N >= 1)

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or parse error,
3 control taken from a non-Boolean line, 4 enumeration/simulation guard
exceeded.  ``--format structured`` emits a single JSON document with
``command``, ``verdict``, ``lines``, ``diagnostics`` and ``gate_counts``
keys (plus per-command extras).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .circuit import Circuit
from .errors import (
    CnqError,
    EnumerationLimitError,
    LineMismatchError,
    SimulationLimitError,
    TargetInteractionError,
)
from .expr import DEFAULT_ENUM_GUARD, display_anf, iter_assignments
from .optimize import merge_pass, optimization_report
from .oracle import DEFAULT_SIM_GUARD, cross_check, simulate
from .symbolic import check_spec, equivalent, evaluate
from .fuzz import self_test

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERACTION = 3
EXIT_GUARD = 4

# Inputs with at most this many lines are enumerated exhaustively by
# ``simulate`` when no --input is given.
SIMULATE_ENUM_LIMIT = 8


def _load(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        err = CnqError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}")
        err.code = "E_IO"
        raise err from None
    return Circuit.parse(text)


def _document(command: str, verdict: str | None, circuit: Circuit | None) -> dict:
    return {
        "command": command,
        "verdict": verdict,
        "lines": {},
        "diagnostics": [],
        "gate_counts": circuit.gate_count() if circuit is not None else {},
    }


def _print_doc(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=False))


def _warn_diags(report) -> list[dict]:
    return [{"severity": "warning", "code": None, "message": w} for w in report.warnings]


# -- subcommands ----------------------------------------------------------------


def _cmd_eval(args) -> int:
    c = _load(args.circuit)
    report = evaluate(c)
    if args.format == "structured":
        doc = _document("eval", None, c)
        doc["lines"] = report.to_dict()["lines"]
        doc["diagnostics"] = _warn_diags(report)
        _print_doc(doc)
    else:
        print(report.to_text())
    return EXIT_OK


def _cmd_verify(args) -> int:
    c = _load(args.circuit)
    if not c.specs:
        print("error: circuit has no spec lines to verify", file=sys.stderr)
        return EXIT_USAGE
    report = evaluate(c)
    verdicts = check_spec(report, guard=args.guard_enum)
    ok = all(v.passed for v in verdicts)
    if args.format == "structured":
        doc = _document("verify", "PASS" if ok else "FAIL", c)
        doc["lines"] = report.to_dict()["lines"]
        doc["specs"] = [v.to_dict() for v in verdicts]
        doc["diagnostics"] = [
            {
                "severity": "error",
                "code": v.code,
                "message": f"spec for {v.line!r} not met",
            }
            for v in verdicts
            if not v.passed
        ] + _warn_diags(report)
        _print_doc(doc)
    else:
        for v in verdicts:
            if v.passed:
                print(f"spec {v.line}: PASS   ({display_anf(v.expected)})")
            elif v.code == "E_NO_COLLAPSE":
                print(f"spec {v.line}: FAIL   no Boolean form ({v.actual_state})")
                if v.witness is not None:
                    print(f"    non-Boolean at {_fmt_point(v.witness)}")
            else:
                print(f"spec {v.line}: FAIL   expected {display_anf(v.expected)}, "
                      f"got {display_anf(v.actual_value)}")
                if v.witness is not None:
                    print(f"    first difference at {_fmt_point(v.witness)}")
        print("verdict:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def _fmt_point(pt: dict[str, int]) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(pt.items()))


def _parse_input_bits(bits: str, circuit: Circuit) -> dict[str, int]:
    names = circuit.line_names
    if len(bits) != len(names) or any(ch not in "01" for ch in bits):
        raise CnqError(
            f"--input wants {len(names)} bits in line order {'/'.join(names)}"
        )
    return {name: int(ch) for name, ch in zip(names, bits)}


def _cmd_simulate(args) -> int:
    c = _load(args.circuit)
    if args.input is not None:
        points = [_parse_input_bits(args.input, c)]
    elif len(c.lines) <= SIMULATE_ENUM_LIMIT:
        points = list(iter_assignments(c.line_names))
    else:
        print(
            f"error: {len(c.lines)} lines; pass --input <bits> above "
            f"{SIMULATE_ENUM_LIMIT} lines",
            file=sys.stderr,
        )
        return EXIT_USAGE
    states = [(pt, simulate(c, pt, guard=args.guard_sim)) for pt in points]
    if args.format == "structured":
        doc = _document("simulate", None, c)
        doc["lines"] = {ln.name: {"role": ln.role} for ln in c.lines}
        doc["states"] = [
            {
                "input": "".join(str(pt[n]) for n in c.line_names),
                "amplitudes": {
                    bits: [amp.real, amp.imag] for bits, amp in sv.amplitudes().items()
                },
            }
            for pt, sv in states
        ]
        _print_doc(doc)
    else:
        for pt, sv in states:
            bits = "".join(str(pt[n]) for n in c.line_names)
            print(f"input |{bits}>:")
            for ln in sv.dump().splitlines():
                print(f"  {ln}")
    return EXIT_OK


def _cmd_check(args) -> int:
    c = _load(args.circuit)
    report = evaluate(c)
    res = cross_check(c, report, guard=args.guard_sim)
    if args.format == "structured":
        doc = _document("check", "PASS" if res.passed else "FAIL", c)
        doc["lines"] = report.to_dict()["lines"]
        doc["cross_check"] = res.to_dict()
        if not res.passed:
            doc["diagnostics"] = [
                {"severity": "error", "code": None, "message": res.detail or "mismatch"}
            ]
        _print_doc(doc)
    else:
        if res.passed:
            print(f"cross-check: PASS ({res.inputs_checked} inputs)")
        else:
            print(f"cross-check: FAIL at {_fmt_point(res.witness)}: {res.detail}")
    return EXIT_OK if res.passed else EXIT_FAIL


def _cmd_optimize(args) -> int:
    c = _load(args.circuit)
    res = merge_pass(c)
    rep = optimization_report(c, res.circuit, res.changes)
    if args.format == "structured":
        doc = _document("optimize", None, c)
        doc["lines"] = {ln.name: {"role": ln.role} for ln in c.lines}
        doc.update(rep.to_dict())        # gate_counts before/after + changes
        doc["optimized"] = str(res.circuit)
        _print_doc(doc)
    else:
        print(rep.to_text())
        print()
        print(str(res.circuit), end="")
    return EXIT_OK


def _cmd_equiv(args) -> int:
    c1 = _load(args.left)
    c2 = _load(args.right)
    try:
        verdict = equivalent(c1, c2)
    except LineMismatchError as exc:
        if args.format == "structured":
            doc = _document("equiv", "FAIL", None)
            doc["diagnostics"] = [
                {"severity": "error", "code": exc.code, "message": exc.message}
            ]
            _print_doc(doc)
        else:
            print(f"verdict: FAIL ({exc.describe()})")
        return EXIT_FAIL
    if args.format == "structured":
        doc = _document("equiv", "PASS" if verdict.passed else "FAIL", None)
        doc["lines"] = {
            name: {"status": "match" if detail == "match" else "mismatch", "detail": detail}
            for name, detail in verdict.details.items()
        }
        doc["gate_counts"] = {"left": c1.gate_count(), "right": c2.gate_count()}
        _print_doc(doc)
    else:
        for name, detail in verdict.details.items():
            print(f"line {name}: {detail}")
        print("verdict:", "PASS" if verdict.passed else "FAIL")
    return EXIT_OK if verdict.passed else EXIT_FAIL


def _cmd_fuzz(args) -> int:
    if args.count < 1:
        print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
        return EXIT_USAGE
    res = self_test(args.seed, args.count)
    if args.format == "structured":
        doc = _document("fuzz", "PASS" if res.passed else "FAIL", None)
        doc["circuits"] = res.circuits
        doc["diagnostics"] = [
            {"severity": "error", "code": None, "message": f} for f in res.failures
        ]
        _print_doc(doc)
    else:
        if res.passed:
            print(f"self-test: {res.circuits} random circuits agree with simulation "
                  f"(seed {args.seed})")
        else:
            print(f"self-test: {len(res.failures)} failures out of {res.circuits}")
            for f in res.failures:
                print(f)
    return EXIT_OK if res.passed else EXIT_FAIL


# -- argument plumbing ------------------------------------------------------------


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--format", choices=("text", "structured"), default="text",
        help="output style (default: text)",
    )
    sp.add_argument(
        "--guard-enum", type=int, default=DEFAULT_ENUM_GUARD, metavar="N",
        help="refuse exhaustive enumeration above N variables",
    )
    sp.add_argument(
        "--guard-sim", type=int, default=DEFAULT_SIM_GUARD, metavar="N",
        help="refuse dense simulation above N lines",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnq",
        description="Symbolic evaluation, verification and optimization of "
        "controlled root-of-NOT circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="symbolic per-line outcomes")
    sp.add_argument("circuit")
    _add_common(sp)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("verify", help="check spec lines")
    sp.add_argument("circuit")
    _add_common(sp)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="dense statevector runs")
    sp.add_argument("circuit")
    sp.add_argument("--input", metavar="BITS", help="one basis input, line order")
    _add_common(sp)
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("check", help="cross-check calculus vs simulation")
    sp.add_argument("circuit")
    _add_common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("optimize", help="merge same-control gate groups")
    sp.add_argument("circuit")
    _add_common(sp)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("equiv", help="compare two circuits")
    sp.add_argument("left")
    sp.add_argument("right")
    _add_common(sp)
    sp.set_defaults(func=_cmd_equiv)

    sp = sub.add_parser("fuzz", help="cross-check seeded random circuits")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--count", type=int, default=200, help="circuits to check, at least 1")
    _add_common(sp)
    sp.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TargetInteractionError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return EXIT_INTERACTION
    except (EnumerationLimitError, SimulationLimitError) as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return EXIT_GUARD
    except CnqError as exc:
        where = f"{args.circuit}: " if hasattr(args, "circuit") else ""
        print(f"error: {where}{exc.describe()}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
