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

Each subcommand is one row of ``_COMMANDS``: its help text, the circuit
files it reads, its own options and a handler.  Every subcommand takes
``--format``; the one guard, ``--guard-sim``, goes only to the commands
it bounds: ``simulate``, ``check`` and ``fuzz``.  ``verify`` needs none,
since a failing spec's witness is read off its canonical form.  A
handler gets the parsed arguments and the loaded circuits and returns
its verdict (``True``, ``False`` or ``None`` when the command has none),
its structured fields and its text.  ``main`` is the one emitter: it
loads the files, maps errors to exit codes, and prints either the text
or the fields laid over the common document.  If the reader closes the
pipe early, the rest of the output is dropped without a traceback and
the exit code is unchanged.

Only ``simulate``, ``check`` and ``fuzz`` import the numpy oracle, inside
their handlers; the other commands never load numpy.

Exit codes: 0 success/PASS, 1 verification FAIL, 2 usage or parse error,
3 control taken from a non-Boolean line, 4 simulation guard exceeded.
``--format structured`` emits a single JSON document with ``command``,
``verdict``, ``lines``, ``diagnostics`` and ``gate_counts`` keys (plus
per-command extras).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

from .circuit import Circuit
from .errors import (
    DEFAULT_SIM_GUARD,
    CnqError,
    LineMismatchError,
    SimulationLimitError,
    TargetInteractionError,
)
from .expr import display_anf, iter_assignments
from .optimize import merge_pass
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


class _UsageError(Exception):
    """A request the command refuses before doing any work; exits 2."""


def _load(path: str) -> Circuit:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        # ``main`` puts the path in front of the message
        err = CnqError(f"cannot read: {getattr(exc, 'strerror', None) or exc}")
        err.code = "E_IO"
        raise err from None
    return Circuit.parse(text)


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _error(code: str | None, message: str) -> dict:
    return {"severity": "error", "code": code, "message": message}


def _warn_diags(report) -> list[dict]:
    return [{"severity": "warning", "code": None, "message": w} for w in report.warnings]


def _roles(c: Circuit) -> dict:
    return {ln.name: {"role": ln.role} for ln in c.lines}


def _fmt_point(pt: dict[str, int]) -> str:
    """``a=0, b=1``; the empty point binds no line and reads ``every input``."""
    return ", ".join(f"{k}={v}" for k, v in sorted(pt.items())) or "every input"


# -- subcommands: (args, *circuits) -> (verdict, structured fields, text) ----------


def _eval(args, c):
    report = evaluate(c)
    fields = {"lines": report.to_dict()["lines"], "diagnostics": _warn_diags(report)}
    return None, fields, report.to_text()


def _verify(args, c):
    if not c.specs:
        raise _UsageError("circuit has no spec lines to verify")
    report = evaluate(c)
    verdicts = check_spec(c)
    ok = all(v.passed for v in verdicts)
    text = []
    for v in verdicts:
        if v.passed:
            text.append(f"spec {v.line}: PASS   ({display_anf(v.expected)})")
        elif v.code == "E_NO_COLLAPSE":
            text.append(f"spec {v.line}: FAIL   no Boolean form ({v.actual_state})")
            text.append(f"    non-Boolean at {_fmt_point(v.witness)}")
        else:
            text.append(f"spec {v.line}: FAIL   expected {display_anf(v.expected)}, "
                        f"got {display_anf(v.actual_value)}")
            text.append(f"    first difference at {_fmt_point(v.witness)}")
    text.append(f"verdict: {_verdict(ok)}")
    fields = {
        "lines": report.to_dict()["lines"],
        "specs": [v.to_dict() for v in verdicts],
        "diagnostics": [
            _error(v.code, f"spec for {v.line!r} not met") for v in verdicts if not v.passed
        ] + _warn_diags(report),
    }
    return ok, fields, "\n".join(text)


def _simulate(args, c):
    names = c.line_names
    if args.input is not None:
        if len(args.input) != len(names) or any(ch not in "01" for ch in args.input):
            raise _UsageError(f"--input wants {len(names)} bits in line order {'/'.join(names)}")
        points = [dict(zip(names, map(int, args.input)))]
    elif len(names) <= SIMULATE_ENUM_LIMIT:
        points = list(iter_assignments(names))
    else:
        raise _UsageError(
            f"{len(names)} lines; pass --input <bits> above {SIMULATE_ENUM_LIMIT} lines"
        )
    from .oracle import simulate

    runs = [("".join(str(pt[n]) for n in names), simulate(c, pt, guard=args.guard_sim))
            for pt in points]
    text = []
    for bits, sv in runs:
        text.append(f"input |{bits}>:")
        text.extend(f"  {ln}" for ln in sv.dump().splitlines())
    states = [
        {"input": bits,
         "amplitudes": {b: [amp.real, amp.imag] for b, amp in sv.amplitudes().items()}}
        for bits, sv in runs
    ]
    return None, {"lines": _roles(c), "states": states}, "\n".join(text)


def _check(args, c):
    report = evaluate(c)
    from .oracle import cross_check     # after evaluate: a rejected circuit loads no numpy

    res = cross_check(c, report, guard=args.guard_sim)
    fields = {"lines": report.to_dict()["lines"], "cross_check": res.to_dict()}
    if res.passed:
        return True, fields, f"cross-check: PASS ({res.inputs_checked} inputs)"
    fields["diagnostics"] = [_error(None, res.detail or "mismatch")]
    return False, fields, f"cross-check: FAIL at {_fmt_point(res.witness)}: {res.detail}"


def _optimize(args, c):
    res = merge_pass(c)
    return None, {"lines": _roles(c), **res.to_dict()}, res.to_text()


def _equiv(args, left, right):
    try:
        verdict = equivalent(left, right)
    except LineMismatchError as exc:
        fields = {"diagnostics": [_error(exc.code, exc.message)]}
        return False, fields, f"verdict: FAIL ({exc.describe()})"
    lines = {
        name: {"status": "match" if detail == "match" else "mismatch", "detail": detail}
        for name, detail in verdict.details.items()
    }
    gate_counts = {"left": left.gate_count(), "right": right.gate_count()}
    text = [f"line {name}: {detail}" for name, detail in verdict.details.items()]
    text.append(f"verdict: {_verdict(verdict.passed)}")
    return verdict.passed, {"lines": lines, "gate_counts": gate_counts}, "\n".join(text)


def _fuzz(args):
    if args.count < 1:
        raise _UsageError(f"--count must be at least 1, got {args.count}")
    res = self_test(args.seed, args.count, guard=args.guard_sim)
    fields = {"circuits": res.circuits, "diagnostics": [_error(None, f) for f in res.failures]}
    if res.passed:
        text = (f"self-test: {res.circuits} random circuits agree with simulation "
                f"(seed {args.seed})")
    else:
        text = "\n".join(
            [f"self-test: {len(res.failures)} failures out of {res.circuits}", *res.failures]
        )
    return res.passed, fields, text


# -- the command table ----------------------------------------------------------------


class _Command(NamedTuple):
    help: str
    files: tuple[str, ...]          # positionals, each the path of a circuit to load
    options: dict[str, dict]        # flag -> add_argument keywords
    handler: Callable


# The simulation guard, given only to the commands that honour it.
_GUARD_SIM = {"--guard-sim": {"type": int, "default": DEFAULT_SIM_GUARD, "metavar": "N",
                              "help": "refuse dense simulation above N lines"}}

_COMMANDS = {
    "eval": _Command("symbolic per-line outcomes", ("circuit",), {}, _eval),
    "verify": _Command("check spec lines", ("circuit",), {}, _verify),
    "simulate": _Command(
        "dense statevector runs", ("circuit",),
        {"--input": {"metavar": "BITS", "help": "one basis input, line order"}, **_GUARD_SIM},
        _simulate,
    ),
    "check": _Command("cross-check calculus vs simulation", ("circuit",), _GUARD_SIM, _check),
    "optimize": _Command("merge same-control gate groups", ("circuit",), {}, _optimize),
    "equiv": _Command("compare two circuits", ("left", "right"), {}, _equiv),
    "fuzz": _Command(
        "cross-check seeded random circuits", (),
        {"--seed": {"type": int, "default": 0},
         "--count": {"type": int, "default": 200, "help": "circuits to check, at least 1"},
         **_GUARD_SIM},
        _fuzz,
    ),
}

# Every subcommand takes these.
_COMMON_OPTIONS = {
    "--format": {"choices": ("text", "structured"), "default": "text",
                 "help": "output style (default: text)"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnq",
        description="Symbolic evaluation, verification and optimization of "
        "controlled root-of-NOT circuits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        for file in cmd.files:
            sp.add_argument(file)
        for flag, kwargs in {**cmd.options, **_COMMON_OPTIONS}.items():
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    cmd = _COMMANDS[args.command]
    where = ""                      # the file a CnqError is reported against
    try:
        circuits = []
        for path in (getattr(args, f) for f in cmd.files):
            where = f"{path}: "
            circuits.append(_load(path))
        passed, fields, text = cmd.handler(args, *circuits)
    except TargetInteractionError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return EXIT_INTERACTION
    except SimulationLimitError as exc:
        print(f"error: {exc.describe()}", file=sys.stderr)
        return EXIT_GUARD
    except CnqError as exc:
        print(f"error: {where}{exc.describe()}", file=sys.stderr)
        return EXIT_USAGE
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "structured":
        doc = {
            "command": args.command,
            "verdict": None if passed is None else _verdict(passed),
            "lines": {},
            "diagnostics": [],
            "gate_counts": circuits[0].gate_count() if len(circuits) == 1 else {},
        }
        text = json.dumps({**doc, **fields}, indent=2)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (`cnq ... | head`).  With no stdout, later
        # prints and the interpreter's own flush at exit write nothing.
        sys.stdout = None
    return EXIT_FAIL if passed is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
