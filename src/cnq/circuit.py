"""Circuit model and the ``.cnq`` text format.

A circuit is an ordered list of named lines, an ordered list of gates and
optional per-line output specifications.  Every gate applies Q^p to its
target when all controls are 1, where Q is the k-th root of NOT:
Q^k = NOT and Q^(2k) = I, with k a power of two up to ``MAX_ROOT`` = 2^20.
The NOT family is the special case p = k; it is stored with k=1, p=1 when
written with the ``not``/``cnot``/``ccx`` sugar.

Statement forms (one per line, ``#`` starts a comment)::

    line <id> [target]
    not <line>
    cnot <ctrl> <line>
    ccx <c1> <c2> ... <line>
    v  [<c1> ...] -> <line>           # k=2, p=1     (square root of NOT)
    v* [<c1> ...] -> <line>           # k=2, p=-1
    w  [<c1> ...] -> <line>           # k=4, p=1     (fourth root of NOT)
    w* [<c1> ...] -> <line>           # k=4, p=-1
    q k=<K> p=<P> [<c1> ...] -> <line>
    spec <target> = <anf-expr>

Powers are canonicalized into 0 < p < 2k; p = 0 mod 2k is rejected as the
identity.  Control expressions in ``spec`` use the Anf grammar
(``^`` for XOR, ``&`` for AND, constants ``0``/``1``, parentheses).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Mapping
from functools import cached_property
from types import MappingProxyType

from .errors import (
    BadRootError,
    CnqError,
    ParseError,
    SelfControlError,
    UndeclaredLineError,
    ZeroPowerError,
)
from .expr import Anf, _ExprParser, _VAR_RE

_SUGAR = {"v": (2, 1), "v*": (2, 3), "w": (4, 1), "w*": (4, 7)}
_SUGAR_BY_KP = {kp: name for name, kp in _SUGAR.items()}
# argument counts of the NOT statements: (fewest, most), None for no limit
_NOT_ARITY = {"not": (1, 1), "cnot": (2, 2), "ccx": (2, None)}

# Largest root index.  Adjacent exponents at root k differ in amplitude by about
# pi/(2k): 1.5e-6 at 2^20, far above cross_check's 1e-9 tolerance (7.3e-10 at 2^31).
MAX_ROOT = 1 << 20


def _is_power_of_two(k: int) -> bool:
    return isinstance(k, int) and k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True, slots=True)
class Line:
    name: str
    is_target: bool = False

    @property
    def role(self) -> str:
        return "target" if self.is_target else "control"


@dataclass(frozen=True, slots=True)
class Gate:
    """Q^p on ``target`` under the conjunction of ``controls`` (k-th root Q).

    Construction raises the first problem of the gate's shape, then stores
    ``controls`` as a tuple and ``p`` reduced into 0 < p < 2k.
    """

    k: int
    p: int
    controls: tuple[str, ...] = ()
    target: str = ""

    def __post_init__(self) -> None:
        if type(self.controls) is not tuple:
            if isinstance(self.controls, str):
                raise ParseError(f"controls must be a tuple of line names, got {self.controls!r}")
            object.__setattr__(self, "controls", tuple(self.controls))
        _gate_rule(self.k, self.p, self.controls, self.target)
        object.__setattr__(self, "p", self.p % (2 * self.k))

    @property
    def is_not_family(self) -> bool:
        return self.p == self.k

    def __str__(self) -> str:
        """The ``.cnq`` statement for this gate, using sugar where it applies."""
        if self.k == 1 and self.p == 1:
            if not self.controls:
                return f"not {self.target}"
            if len(self.controls) == 1:
                return f"cnot {self.controls[0]} {self.target}"
            return "ccx " + " ".join(self.controls) + f" {self.target}"
        name = _SUGAR_BY_KP.get((self.k, self.p))
        if name is not None and self.controls:
            return f"{name} " + " ".join(self.controls) + f" -> {self.target}"
        ctrl = (" ".join(self.controls) + " ") if self.controls else ""
        return f"q k={self.k} p={self.p} {ctrl}-> {self.target}"


@dataclass(frozen=True)
class Circuit:
    """Named lines, gates over them and output specs of target lines.

    Construction stores tuples and a read-only copy of ``specs``, then raises
    the first problem of the lines, of each gate's scope (with its
    ``gate_index``), then of the specs; ``replace`` checks its result too.
    """

    lines: tuple[Line, ...] = ()
    gates: tuple[Gate, ...] = ()
    specs: Mapping[str, Anf] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lines", tuple(self.lines))
        object.__setattr__(self, "gates", tuple(self.gates))
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        if not self.lines:
            raise ParseError("circuit declares no lines")
        declared: set[str] = set()
        for ln in self.lines:
            _line_rule(ln.name, declared)
            declared.add(ln.name)
        for i, g in enumerate(self.gates):
            try:
                _scope_rule((*g.controls, g.target), declared)
            except CnqError as exc:
                exc.gate_index = i
                raise
        targets = set(self.target_names())
        for name, expr in self.specs.items():
            _spec_rule(name, expr, declared, targets)

    @cached_property
    def _hash(self) -> int:
        return hash((self.lines, self.gates))

    def __hash__(self) -> int:     # once per circuit; specs stay out of it
        return self._hash

    # -- access helpers ------------------------------------------------------

    @property
    def line_names(self) -> tuple[str, ...]:
        return tuple(ln.name for ln in self.lines)

    def target_names(self) -> tuple[str, ...]:
        return tuple(ln.name for ln in self.lines if ln.is_target)

    def with_gates(self, gates: Iterable[Gate]) -> "Circuit":
        return replace(self, gates=gates)

    # -- text format ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Circuit":
        return _parse_circuit(text)

    def __str__(self) -> str:
        out = []
        for ln in self.lines:
            out.append(f"line {ln.name} target" if ln.is_target else f"line {ln.name}")
        for g in self.gates:
            out.append(str(g))
        for ln in self.lines:
            if ln.name in self.specs:
                out.append(f"spec {ln.name} = {self.specs[ln.name]}")
        return "\n".join(out) + "\n"

    # -- census ---------------------------------------------------------------

    def gate_count(self) -> dict[str, int]:
        return _gate_count(self)


# -- well-formedness rules ----------------------------------------------------
#
# Each rule is one function that raises the first problem of one item, naming
# the offending token on the error: a line name, or "k=" / "p=" for a bad root
# or power.  Gate() and Circuit() call the rules; the parser calls them on
# each statement against the lines declared so far and turns the token into
# a column.


def _line_rule(name: str, declared: set[str]) -> None:
    if not isinstance(name, str) or not _VAR_RE.match(name):
        raise ParseError(f"invalid line name {name!r}", token=name)
    if name in declared:
        raise ParseError(f"line {name!r} already declared", token=name)


def _scope_rule(names: Iterable[str], declared: set[str]) -> None:
    """The first undeclared name: a gate's controls then target, a spec's line or variables."""
    for name in names:
        if name not in declared:
            raise UndeclaredLineError(f"line {name!r} used before declaration", token=name)


def _gate_rule(k: int, p: int, controls: tuple[str, ...], target: str) -> None:
    """A bad root, a non-integer or zero power, then a duplicate control, then self-control."""
    if not _is_power_of_two(k):
        raise BadRootError(f"root index must be a positive power of two, got {k}", token="k=")
    if k > MAX_ROOT:
        raise BadRootError(f"root index {k} exceeds the limit 2^20 = {MAX_ROOT}", token="k=")
    if not isinstance(p, int):
        raise ParseError(f"power must be an integer, got {p!r}", token="p=")
    if p % (2 * k) == 0:
        raise ZeroPowerError(f"power {p} is 0 mod {2 * k}: the identity gate", token="p=")
    for i, c in enumerate(controls):
        if c in controls[:i]:
            raise ParseError(f"duplicate control on gate targeting {target!r}", token=c)
    if target in controls:
        raise SelfControlError(f"line {target!r} controls its own gate", token=target)


def _spec_rule(name: str, expr: Anf, declared: set[str], targets: set[str]) -> None:
    _scope_rule((name,), declared)
    if name not in targets:
        raise ParseError(f"spec refers to non-target line {name!r}", token=name)
    if not isinstance(expr, Anf):
        raise ParseError(f"spec for line {name!r} is not an Anf: {expr!r}", token=name)
    _scope_rule(sorted(expr.variables()), declared)


# -- parser -------------------------------------------------------------------


def _columns(body: str, toks: list[str]) -> list[int]:
    """The 1-based column of each of a statement's tokens, in order: only an error needs them."""
    cols, at = [], 0
    for tok in toks:
        at = body.index(tok, at)
        cols.append(at + 1)
        at += len(tok)
    return cols


_INT_RE = re.compile(r"[+-]?[0-9]+")


def _int_param(text: str, what: str) -> int:
    """The integer after ``k=`` or ``p=`` in a ``q`` statement's token: a sign, ASCII digits."""
    if _INT_RE.fullmatch(text, 2):
        try:
            return int(text[2:])
        except ValueError:      # more digits than int() converts
            pass
    raise ParseError(f"bad {what} {text[2:]!r}", token=text)


def _parse_circuit(text: str) -> Circuit:
    """Parse statement by statement: grammar first, then the statement's rules.

    A statement is split into plain strings on whitespace, with ``->`` split
    off its neighbours.  Rules see only the lines declared so far, so a name
    must be declared before it is used.  Columns are computed only for an
    error: this loop stamps the line number on a statement's error and,
    unless the error has a column, the column of the first of the statement's
    arguments that is the error's token (a ``q``'s root and power are looked
    at last), or else of the statement's head.
    """
    lines: list[Line] = []
    declared: set[str] = set()
    targets: set[str] = set()
    gates: list[Gate] = []
    specs: dict[str, Anf] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        toks = body.replace("->", " -> ").split()
        if not toks:
            continue
        head, args = toks[0], toks[1:]
        lead = 0                    # leading arguments that are not lines
        try:
            if head == "line":
                if not 1 <= len(args) <= 2:
                    raise ParseError("expected: line <id> [target]")
                name = args[0]
                _line_rule(name, declared)
                is_target = len(args) == 2
                if is_target and args[1] != "target":
                    raise ParseError(
                        f"expected 'target' or end of line, got {args[1]!r}",
                        col=_columns(body, toks)[2],
                    )
                declared.add(name)
                if is_target:
                    targets.add(name)
                lines.append(Line(name, is_target))
                continue

            if head == "spec":
                eq = body.find("=")
                if eq < 0 or len(args := body[:eq].replace("->", " -> ").split()[1:]) != 1:
                    raise ParseError("expected: spec <target> = <expr>")
                name = args[0]
                if name in specs:
                    raise ParseError(f"duplicate spec for line {name!r}", token=name)
                # the name comes first in the text, so its problems come first
                _spec_rule(name, Anf.zero(), declared, targets)
                expr_parser = _ExprParser(body, eq + 1)
                expr = expr_parser.run_anf()
                try:
                    _spec_rule(name, expr, declared, targets)
                except CnqError as exc:     # an undeclared variable: on the expression's tokens
                    exc.col = next(c for t, c in expr_parser.tokens if t == exc.token)
                    raise
                specs[name] = expr
                continue

            if head in _NOT_ARITY:
                fewest, most = _NOT_ARITY[head]
                if not fewest <= len(args) <= (most or len(args)):
                    raise ParseError(f"malformed {head} statement")
                k, p, ctrls = 1, 1, tuple(args[:-1])
            elif head in _SUGAR or head == "q":
                if "->" not in args or args.index("->") != len(args) - 2:
                    raise ParseError("expected: ... -> <line> with exactly one target")
                ctrls = tuple(args[:-2])
                if head == "q":
                    if (
                        len(ctrls) < 2
                        or not ctrls[0].startswith("k=")
                        or not ctrls[1].startswith("p=")
                    ):
                        raise ParseError("expected: q k=<int> p=<int> [controls] -> <line>")
                    k, p = _int_param(ctrls[0], "root index"), _int_param(ctrls[1], "power")
                    # the rules name a bad root "k=" and a bad power "p=": these tokens
                    # stand for them, looked for after the lines, which may be written so
                    args[:2] = "k=", "p="
                    lead = 2
                    ctrls = ctrls[2:]
                else:
                    k, p = _SUGAR[head]
            else:
                raise ParseError(f"unknown statement {head!r}")
            _scope_rule((*ctrls, args[-1]), declared)
            gates.append(Gate(k, p, ctrls, args[-1]))
        except CnqError as exc:
            exc.line = lineno
            if exc.col is None:
                cols = _columns(body, toks)
                order = [*range(lead, len(args)), *range(lead)]
                exc.col = cols[1 + next((i for i in order if args[i] == exc.token), -1)]
            raise

    try:
        return Circuit(lines, gates, specs)
    except CnqError as exc:     # every statement passed: the text declares no lines
        exc.line = exc.col = 1
        raise


# -- gate census ----------------------------------------------------------------


def _gate_count(c: Circuit) -> dict[str, int]:
    """Per-category gate counts plus controlled-gate totals.

    ``total_controlled`` counts every gate with at least one control once,
    whatever its root; uncontrolled NOTs sit in their own ``not`` bucket.
    ``total_on_targets`` restricts the count to gates acting on target-role
    lines, and ``control_forming_cnots`` counts NOT-family gates that only
    rewrite control-role lines (forming/unforming control expressions), so
    both readings of the controlled-gate total are available.
    """
    counts: dict[str, int] = {}
    targets = {ln.name for ln in c.lines if ln.is_target}
    total_controlled = on_targets = forming = 0
    for g in c.gates:
        if g.is_not_family:
            key = "not" if not g.controls else ("cnot" if len(g.controls) == 1 else "mcnot")
        elif not g.controls:
            key = f"q(k={g.k},p={g.p})"
        else:
            sugar = _SUGAR_BY_KP.get((g.k, g.p))
            key = f"c{sugar}" if sugar else f"cq(k={g.k},p={g.p})"
        counts[key] = counts.get(key, 0) + 1
        if g.controls:
            total_controlled += 1
            if g.target in targets:
                on_targets += 1
            if g.is_not_family and g.target not in targets:
                forming += 1
    counts["total_controlled"] = total_controlled
    counts["total_on_targets"] = on_targets
    counts["control_forming_cnots"] = forming
    return counts
