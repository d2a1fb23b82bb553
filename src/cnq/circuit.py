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
    v  <c1> [<c2> ...] -> <line>      # k=2, p=1     (square root of NOT)
    v* <c1> [<c2> ...] -> <line>      # k=2, p=-1
    w  <c1> [<c2> ...] -> <line>      # k=4, p=1     (fourth root of NOT)
    w* <c1> [<c2> ...] -> <line>      # k=4, p=-1
    q k=<K> p=<P> [<c1> ...] -> <line>
    spec <target> = <anf-expr>

Powers are canonicalized into 0 < p < 2k; p = 0 mod 2k is rejected as the
identity.  Control expressions in ``spec`` use the Anf grammar
(``^`` for XOR, ``&`` for AND, constants ``0``/``1``, parentheses).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from collections.abc import Iterable, Mapping, Sequence
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


@dataclass(frozen=True)
class Line:
    name: str
    is_target: bool = False

    @property
    def role(self) -> str:
        return "target" if self.is_target else "control"


@dataclass(frozen=True)
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
            object.__setattr__(self, "controls", tuple(self.controls))
        for _, err in _gate_problems(self.k, self.p, self.controls, self.target):
            raise err
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
            for _, err in _line_problems(ln.name, declared):
                raise err
            declared.add(ln.name)
        for i, g in enumerate(self.gates):
            for _, err in _scope_problems(g.controls, g.target, declared):
                err.gate_index = i
                raise err
        targets = set(self.target_names())
        for name, expr in self.specs.items():
            for _, err in _spec_problems(name, expr, declared, targets):
                raise err

    @cached_property
    def _hash(self) -> int:
        return hash((self.lines, self.gates))

    def __hash__(self) -> int:     # once per circuit; specs stay out of it
        return self._hash

    # -- access helpers ------------------------------------------------------

    @property
    def line_names(self) -> tuple[str, ...]:
        return tuple(ln.name for ln in self.lines)

    def line(self, name: str) -> Line:
        for ln in self.lines:
            if ln.name == name:
                return ln
        raise UndeclaredLineError(f"no line named {name!r}")

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
# Each rule is one function that lists the problems of one item as
# (offending name or None, error) pairs, empty in the usual case.  Gate() and
# Circuit() raise their first problem.  The parser checks each statement
# against the lines declared so far and raises its first problem at the column
# of the offending name's token (a bad root's name is "k=" and a bad power's
# "p=", its ``q`` tokens).

_Problem = tuple[str | None, CnqError]
_Tokens = Sequence[tuple[str, int]]


def _line_problems(name: str, declared: set[str]) -> list[_Problem]:
    if not _VAR_RE.match(name):
        return [(name, ParseError(f"invalid line name {name!r}"))]
    if name in declared:
        return [(name, ParseError(f"line {name!r} already declared"))]
    return []


def _scope_problems(controls: tuple[str, ...], target: str, declared: set[str]) -> list[_Problem]:
    """Every undeclared name of a gate, controls first, then the target."""
    if target in declared and declared.issuperset(controls):
        return []
    return [
        (name, UndeclaredLineError(f"line {name!r} used before declaration"))
        for name in (*controls, target)
        if name not in declared
    ]


def _gate_problems(k: int, p: int, controls: tuple[str, ...], target: str) -> list[_Problem]:
    """A bad root, a non-integer or zero power, then a duplicate control, then self-control."""
    distinct = len({*controls, target}) == len(controls) + 1
    if distinct and _is_power_of_two(k) and k <= MAX_ROOT and isinstance(p, int) and p % (2 * k):
        return []
    problems: list[_Problem] = []
    if not _is_power_of_two(k):
        err = BadRootError(f"root index must be a positive power of two, got {k}")
        problems.append(("k=", err))
    elif k > MAX_ROOT:
        problems.append(("k=", BadRootError(f"root index {k} exceeds the limit 2^20 = {MAX_ROOT}")))
    elif not isinstance(p, int):
        problems.append(("p=", ParseError(f"power must be an integer, got {p!r}")))
    elif p % (2 * k) == 0:
        problems.append(("p=", ZeroPowerError(f"power {p} is 0 mod {2 * k}: the identity gate")))
    repeated = next((c for i, c in enumerate(controls) if c in controls[:i]), None)
    if repeated is not None:
        problems.append((repeated, ParseError(f"duplicate control on gate targeting {target!r}")))
    if target in controls:
        problems.append((target, SelfControlError(f"line {target!r} controls its own gate")))
    return problems


def _spec_problems(name: str, expr: Anf, declared: set[str], targets: set[str]) -> list[_Problem]:
    problems: list[_Problem] = []
    if name not in declared:
        problems.append((name, UndeclaredLineError(f"line {name!r} used before declaration")))
    elif name not in targets:
        problems.append((name, ParseError(f"spec refers to non-target line {name!r}")))
    problems += (
        (v, UndeclaredLineError(f"line {v!r} used before declaration"))
        for v in sorted(expr.variables())
        if v not in declared
    )
    return problems


def _raise_first(problems: list[_Problem], toks: _Tokens) -> None:
    """Raise the first problem, if any, at the column of its name in ``toks``."""
    for name, err in problems:
        err.col = next((c for t, c in toks if t == name), None)
        raise err


# -- parser -------------------------------------------------------------------


def _tokenize(body: str) -> list[tuple[str, int]]:
    """Whitespace-split tokens with 1-based columns; '->' splits off neighbours."""
    out: list[tuple[str, int]] = []
    col = 0
    for raw in body.split():
        col = body.index(raw, col)
        piece, at = raw, col
        while "->" in piece:
            j = piece.index("->")
            if j:
                out.append((piece[:j], at + 1))
            out.append(("->", at + j + 1))
            piece, at = piece[j + 2 :], at + j + 2
        if piece:
            out.append((piece, at + 1))
        col += len(raw)
    return out


def _int_param(tok: tuple[str, int], what: str) -> int:
    """The integer after ``k=`` or ``p=`` in a ``q`` statement's token."""
    text, col = tok
    try:
        return int(text[2:])
    except ValueError:
        raise ParseError(f"bad {what} {text[2:]!r}", col=col) from None


def _parse_circuit(text: str) -> Circuit:
    """Parse statement by statement: grammar first, then the statement's rules.

    Rules see only the lines declared so far, so a name must be declared
    before it is used.  A statement's errors carry their column; this loop
    stamps the line number on them.
    """
    lines: list[Line] = []
    declared: set[str] = set()
    targets: set[str] = set()
    gates: list[Gate] = []
    specs: dict[str, Anf] = {}

    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        toks = _tokenize(body)
        head, hcol = toks[0]
        try:
            if head == "line":
                if len(toks) < 2 or len(toks) > 3:
                    raise ParseError("expected: line <id> [target]", col=hcol)
                name = toks[1][0]
                _raise_first(_line_problems(name, declared), toks[1:2])
                is_target = len(toks) == 3
                if is_target and toks[2][0] != "target":
                    role, rcol = toks[2]
                    raise ParseError(f"expected 'target' or end of line, got {role!r}", col=rcol)
                declared.add(name)
                if is_target:
                    targets.add(name)
                lines.append(Line(name, is_target))

            elif head == "spec":
                eq = body.find("=")
                if eq < 0 or len(left := _tokenize(body[:eq])) != 2:
                    raise ParseError("expected: spec <target> = <expr>", col=hcol)
                name, ncol = left[1]
                if name in specs:
                    raise ParseError(f"duplicate spec for line {name!r}", col=ncol)
                # the name comes first in the text, so its problems come first
                _raise_first(_spec_problems(name, Anf.zero(), declared, targets), left[1:])
                expr_parser = _ExprParser(body, eq + 1)
                expr = expr_parser.run_anf()
                _raise_first(_spec_problems(name, expr, declared, targets), expr_parser.tokens)
                specs[name] = expr

            elif head in _NOT_ARITY:
                args = toks[1:]
                fewest, most = _NOT_ARITY[head]
                if not fewest <= len(args) <= (most or len(args)):
                    raise ParseError(f"malformed {head} statement", col=hcol)
                ctrls, target = tuple(c for c, _ in args[:-1]), args[-1][0]
                gates.append(_parse_gate(1, 1, ctrls, target, declared, args))

            elif head in _SUGAR or head == "q":
                arrow = next((i for i, (t, _) in enumerate(toks) if t == "->"), None)
                if arrow is None or arrow != len(toks) - 2:
                    raise ParseError("expected: ... -> <line> with exactly one target", col=hcol)
                params = toks[1:arrow]
                if head == "q":
                    if (
                        len(params) < 2
                        or not params[0][0].startswith("k=")
                        or not params[1][0].startswith("p=")
                    ):
                        raise ParseError(
                            "expected: q k=<int> p=<int> [controls] -> <line>", col=hcol
                        )
                    k, p = _int_param(params[0], "root index"), _int_param(params[1], "power")
                    params = params[2:]
                else:
                    k, p = _SUGAR[head]
                ctrls, target = tuple(c for c, _ in params), toks[-1][0]
                # only a q statement can have a bad root or a zero power; they are
                # reported at its k= and p= tokens
                located = (("k=", toks[1][1]), ("p=", toks[2][1]), *params, toks[-1])
                gates.append(_parse_gate(k, p, ctrls, target, declared, located))

            else:
                raise ParseError(f"unknown statement {head!r}", col=hcol)
        except CnqError as exc:
            exc.line = lineno
            raise

    try:
        return Circuit(lines, gates, specs)
    except CnqError as exc:     # every statement passed: the text declares no lines
        exc.line = exc.col = 1
        raise


def _parse_gate(
    k: int, p: int, ctrls: tuple[str, ...], target: str, declared: set[str], toks: _Tokens
) -> Gate:
    """The statement's gate, or its first problem of scope, then of shape, at its token."""
    _raise_first(_scope_problems(ctrls, target, declared), toks)
    try:
        return Gate(k, p, ctrls, target)
    except CnqError:
        _raise_first(_gate_problems(k, p, ctrls, target), toks)
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
