"""Known answers that do not come from the package under test.

``replay`` runs a gate list bit by bit on one basis input.  Each line holds
Q_L^a |0>, with Q_L the L-th root of NOT and L the largest root in the
circuit, so an input bit b starts as a = L*b and a satisfied gate Q_k^p
adds p*L/k to its target's angle (mod 2L).  A line read as a control must
be a basis state, a in {0, L}.  ``outcome_angle`` and ``angle_of_state``
turn the package's answers (an Anf value, or a root, exponent and base)
into the same angle so the two can be compared exactly.

The module also holds small parsers for the ``.cnq`` format and for the
printed forms of Anf values and exponent polynomials, so that CLI output
can be checked without importing the package.
"""

from __future__ import annotations

import random
import re

Gate = tuple[int, int, tuple[str, ...], str]

_SUGAR = {"v": (2, 1), "v*": (2, 3), "w": (4, 1), "w*": (4, 7)}


class NonBooleanControl(Exception):
    """A gate read a control line that was not in a basis state."""


def root_of(gates: list[Gate]) -> int:
    return max([1] + [k for k, _, _, _ in gates])


def replay(lines: list[str], gates: list[Gate], point: dict[str, int], L: int) -> dict[str, int]:
    """Angle of every line after the gates, in units of Q_L, mod 2L."""
    m = 2 * L
    a = {name: L * point[name] for name in lines}
    for i, (k, p, ctrls, target) in enumerate(gates):
        fire = True
        for c in ctrls:
            v = a[c]
            if v != 0 and v != L:
                raise NonBooleanControl(f"gate {i} reads line {c!r} at angle {v}/{m}")
            fire = fire and v == L
        if fire:
            a[target] = (a[target] + p * (L // k)) % m
    return a


def sample_points(lines: list[str], count: int, rng: random.Random) -> list[dict[str, int]]:
    """Every input when there are at most ``count`` of them, else a seeded sample."""
    n = len(lines)
    if 1 << n <= count:
        idxs = range(1 << n)
    else:
        idxs = [rng.getrandbits(n) for _ in range(count)]
    return [{name: (i >> (n - 1 - j)) & 1 for j, name in enumerate(lines)} for i in idxs]


def angle_of_state(k_root: int, exponent_value: int, base_bit: int, L: int) -> int:
    if L % k_root:
        raise ValueError(f"root {k_root} does not divide the replay root {L}")
    m = 2 * k_root
    return (((exponent_value % m) + k_root * base_bit) * (L // k_root)) % (2 * L)


def outcome_angle(outcome, point: dict[str, int], L: int) -> int:
    """The angle a package ``LineOutcome`` predicts at ``point``."""
    if outcome.value is not None:
        return L * outcome.value.evaluate(point)
    st = outcome.state
    return angle_of_state(st.k_root, st.exponent.evaluate(point), st.base.evaluate(point), L)


def compare_report(report, lines, gates, points, L) -> str | None:
    """First disagreement between a package ``EvalReport`` and the replay."""
    for pt in points:
        want = replay(lines, gates, pt, L)
        for name in lines:
            got = outcome_angle(report.outcomes[name], pt, L)
            if got != want[name]:
                return f"line {name} at {_fmt(pt)}: package angle {got}, replay {want[name]} (of {2 * L})"
    return None


def compare_gate_lists(lines, g1, g2, points) -> str | None:
    """First input where two gate lists leave some line in different states."""
    L = max(root_of(g1), root_of(g2))
    for pt in points:
        a1, a2 = replay(lines, g1, pt, L), replay(lines, g2, pt, L)
        if a1 != a2:
            bad = next(n for n in lines if a1[n] != a2[n])
            return f"line {bad} at {_fmt(pt)}: {a1[bad]} vs {a2[bad]} (of {2 * L})"
    return None


def gates_of(circuit) -> list[Gate]:
    """The gate list of a package ``Circuit``, read field by field."""
    return [(g.k, g.p, tuple(g.controls), g.target) for g in circuit.gates]


def _fmt(pt: dict[str, int]) -> str:
    return "".join(str(b) for b in pt.values())


# -- text forms ----------------------------------------------------------------


class Program:
    """A ``.cnq`` file read without the package: lines, roles, gates, specs."""

    def __init__(self, text: str):
        self.lines: list[str] = []
        self.targets: set[str] = set()
        self.gates: list[Gate] = []
        self.specs: dict[str, str] = {}
        for raw in text.splitlines():
            body = raw.split("#", 1)[0].strip()
            if not body:
                continue
            if body.startswith("spec "):
                left, expr = body[5:].split("=", 1)
                self.specs[left.strip()] = expr.strip()
                continue
            toks = body.replace("->", " -> ").split()
            head, args = toks[0], toks[1:]
            if head == "line":
                self.lines.append(args[0])
                if args[1:] == ["target"]:
                    self.targets.add(args[0])
            elif head in ("not", "cnot", "ccx"):
                self.gates.append((1, 1, tuple(args[:-1]), args[-1]))
            elif head == "q":
                k, p = int(args[0][2:]), int(args[1][2:])
                self.gates.append((k, p % (2 * k), tuple(args[2:-2]), args[-1]))
            else:
                k, p = _SUGAR[head]
                self.gates.append((k, p, tuple(args[:-2]), args[-1]))

    @property
    def roles(self) -> dict[str, bool]:
        return {name: name in self.targets for name in self.lines}

    def all_points(self) -> list[dict[str, int]]:
        return sample_points(self.lines, 1 << len(self.lines), random.Random(0))


_ANF_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[01]|[()^&])")


def eval_anf(text: str, point: dict[str, int]) -> int:
    """Value of an Anf written with ``^``, ``&``, parentheses, 0 and 1."""
    toks = _ANF_TOKEN.findall(text)
    pos = 0

    def xor_expr() -> int:
        nonlocal pos
        v = and_expr()
        while pos < len(toks) and toks[pos] == "^":
            pos += 1
            v ^= and_expr()
        return v

    def and_expr() -> int:
        nonlocal pos
        v = atom()
        while pos < len(toks) and toks[pos] == "&":
            pos += 1
            v &= atom()
        return v

    def atom() -> int:
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            v = xor_expr()
            pos += 1                        # ")"
            return v
        return int(tok) if tok in ("0", "1") else point[tok]

    return xor_expr()


def eval_poly(text: str, point: dict[str, int]) -> int:
    """Value of a printed exponent such as ``2*a*b - c + 3``."""
    total, sign = 0, 1
    for tok in re.findall(r"[+-]|[^\s+-]+", text):
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            continue
        prod = 1
        for f in tok.split("*"):
            prod *= int(f) if f.isdigit() else point[f]
        total += sign * prod
        sign = 1
    return total
