"""Seeded circuit generators whose answers are known by construction.

Every generated circuit splits its lines into two roles.  Control-role
lines ``c0, c1, ...`` (``x1, x2, ...`` in a ladder) receive only CNOTs
controlled by other control-role lines, so they stay Boolean and each holds
an XOR parity of the inputs.  Target-role lines ``t0, t1, ...`` receive
root-of-NOT gates controlled by control-role lines and never drive a
control.  No gate can therefore read a non-Boolean line: the circuits are
valid without rejection sampling.

A *collapsing* target only ever receives root gates in complementary
pairs, Q^p and Q^(k-p) under the same parities, which together act as one
NOT.  Its final value is its input XOR the products of those parities, so
its ``spec`` is written down from the construction and never computed by
the package under test.  *Residual* targets receive unpaired gates and are
checked by bit-level replay only (see ``reference.py``).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

Gate = tuple[int, int, tuple[str, ...], str]      # (k, p, controls, target)
Term = tuple[frozenset, ...]                       # AND of XOR parities

_SUGAR = {(2, 1): "v", (2, 3): "v*", (4, 1): "w", (4, 7): "w*"}


@dataclass
class Case:
    """One generated circuit with its construction-time answers."""

    controls: list[str]
    targets: list[str]
    gates: list[Gate]
    # collapsing target -> XOR of AND-of-parity terms added to its input
    specs: dict[str, list[Term]] = field(default_factory=dict)

    @property
    def lines(self) -> list[str]:
        return self.controls + self.targets

    def text(self) -> str:
        out = [f"line {c}" for c in self.controls]
        out += [f"line {t} target" for t in self.targets]
        out += [render_gate(g) for g in self.gates]
        for t, terms in self.specs.items():
            out.append(f"spec {t} = " + " ^ ".join([t] + [_term_text(x) for x in terms]))
        return "\n".join(out) + "\n"

    def spec_value(self, target: str, point: dict[str, int]) -> int:
        acc = point[target]
        for term in self.specs[target]:
            prod = 1
            for parity in term:
                prod &= sum(point[v] for v in parity) & 1
            acc ^= prod
        return acc


def render_gate(g: Gate) -> str:
    k, p, ctrls, target = g
    if k == 1 and p == 1:
        if not ctrls:
            return f"not {target}"
        return ("cnot " if len(ctrls) == 1 else "ccx ") + " ".join(ctrls) + f" {target}"
    name = _SUGAR.get((k, p))
    if name is not None and ctrls:
        return f"{name} " + " ".join(ctrls) + f" -> {target}"
    return f"q k={k} p={p} " + "".join(c + " " for c in ctrls) + f"-> {target}"


def _term_text(term: Term) -> str:
    parts = []
    for parity in term:
        names = sorted(parity, key=_line_order)
        parts.append(names[0] if len(names) == 1 else "(" + "^".join(names) + ")")
    return "&".join(parts)


def _line_order(name: str) -> tuple[str, int]:
    return name.rstrip("0123456789"), int(name.lstrip("abcdefghijklmnopqrstuvwxyz"))


def _root_power(rng: random.Random, roots: tuple[int, ...]) -> tuple[int, int]:
    k = rng.choice(roots)
    p = rng.randrange(1, 2 * k - 1)
    return k, p + (p >= k)          # any power except 0 and k


def vchain(controls: int, gates: int | None = None) -> Case:
    """The plain XOR-ladder V-chain: ``v x_i -> t`` then ``cnot x_i x_(i+1)``.

    With ``gates`` the chain wraps around the controls until it holds that
    many gates, which gives a fixed circuit of any width for oracle timing.
    """
    xs = [f"x{i}" for i in range(1, controls + 1)]
    total = 2 * controls - 1 if gates is None else gates
    out: list[Gate] = []
    i = 0
    while len(out) < total:
        x = xs[i % controls]
        out.append((2, 1, (x,), "t"))
        if len(out) < total:
            out.append((1, 1, (x,), xs[(i + 1) % controls]))
        i += 1
    return Case(xs, ["t"], out)


def ladder(rng: random.Random, n: int) -> Case:
    """XOR-ladder V-chain over ``n`` controls with two targets.

    Rung i reads control ``x_i`` after ``cnot x_(i-1) x_i``, so it holds the
    prefix parity P_i = x_1 ^ ... ^ x_i.  Target ``t`` gets a doubled rung
    (a complementary pair, i.e. one controlled NOT), so it collapses to
    t ^ P_1 ^ ... ^ P_n; target ``u`` gets one unpaired seeded root per
    rung and stays residual.
    """
    xs = [f"x{i}" for i in range(1, n + 1)]
    gates: list[Gate] = []
    for i, x in enumerate(xs):
        k, p = _root_power(rng, (2, 2, 4))
        ku, pu = _root_power(rng, (2, 4))
        gates.append((k, p, (x,), "t"))
        gates.append((ku, pu, (x,), "u"))
        gates.append((k, (k - p) % (2 * k), (x,), "t"))
        if i + 1 < n:
            gates.append((1, 1, (x,), xs[i + 1]))
    # x_j lies in P_j .. P_n: it survives the XOR when n - j + 1 is odd
    spec = [(frozenset([x]),) for j, x in enumerate(xs, 1) if (n - j + 1) % 2]
    return Case(xs, ["t", "u"], gates, {"t": spec})


@dataclass(frozen=True)
class CascadeShape:
    """Size knobs of :func:`cascade`; every draw stays inside them."""

    controls: int
    targets: int
    gates: int
    collapsing: int                  # targets with a spec (the first ones)
    roots: tuple[int, ...] = (2, 4, 8)
    chains: tuple[int, int] = (2, 5)     # CNOT chain lengths, cycled from a seeded start
    max_and_terms: int = 6               # bound on |P1| * |P2| for two-control gates


def cascade(rng: random.Random, shape: CascadeShape) -> Case:
    """Segments of CNOT chain, root gates, inverse chain; ``shape.gates`` gates.

    Each segment rewires a random run of control lines with a CNOT chain,
    so the i-th line of the run holds the parity of the first i + 1.  It
    then hangs one root gate off each rewired line, in random order, onto a
    random target (sometimes with a second control), and undoes the chain,
    so every segment starts from the plain inputs again.  Chain lengths
    cycle through ``shape.chains`` so that the work per circuit, which
    grows as 2^width, varies little from seed to seed.  The first segment
    that would overshoot the gate count is dropped and CNOTs between
    control lines fill the rest, so the count is exact.
    """
    cs = [f"c{i}" for i in range(shape.controls)]
    ts = [f"t{i}" for i in range(shape.targets)]
    specs: dict[str, list[Term]] = {t: [] for t in ts[: shape.collapsing]}
    gates: list[Gate] = []
    lo, hi = shape.chains
    for segment in itertools.count(rng.randrange(hi - lo + 1)):
        length = min(lo + segment % (hi - lo + 1), len(cs) - 1)
        seg, terms = _segment(rng, rng.sample(cs, length + 1), ts, specs, shape)
        if gates and len(gates) + len(seg) > shape.gates:
            break
        gates += seg
        for t, term in terms:
            specs[t].append(term)
    for i in range(shape.gates - len(gates)):
        gates.append((1, 1, (cs[i % len(cs)],), cs[(i + 1) % len(cs)]))
    return Case(cs, ts, gates, specs)


def _segment(rng, run, ts, specs, shape) -> tuple[list[Gate], list[tuple[str, Term]]]:
    masks = {c: frozenset([c]) for c in run}
    for a, b in zip(run, run[1:]):
        masks[b] = masks[a] ^ masks[b]
    chain: list[Gate] = [(1, 1, (a,), b) for a, b in zip(run, run[1:])]
    gates = list(chain)
    terms: list[tuple[str, Term]] = []
    rewired = run[1:]
    pending: list[Gate] = []
    for first in rng.sample(rewired, len(rewired)):
        t = rng.choice(ts)
        ctrls = _pick_controls(rng, first, rewired, masks, shape.max_and_terms)
        if rng.random() < 0.15:
            gates.append((1, 1, ctrls, t))                 # plain controlled NOT
        else:
            k, p = _root_power(rng, shape.roots)
            gates.append((k, p, ctrls, t))
            if t in specs:
                pending.append((k, (k - p) % (2 * k), ctrls, t))
        if t in specs:
            terms.append((t, tuple(masks[c] for c in ctrls)))
        if pending and rng.random() < 0.5:
            gates.append(pending.pop(rng.randrange(len(pending))))
    rng.shuffle(pending)
    return gates + pending + chain[::-1], terms


def _pick_controls(rng, first, pool, masks, max_and_terms) -> tuple[str, ...]:
    if rng.random() < 0.3:
        second = rng.choice(pool)
        if second != first and len(masks[first]) * len(masks[second]) <= max_and_terms:
            return (first, second)
    return (first,)
