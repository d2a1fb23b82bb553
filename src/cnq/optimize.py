"""Peephole optimization by merging same-control gate contributions.

Gates absorbed into one line's exponent commute with each other, so all
contributions sharing a resolved control expression add up:
Q^p1 Q^p2 ... = Q^(p1+p2+...) mod 2K.  ``merge_pass`` groups the absorbed
gates of each taint episode (one stretch of a line's life between Boolean
phases) by resolved control, sums their rebased powers and rewrites each
multi-gate group as zero gates (sum = 0), one NOT-family gate (sum = K) or
one root-K gate, emitted at the position of the group's last member with
that member's own control lines.  Groups are never merged across a
collapse that another gate observed: the exponent read there must stay
intact.  Single-member groups are left verbatim.  The returned
``MergeResult`` keeps the input beside its rewrite and renders both, with
the changes, as text or as a structured document.

Boolean bookkeeping (NOT-family gates on lines still in Boolean form) is
never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate
from .expr import Anf
from .symbolic import GateRecord, equivalent, evaluate


@dataclass
class Change:
    kind: str                      # "cancel" | "promote" | "merge"
    target: str
    gate_indices: list[int]
    replacement: Gate | None
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "gate_indices": list(self.gate_indices),
            "replacement": None if self.replacement is None else str(self.replacement),
            "note": self.note,
        }


@dataclass
class MergeResult:
    """The input circuit, its rewrite and the changes between them."""

    original: Circuit
    circuit: Circuit
    changes: list[Change]

    def to_dict(self) -> dict:
        return {
            "gate_counts": {
                "before": self.original.gate_count(),
                "after": self.circuit.gate_count(),
            },
            "changes": [ch.to_dict() for ch in self.changes],
            "optimized": str(self.circuit),
        }

    def to_text(self) -> str:
        """The gate counts, one line per change, a blank line and the rewrite."""
        before = self.original.gate_count()["total_controlled"]
        out = [f"controlled gates: {before} -> {self.circuit.gate_count()['total_controlled']}"]
        for ch in self.changes:
            tail = f": {ch.note}" if ch.kind == "cancel" else f" -> {ch.replacement}"
            out.append(f"{ch.kind:<7} gates {ch.gate_indices} on {ch.target}{tail}")
        if not self.changes:
            out.append("no mergeable gate groups")
        return "\n".join([*out, "", str(self.circuit).removesuffix("\n")])


def merge_pass(circuit: Circuit) -> MergeResult:
    """One sound merging sweep; never increases the gate count.

    A rewritten circuit is proved equivalent to the input before it is
    returned; the proof reuses the remembered evaluation that found the groups.
    """
    # per-episode root: the maximum k absorbed during that stretch
    episode_k: dict[tuple[str, int], int] = {}
    groups: dict[tuple[str, int, Anf], list[GateRecord]] = {}
    for rec in evaluate(circuit).trace:
        if not rec.absorbed:
            continue
        key = (rec.target, rec.episode)
        episode_k[key] = max(episode_k.get(key, 1), circuit.gates[rec.index].k)
        groups.setdefault((*key, rec.resolved_control), []).append(rec)

    # gate index -> what stands there after the pass (None: nothing)
    replaced: dict[int, Gate | None] = {}
    changes: list[Change] = []
    for (target, episode, _ctrl), members in groups.items():
        if len(members) < 2:
            continue
        k_ep = episode_k[(target, episode)]
        indices = [rec.index for rec in members]
        group = [circuit.gates[i] for i in indices]
        total = sum(g.p * (k_ep // g.k) for g in group) % (2 * k_ep)
        controls = group[-1].controls
        if total == 0:
            change = Change("cancel", target, indices, None, "contributions sum to the identity")
        elif total == k_ep:
            g = Gate(1, 1, controls, target)
            change = Change("promote", target, indices, g, "contributions sum to NOT")
        else:
            change = Change("merge", target, indices, Gate(k_ep, total, controls, target))
        replaced.update(dict.fromkeys(indices[:-1]))
        replaced[indices[-1]] = change.replacement
        changes.append(change)

    kept = (replaced.get(i, g) for i, g in enumerate(circuit.gates))
    merged = circuit.with_gates(g for g in kept if g is not None)

    if changes:
        check = equivalent(circuit, merged)
        if not check.passed:
            raise AssertionError(
                f"merge produced a non-equivalent circuit: {check.details}"
            )
    return MergeResult(circuit, merged, changes)

