"""Peephole optimization by merging same-control gate contributions.

Gates absorbed into one line's exponent commute with each other, so all
contributions sharing a resolved control expression add up:
Q^p1 Q^p2 ... = Q^(p1+p2+...) mod 2K.  The evaluator already sums them:
each taint episode (one stretch of a line's life between Boolean phases)
of ``EvalReport.episodes`` holds one term per resolved control, with its
total power at the episode's root K and its gates.  ``merge_pass``
rewrites each term of two or more gates as zero gates (total 0), one
NOT-family gate (total K) or one root-K gate, emitted at the position of
the term's last gate with that gate's own control lines.  Terms never span
a collapse that another gate observed, since that ends the episode: the
exponent read there stays intact.  Single-gate terms are left verbatim.
The returned ``MergeResult`` keeps the input beside its rewrite and
renders both, with the changes, as text or as a structured document.

Boolean bookkeeping (NOT-family gates on lines still in Boolean form) is
never touched.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import Circuit, Gate
from .symbolic import equivalent, evaluate


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
    returned; the proof reuses the remembered evaluation whose episodes
    gave the terms.
    """
    terms = sorted(
        ((ep, term) for ep in evaluate(circuit).episodes for term in ep.terms
         if len(term.gates) > 1),
        key=lambda pair: pair[1].gates[0],
    )

    # gate index -> what stands there after the pass (None: nothing)
    replaced: dict[int, Gate | None] = {}
    changes: list[Change] = []
    for ep, term in terms:
        target, k, indices = ep.target, ep.k_root, list(term.gates)
        controls = circuit.gates[indices[-1]].controls
        if term.power == 0:
            change = Change("cancel", target, indices, None, "contributions sum to the identity")
        elif term.power == k:
            g = Gate(1, 1, controls, target)
            change = Change("promote", target, indices, g, "contributions sum to NOT")
        else:
            change = Change("merge", target, indices, Gate(k, term.power, controls, target))
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

