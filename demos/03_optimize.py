"""Peephole optimization by exponent arithmetic.

Gate contributions to one line's exponent commute, so contributions with
the same resolved control expression simply add: two quarter-turns make a
NOT, a quarter-turn and its inverse cancel outright.  ``merge_pass``
performs one such sweep and proves the rewrite equivalent before
returning it.
"""

from pathlib import Path

from cnq import Circuit, equivalent, merge_pass

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def show(name: str) -> None:
    circuit = Circuit.parse((FIXTURES / f"{name}.cnq").read_text())
    result = merge_pass(circuit)
    print(f"== {name} ==")
    print(result.to_text())
    if result.changes:
        verdict = equivalent(circuit, result.circuit)
        print(f"equivalence re-check: {'PASS' if verdict.passed else 'FAIL'}")
    print()


# two V_b gates straddle an uncomputed CNOT pair; they share the resolved
# control b and sum to a half turn: promoted to one CNOT
show("fig2")

# here the pair is V_b and V*_b: the powers cancel and both gates vanish
show("fig4_pre")

# an already-minimal network is a fixed point
show("fig5")
