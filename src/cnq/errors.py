"""Exception hierarchy with stable diagnostic codes.

Every error carries a machine-readable ``code`` (``E_SYNTAX``, ``E_BAD_K``,
...) plus an optional source location: line/column for text inputs, gate
index for faults inside an already-parsed circuit.
"""

from __future__ import annotations


class CnqError(Exception):
    """Base class for all errors raised by this package.

    A circuit rule's error names its ``token``: the offending line name, or
    ``"k="``/``"p="`` for a gate's root and power.  The parser turns it into a column.
    """

    code = "E_ERROR"

    def __init__(
        self,
        message: str,
        *,
        line: int | None = None,
        col: int | None = None,
        gate_index: int | None = None,
        token: str | None = None,
    ):
        self.message = message
        self.line = line
        self.col = col
        self.gate_index = gate_index
        self.token = token
        super().__init__(message)

    def __str__(self) -> str:
        return self.describe()

    def describe(self) -> str:
        loc = ""
        if self.line is not None:
            loc = f"line {self.line}"
            if self.col is not None:
                loc += f", col {self.col}"
            loc += ": "
        elif self.gate_index is not None:
            loc = f"gate {self.gate_index}: "
        return f"{loc}{self.code}: {self.message}"


class ParseError(CnqError):
    """Malformed circuit or expression text."""

    code = "E_SYNTAX"


class UndeclaredLineError(CnqError):
    """A gate or spec refers to a line that was never declared."""

    code = "E_UNDECLARED_LINE"


class BadRootError(CnqError):
    """Root index k must be a positive power of two."""

    code = "E_BAD_K"


class SelfControlError(CnqError):
    """A gate may not use its own target as a control."""

    code = "E_SELF_CONTROL"


class ZeroPowerError(CnqError):
    """Gate power p reduced to 0 mod 2k, i.e. the identity."""

    code = "E_ZERO_POWER"


class UnboundVariableError(CnqError):
    """An evaluation point omits a variable the expression uses."""

    code = "E_UNBOUND_VAR"


# Dense simulation is refused beyond this many lines.  It lives here, not in
# ``oracle``, so that the CLI can offer it as a default without loading numpy.
DEFAULT_SIM_GUARD = 12


class SimulationLimitError(CnqError):
    """Too many lines for dense statevector simulation."""

    code = "E_TOO_MANY_LINES"


class UnknownLineError(CnqError):
    """A state vector has no qubit for the requested line."""

    code = "E_UNKNOWN_LINE"


class TargetInteractionError(CnqError):
    """A line holding a fractional power of NOT was used as a control.

    The calculus only covers circuits whose control values stay Boolean;
    a non-collapsible target feeding a control is outside its scope.
    """

    code = "E_TARGET_INTERACTION"


class LineMismatchError(CnqError):
    """Two circuits being compared do not share line names and roles."""

    code = "E_LINE_MISMATCH"
