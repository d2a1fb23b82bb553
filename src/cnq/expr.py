"""Exact algebra for control expressions and gate-power polynomials.

Two expression domains share one monomial representation (a monomial is a
frozenset of variable names; the empty monomial is the constant 1):

* :class:`Anf`    -- XOR of AND-monomials with GF(2) coefficients, the
  canonical form of a Boolean function.  Stored as a set of monomials;
  XOR is symmetric difference, so equal functions are equal sets.
* :class:`MlPoly` -- multilinear polynomial with arbitrary-precision
  integer coefficients, the canonical form of an integer-valued function
  on {0,1}^n.  Stored as a monomial -> coefficient map without zeros.

Conversions are exact.  ``Anf.to_arith`` rewrites XOR into ring arithmetic
via  P xor Q = P + Q - 2PQ  with multilinear reduction (v*v = v), so e.g.
``a ^ b`` becomes ``a + b - 2*a*b`` and ``1 ^ a`` becomes ``1 - a``.
Given a modulus it reduces at every step of that fold (reduction is a ring
homomorphism), so an XOR of m variables mod 2K never grows past the terms
of degree <= log2(2K) instead of expanding all 2^m - 1 of them first.
Reduced folds are memoized in a small LRU keyed by (monomials, modulus),
so a control that recurs across gates and evaluations is folded once; the
result is shared between callers, which is why an :class:`MlPoly` is
treated as an immutable value.

Only Boolean expressions are read from text (``Anf.parse``, the spec
grammar); exponent polynomials are built from them by ``to_arith`` and
combined with ring operations, never parsed.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Iterable, Mapping

from .errors import ParseError, UnboundVariableError

Assignment = Mapping[str, int]

_VAR_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_var_name(name: str) -> str:
    if not isinstance(name, str) or not _VAR_RE.match(name):
        raise ParseError(f"invalid variable name {name!r}")
    return name


def term_key(monomial: frozenset) -> tuple:
    """Canonical term order: degree first, then variable names."""
    return (len(monomial), tuple(sorted(monomial)))


def _check_modulus(m: int) -> None:
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")


def _monomial(names: Iterable[str]) -> frozenset[str]:
    if isinstance(names, str):      # frozenset would split it into characters
        raise ParseError(f"a monomial must be a collection of variable names, got {names!r}")
    return frozenset(names)


def point_bit(point: Assignment, v: str) -> int:
    """The value ``point`` gives ``v``; it must be there and be 0 or 1."""
    try:
        bit = point[v]
    except KeyError:
        raise UnboundVariableError(f"no value for variable {v!r}") from None
    if bit not in (0, 1):
        raise UnboundVariableError(f"variable {v!r} bound to non-bit {bit!r}")
    return bit


def _monomial_value(monomial: frozenset, point: Assignment) -> int:
    for v in monomial:
        if point_bit(point, v) == 0:
            return 0
    return 1


def iter_assignments(variables: Iterable[str]) -> Iterable[dict[str, int]]:
    """All points of {0,1}^n in counting order, first variable most significant."""
    vs = list(variables)
    n = len(vs)
    for i in range(1 << n):
        yield {vs[j]: (i >> (n - 1 - j)) & 1 for j in range(n)}


class Anf:
    """A Boolean function as an XOR-of-ANDs normal form."""

    __slots__ = ("monomials",)

    def __init__(self, monomials: Iterable[Iterable[str]] = ()):
        acc: set[frozenset[str]] = set()
        for m in monomials:
            mono = _monomial(m)
            if mono in acc:        # XOR semantics: repeated monomials cancel
                acc.discard(mono)
            else:
                acc.add(mono)
        self.monomials: frozenset[frozenset[str]] = frozenset(acc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Anf":
        return cls()

    @classmethod
    def one(cls) -> "Anf":
        return cls([()])

    @classmethod
    def var(cls, name: str) -> "Anf":
        return cls([(check_var_name(name),)])

    @classmethod
    def parse(cls, text: str) -> "Anf":
        """Parse ``a ^ b&(c^1)`` syntax; ``&`` binds tighter than ``^``."""
        return _ExprParser(text).run_anf()

    # -- algebra -----------------------------------------------------------

    def __xor__(self, other: "Anf") -> "Anf":
        if not isinstance(other, Anf):
            return NotImplemented
        return Anf._from_monomials(self.monomials ^ other.monomials)

    def __and__(self, other: "Anf") -> "Anf":
        if not isinstance(other, Anf):
            return NotImplemented
        acc: set[frozenset[str]] = set()
        for m1 in self.monomials:
            for m2 in other.monomials:
                m = m1 | m2
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        return Anf._from_monomials(frozenset(acc))

    @classmethod
    def _from_monomials(cls, monomials: frozenset) -> "Anf":
        out = cls.__new__(cls)
        out.monomials = monomials
        return out

    @property
    def is_zero(self) -> bool:
        return not self.monomials

    @property
    def is_one(self) -> bool:
        return self.monomials == frozenset([frozenset()])

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for m in self.monomials:
            out |= m
        return frozenset(out)

    def evaluate(self, point: Assignment) -> int:
        acc = 0
        for m in self.monomials:
            acc ^= _monomial_value(m, point)
        return acc

    def to_arith(self, modulus: int | None = None) -> "MlPoly":
        """The multilinear integer polynomial with the same 0/1 values.

        Folds monomials with  acc xor t = acc + t - 2*acc*t;  the result is
        independent of fold order because each step preserves values.  With
        a ``modulus`` every step is reduced into [0, modulus), giving exactly
        ``to_arith().reduce_mod(modulus)``.  A term built from d of the
        monomials has a coefficient divisible by 2^(d-1), so mod 2K only
        products of at most log2(2K) monomials survive: an XOR of single
        variables keeps degree <= log2(2K).

        Reduced folds are memoized per (monomials, modulus) in a small LRU
        and shared between calls, so the result must not be mutated.  The
        unreduced fold, which can hold 2^m terms, is never kept.
        """
        if modulus is None:
            return _fold(self.monomials, None)
        _check_modulus(modulus)
        return _fold_mod(self.monomials, modulus)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Anf) and self.monomials == other.monomials

    def __hash__(self) -> int:
        return hash(("Anf", self.monomials))

    def __str__(self) -> str:
        if not self.monomials:
            return "0"
        parts = []
        for m in sorted(self.monomials, key=term_key):
            parts.append("&".join(sorted(m)) if m else "1")
        return " ^ ".join(parts)

    def __repr__(self) -> str:
        return f"Anf({str(self)!r})"


def display_anf(x: Anf) -> str:
    """Render with a factored prefix when every monomial shares variables.

    ``a&b ^ b&c`` displays as ``b&(a ^ c)``; anything without a common
    variable stays in expanded form.  Display sugar only: not parsed back.
    """
    monos = list(x.monomials)
    if len(monos) >= 2:
        common = frozenset.intersection(*monos)
        if common:
            rest = Anf._from_monomials(frozenset(m - common for m in monos))
            return "&".join(sorted(common)) + "&(" + str(rest) + ")"
    return str(x)


def _fold(monomials: frozenset, modulus: int | None) -> "MlPoly":
    """``Anf.to_arith`` on a monomial set; the caller checks the modulus."""
    acc: dict[frozenset[str], int] = {}
    for t in monomials:
        step = {t: 1}                       # t - 2*acc*t, from the old acc
        for m, c in acc.items():
            d = -2 * c if modulus is None else -2 * c % modulus
            if d:
                mt = m | t
                step[mt] = step.get(mt, 0) + d
        for m, d in step.items():
            c = acc.get(m, 0) + d
            if modulus is not None:
                c %= modulus
            if c:
                acc[m] = c
            else:
                acc.pop(m, None)
    return MlPoly._wrap(acc)


# Bound of the reduced-fold memo.  A job of the benchmark's XOR-heavy
# workload (four evaluations of two circuits) folds about 21 distinct
# (control, modulus) pairs, so one job's worth fits.  Larger bounds were no
# faster there and only kept more dead folds alive: over that workload's
# runs, 32 entries added 0.4-0.9 MB of peak RSS, 128 entries 1.5-2.1 MB
# and 4096 entries about 48 MB.
_FOLD_MEMO_SIZE = 32
_fold_mod = functools.lru_cache(maxsize=_FOLD_MEMO_SIZE)(_fold)


class MlPoly:
    """A multilinear polynomial with integer coefficients.

    Treated as an immutable value: every operation returns a new
    polynomial, and ``Anf.to_arith`` hands the same memoized instance to
    every caller, so nothing may write to ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[frozenset, int] | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[frozenset[str], int] = {}
        for m, c in items:
            mono = _monomial(m)
            c2 = acc.get(mono, 0) + c
            if c2:
                acc[mono] = c2
            else:
                acc.pop(mono, None)
        self.terms: dict[frozenset[str], int] = acc

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "MlPoly":
        return cls()

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "MlPoly") -> "MlPoly":
        if not isinstance(other, MlPoly):
            return NotImplemented
        acc = dict(self.terms)
        for m, c in other.terms.items():
            c2 = acc.get(m, 0) + c
            if c2:
                acc[m] = c2
            else:
                acc.pop(m, None)
        return MlPoly._wrap(acc)

    def __sub__(self, other: "MlPoly") -> "MlPoly":
        if not isinstance(other, MlPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "MlPoly":
        return MlPoly._wrap({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "MlPoly | int") -> "MlPoly":
        if isinstance(other, int):
            if other == 0:
                return MlPoly.zero()
            return MlPoly._wrap({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, MlPoly):
            return NotImplemented
        acc: dict[frozenset[str], int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 | m2          # multilinear: v*v = v
                c = acc.get(m, 0) + c1 * c2
                if c:
                    acc[m] = c
                else:
                    acc.pop(m, None)
        return MlPoly._wrap(acc)

    __rmul__ = __mul__

    @classmethod
    def _wrap(cls, terms: dict) -> "MlPoly":
        out = cls.__new__(cls)
        out.terms = terms
        return out

    def reduce_mod(self, m: int) -> "MlPoly":
        """Coefficientwise reduction into canonical residues [0, m)."""
        _check_modulus(m)
        return MlPoly._wrap(
            {mono: c % m for mono, c in self.terms.items() if c % m}
        )

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for m in self.terms:
            out |= m
        return frozenset(out)

    def evaluate(self, point: Assignment) -> int:
        acc = 0
        for m, c in self.terms.items():
            acc += c * _monomial_value(m, point)
        return acc

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MlPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("MlPoly", frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        out = ""
        for i, (m, c) in enumerate(sorted(self.terms.items(), key=lambda t: term_key(t[0]))):
            mag = abs(c)
            body = "*".join(sorted(m))
            if not m:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = f"{mag}*{body}"
            if i == 0:
                out = ("-" if c < 0 else "") + piece
            else:
                out += (" - " if c < 0 else " + ") + piece
        return out

    def __repr__(self) -> str:
        return f"MlPoly({str(self)!r})"


# -- expression parser -----------------------------------------------------

# A token, or (second group) any other visible character, which is an error.
# '*', '+' and '-' are tokens that no rule accepts, so a spec refuses them by
# name at their column rather than as stray characters.
_EXPR_TOKEN = re.compile(r"([A-Za-z_][A-Za-z0-9_]*|\d+|->|[()^&*+-])|(\S)")


class _ExprParser:
    """Recursive-descent parser for the spec grammar of :class:`Anf`.

    expr := term ('^' term)* ; term := factor ('&' factor)* ;
    factor := '0' | '1' | var | '(' expr ')'

    Parses ``text[start:]``; every column is 1-based and counted in ``text``.
    """

    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.start = start
        self.tokens: list[tuple[str, int]] = []
        for m in _EXPR_TOKEN.finditer(text, start):
            tok, bad = m.groups()
            if bad:
                raise ParseError(f"unexpected character {bad!r}", col=m.start() + 1)
            self.tokens.append((tok, m.start() + 1))
        self.i = 0

    def _peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def _next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of expression", col=len(self.text) + 1)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect_end(self) -> None:
        if self.i < len(self.tokens):
            tok, col = self.tokens[self.i]
            raise ParseError(f"unexpected token {tok!r}", col=col)

    # Anf grammar

    def run_anf(self) -> Anf:
        try:
            out = self._anf_expr()
        except RecursionError:
            raise ParseError("expression nested too deeply", col=self.start + 1) from None
        self._expect_end()
        return out

    def _anf_expr(self) -> Anf:
        acc = self._anf_term()
        if self._peek() != "^":
            return acc
        monomials = set(acc.monomials)
        while self._peek() == "^":
            self._next()
            monomials ^= self._anf_term().monomials
        return Anf._from_monomials(frozenset(monomials))

    def _anf_term(self) -> Anf:
        acc = self._anf_factor()
        while self._peek() == "&":
            self._next()
            acc = acc & self._anf_factor()
        return acc

    def _anf_factor(self) -> Anf:
        tok, col = self._next()
        if tok == "0":
            return Anf.zero()
        if tok == "1":
            return Anf.one()
        if tok == "(":
            inner = self._anf_expr()
            closing, ccol = self._next()
            if closing != ")":
                raise ParseError(f"expected ')', got {closing!r}", col=ccol)
            return inner
        if _VAR_RE.match(tok):      # a checked name: skip Anf.var's second check
            return Anf._from_monomials(frozenset((frozenset((tok,)),)))
        raise ParseError(f"expected a variable, constant or '(', got {tok!r}", col=col)
