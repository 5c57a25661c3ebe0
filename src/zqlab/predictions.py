"""Closed-form main terms and deviation budgets for the statistics.

Every main term is an exact rational in the set's density rho = T/q.
Expected pattern counts for the derived sequences:

  gap_mod pattern a:       rho^l * (1-rho)^(sum a - l) / (1-(1-rho)^M)^l * T
  gap_threshold pattern b: (1-rho)^((m-1)(l-z)) * (1-(1-rho)^(m-1))^z * T
  characteristic pattern:  rho^w * (1-rho)^(l-w) * q

where l is the pattern length, z and w the number of ones, and the counts
they predict are window counts of the matching statistic; a symbol term
is the length-1 pattern term, and a +-1 sign-pattern term the
characteristic term with -1 read as 0.  Summed over all symbols/patterns
these recover T (or q) exactly, which the test suite checks as identities.

Deviation budgets carry an exact rational coefficient and a symbolic
sqrt/log shape, and every verdict is exact: both sides are squared, and a
log factor is bracketed between two rationals at rising precision until
the bracket decides.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING

from .errors import DegenerateDensityError, InvalidParameterError, PatternTooLongError

if TYPE_CHECKING:
    from .subsets import ConstructionSpec


# Every decimal result comes from this context or a copy at another
# precision, never the caller's: each field is set, none from DefaultContext.
_DECIMAL = decimal.Context(
    prec=15, rounding=decimal.ROUND_HALF_EVEN, Emin=-999999, Emax=999999,
    capitals=1, clamp=0, flags=[],
    traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
)


def _decimal_context(prec: int) -> decimal.Context:
    ctx = _DECIMAL.copy()
    ctx.prec = prec
    return ctx


def _density(T: int, q: int) -> Fraction:
    if q < 1 or not 0 <= T <= q:
        raise InvalidParameterError(f"need 0 <= T <= q, got T={T}, q={q}")
    if T == 0:
        raise DegenerateDensityError("main terms undefined for the empty set")
    return Fraction(T, q)


def gap_mod_symbol_main_term(u: int, T: int, q: int, M: int) -> Fraction:
    """Expected count of symbol u in the gap-mod-M sequence of a set of
    cardinality T in Z_q (length-(T-1) sequence, u in 1..M)."""
    return gap_mod_pattern_main_term((u,), T, q, M)


def gap_threshold_symbol_main_term(v: int, T: int, q: int, m: int) -> Fraction:
    """Expected count of bit v in the gap-threshold-m sequence."""
    return gap_threshold_pattern_main_term((v,), T, q, m)


def gap_mod_pattern_main_term(pattern, T: int, q: int, M: int) -> Fraction:
    """Expected count of a window of gap-mod symbols a_1 .. a_l."""
    pattern = tuple(pattern)
    if M < 2 or len(pattern) < 1 or any(not 1 <= a <= M for a in pattern):
        raise InvalidParameterError(
            f"need M >= 2 and a nonempty pattern over 1..M, got {pattern}"
        )
    rho = _density(T, q)
    ell = len(pattern)
    return (
        rho**ell
        * (1 - rho) ** (sum(pattern) - ell)
        / (1 - (1 - rho) ** M) ** ell
        * T
    )


def gap_threshold_pattern_main_term(pattern, T: int, q: int, m: int) -> Fraction:
    """Expected count of a window of gap-threshold bits b_1 .. b_l."""
    pattern = tuple(pattern)
    if m < 2 or len(pattern) < 1 or any(b not in (0, 1) for b in pattern):
        raise InvalidParameterError(
            f"need m >= 2 and a nonempty 0/1 pattern, got {pattern}"
        )
    rho = _density(T, q)
    ell, z = len(pattern), sum(pattern)
    return (
        (1 - rho) ** ((m - 1) * (ell - z))
        * (1 - (1 - rho) ** (m - 1)) ** z
        * T
    )


def characteristic_pattern_main_term(pattern, T: int, q: int) -> Fraction:
    """Expected count of a 0/1 window in the characteristic sequence.

    Division-free, so degenerate densities (T = 0 or T = q) are fine.
    """
    pattern = tuple(pattern)
    if len(pattern) < 1 or any(b not in (0, 1) for b in pattern):
        raise InvalidParameterError(f"need a nonempty 0/1 pattern, got {pattern}")
    if q < 1 or not 0 <= T <= q:
        raise InvalidParameterError(f"need 0 <= T <= q, got T={T}, q={q}")
    rho = Fraction(T, q)
    w = sum(pattern)
    return rho**w * (1 - rho) ** (len(pattern) - w) * q


def sign_pattern_main_term(pattern, T: int, q: int) -> Fraction:
    """Expected count of windows matching a +-1 membership pattern: the
    characteristic term of the 0/1 pattern with -1 read as 0."""
    pattern = tuple(pattern)
    if len(pattern) < 1 or any(e not in (-1, 1) for e in pattern):
        raise InvalidParameterError(f"need a nonempty +-1 pattern, got {pattern}")
    if len(pattern) > q:
        raise PatternTooLongError(f"pattern length {len(pattern)} exceeds q={q}")
    return characteristic_pattern_main_term(tuple((e + 1) // 2 for e in pattern), T, q)


# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceThreshold:
    """The density at which the gap-threshold sequence is balanced.

    For threshold m the balancing density is 1 - 2^(-1/(m-1)): exactly
    1/2 at m = 2, irrational beyond, carried as a 50-significant-digit
    decimal.  size_for(q) gives the nearest integer cardinality
    (round half to even).
    """

    m: int
    exact: Fraction | None
    decimal: Decimal
    digits: int = 50

    def size_for(self, q: int) -> int:
        if self.exact is not None:
            return round(self.exact * q)
        ctx = _decimal_context(self.digits + 30)
        value = ctx.multiply(_threshold_decimal(self.m, ctx), q)
        return int(value.to_integral_value(decimal.ROUND_HALF_EVEN, ctx))


def _threshold_decimal(m: int, ctx: decimal.Context) -> Decimal:
    return ctx.subtract(1, ctx.power(2, ctx.divide(-1, m - 1)))


def gap_threshold_balance_point(m: int) -> BalanceThreshold:
    if m < 2:
        raise InvalidParameterError(f"threshold must be >= 2, got {m}")
    if m == 2:
        return BalanceThreshold(m, Fraction(1, 2), Decimal("0.5"))
    rough = _threshold_decimal(m, _decimal_context(80))
    fifty = _decimal_context(50).plus(rough)
    return BalanceThreshold(m, None, fifty)


# ----------------------------------------------------------------------


@lru_cache(maxsize=256)
def _ln_bracket(n: int, digits: int) -> tuple[Fraction, Fraction]:
    """Rationals lo <= ln(n) <= hi, hi - lo about 10^(1-digits) ln(n), for
    an integer n >= 1: Decimal's ln is correctly rounded, so its result is
    within half a unit in the last place; one unit either side is safe."""
    ctx = _decimal_context(digits)
    value = ctx.ln(n)
    if not value:
        return Fraction(0), Fraction(0)
    ulp = Fraction(ctx.scaleb(1, value.adjusted() - digits + 1))
    return Fraction(value) - ulp, Fraction(value) + ulp


@dataclass(frozen=True)
class DeviationBudget:
    """An allowed deviation c * sqrt(sqrt_arg) * log(log_arg)^log_power.

    Verdicts are exact: both sides are squared, and log(log_arg) is
    bracketed between rationals (log_arg >= 1).  bound() is the float64
    value reports show.  asserted=False marks report-only budgets whose
    absolute constant is not pinned.
    """

    formula: str
    asserted: bool
    coefficient: Fraction
    sqrt_arg: int = 1
    log_power: int = 0
    log_arg: int = 1

    def bound(self) -> float:
        b = float(self.coefficient) * math.sqrt(self.sqrt_arg)
        if self.log_power:
            b *= math.log(self.log_arg) ** self.log_power
        return b

    def allows(self, deviation: Fraction) -> bool:
        """Exact comparison |deviation| <= budget (deviation >= 0).

        With deviation = n/d and c = a/b this is (n*b)^2 <= (d*a)^2 *
        sqrt_arg * L^(2 log_power), in integers; L = log(log_arg) is
        bracketed at 20 digits, then at twice the digits until both ends
        of the bracket agree.  They always come to agree: L is 0 or
        transcendental, so the budget is never a rational other than 0.
        """
        if deviation < 0:
            raise InvalidParameterError("deviation must be nonnegative")
        c = self.coefficient
        lhs = (deviation.numerator * c.denominator) ** 2
        rhs = (deviation.denominator * c.numerator) ** 2 * self.sqrt_arg
        if self.log_power == 0 or rhs == 0:
            return lhs <= rhs
        power, digits = 2 * self.log_power, 20
        while True:
            lo, hi = _ln_bracket(self.log_arg, digits)
            if lhs * lo.denominator**power <= rhs * lo.numerator**power:
                return True
            if lhs * hi.denominator**power > rhs * hi.numerator**power:
                return False
            digits *= 2


def exact_budget() -> DeviationBudget:
    return DeviationBudget("0 (exact)", True, Fraction(0))


def report_only_budget(formula: str, coefficient: int, q: int) -> DeviationBudget:
    """Report-only budget coefficient * sqrt(q) * log(q)."""
    return DeviationBudget(formula, False, Fraction(coefficient), q, 1, q)


@dataclass(frozen=True)
class CardinalityPrediction:
    """Predicted cardinality: exact rational main term plus budget."""

    main: Fraction
    budget: DeviationBudget


def predicted_cardinality(spec: ConstructionSpec) -> CardinalityPrediction:
    """Main term and deviation budget for |construct(spec)|, by the rule
    its construction kind records in subsets.CONSTRUCTIONS."""
    return spec.record.cardinality(**spec.params)
