"""Counting statistics and correlation measures of subsets of Z_q.

The correlation of order k is the maximum, over window lengths M in
1..q and strictly increasing lag tuples d_1 < ... < d_k in Z_q, of

    | sum_{n=0}^{M-1} f(n + d_1) * ... * f(n + d_k) |

where f is the density-centered indicator of the set and indices are
reduced mod q.  Values are exact rationals: f takes values with a fixed
denominator q, so every window sum is an integer over q^k.  The exact
scan enumerates lag tuples in colexicographic order and gets the max
over M from a single running-prefix pass per tuple, vectorized over
blocks of tuples with 64-bit integer arithmetic; an independent oracle
recomputes every window sum from scratch for cross-validation.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    OrderTooLargeError,
    PatternTooLongError,
    TooLargeError,
)
from .sequences import DerivedSequence
from .subsets import BalancedIndicator, ResidueSet

#: Default elementary-operation budget shared by correlation scans and
#: sweep sizing.  Oversized requests are refused, never truncated.
DEFAULT_BUDGET = 10**9

# Block size (array cells) for the vectorized tuple scans.
_CHUNK_CELLS = 1 << 20


@dataclass(frozen=True, eq=False)
class SignVector:
    """The +1/-1 membership signs of a set over a full period."""

    q: int
    values: np.ndarray  # int8, +1 on members, -1 elsewhere; read-only

    @classmethod
    def from_set(cls, rset: ResidueSet) -> "SignVector":
        vals = np.where(rset.member_mask, 1, -1).astype(np.int8)
        vals.setflags(write=False)
        return cls(rset.q, vals)

    @property
    def plus_count(self) -> int:
        return int(np.count_nonzero(self.values == 1))


def sign_pattern_count(sign: SignVector, pattern) -> int:
    """Number of windows n in 0..q-s whose signs match the +-1 pattern.

    Windows are not wrapped: the start n ranges over 0..q-s only, giving
    q-s+1 windows of length s = len(pattern).
    """
    pattern = tuple(pattern)
    s, q = len(pattern), sign.q
    if s < 1:
        raise InvalidParameterError("pattern must be nonempty")
    if any(e not in (-1, 1) for e in pattern):
        raise InvalidParameterError(f"pattern entries must be +-1, got {pattern}")
    if s > q:
        raise PatternTooLongError(f"pattern length {s} exceeds q={q}")
    match = np.ones(q - s + 1, dtype=bool)
    for i, e in enumerate(pattern):
        match &= sign.values[i : i + q - s + 1] == e
    return int(np.count_nonzero(match))


def symbol_counts(seq: DerivedSequence) -> dict:
    """Occurrences of each symbol over the whole sequence (the length-1
    pattern counts, keyed by symbol)."""
    return {pattern[0]: count for pattern, count in pattern_counts(seq, 1).items()}


def pattern_counts(seq: DerivedSequence, length: int) -> dict:
    """Occurrences of every observed length-l window (sliding, no wrap).

    Returns a map from symbol tuples to counts; windows that never occur
    are simply absent.  The counts sum to len(seq) - length + 1.
    """
    if length < 1:
        raise InvalidParameterError(f"pattern length must be >= 1, got {length}")
    if length > len(seq.symbols):
        raise PatternTooLongError(
            f"pattern length {length} exceeds sequence length {len(seq.symbols)}"
        )
    windows = zip(*(seq.symbols[i:] for i in range(length)))
    return dict(Counter(windows))


@dataclass(frozen=True)
class CorrelationResult:
    """An exact correlation value plus a maximizing witness.

    value = |window sum| / q^k at the reported window length and lags;
    mode is "exact" (full enumeration) or "sampled" (random lag tuples,
    a lower bound).  tuples_examined counts enumerated lag tuples.
    """

    k: int
    value: Fraction
    window: int
    lags: tuple[int, ...]
    mode: str
    tuples_examined: int

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "value": {
                "num": self.value.numerator,
                "den": self.value.denominator,
            },
            "window": self.window,
            "lags": list(self.lags),
            "mode": self.mode,
            "tuples": self.tuples_examined,
        }


# ----------------------------------------------------------------------
# Colexicographic enumeration of k-element subsets of {0, ..., q-1}.
# The arrays grow on demand and are shared: the colex order of subsets
# of a smaller range is a prefix of the order for a larger range.

_COMB_LOCK = threading.RLock()
_COMB_CACHE: dict[int, tuple[int, np.ndarray]] = {}
_EMPTY_ROW = np.empty((1, 0), dtype=np.int32)


def _combs_prefix(k: int, q: int) -> np.ndarray:
    if k == 0:
        return _EMPTY_ROW
    built_q, arr = _COMB_CACHE[k]
    return arr[: math.comb(q, k)]


def _ensure_combs(k: int, q: int) -> None:
    if k == 0:
        return
    built_q, arr = _COMB_CACHE.get(k, (k - 1, np.empty((0, k), dtype=np.int32)))
    if built_q >= q:
        return
    _ensure_combs(k - 1, q - 1)
    blocks = [arr]
    for m in range(built_q, q):  # new largest elements
        left = _combs_prefix(k - 1, m)
        col = np.full((left.shape[0], 1), m, dtype=np.int32)
        blocks.append(np.hstack([left, col]))
    grown = np.vstack(blocks)
    grown.setflags(write=False)
    _COMB_CACHE[k] = (q, grown)


def colex_combinations(q: int, k: int) -> np.ndarray:
    """All k-subsets of {0..q-1} as rows, in colexicographic order."""
    if k < 0 or q < 0:
        raise InvalidParameterError("q and k must be nonnegative")
    if k > q:
        return np.empty((0, max(k, 1)), dtype=np.int32)
    with _COMB_LOCK:
        _ensure_combs(k, q)
        return _combs_prefix(k, q)


# ----------------------------------------------------------------------


def _validate_order(k: int, q: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"correlation order must be >= 1, got {k}")
    if k > q:
        raise OrderTooLargeError(f"correlation order {k} exceeds q={q}")


def _scan_tuple_rows(fnum: np.ndarray, tuples: np.ndarray, lo: int, hi: int):
    """Best |prefix sum| over tuple rows lo..hi-1; ties keep the lowest row.

    Returns (numerator, row index, window length); numerator is -1 when
    the range is empty.  Exact in int64: callers guarantee headroom.
    """
    q = fnum.shape[0]
    offsets = np.arange(q, dtype=np.int64)[None, :]
    best_num, best_row, best_m = -1, -1, -1
    rows_per_chunk = max(1, _CHUNK_CELLS // q)
    for start in range(lo, hi, rows_per_chunk):
        block = tuples[start : min(start + rows_per_chunk, hi)]
        prod = fnum[(offsets + block[:, 0:1]) % q]
        for i in range(1, block.shape[1]):
            prod *= fnum[(offsets + block[:, i : i + 1]) % q]
        sums = np.cumsum(prod, axis=1)
        np.abs(sums, out=sums)
        row_best = sums.max(axis=1)
        j = int(row_best.argmax())
        val = int(row_best[j])
        if val > best_num:
            best_num = val
            best_row = start + j
            best_m = int(sums[j].argmax()) + 1
    return best_num, best_row, best_m


def _split_ranges(n: int, parts: int) -> list:
    parts = max(1, min(parts, n)) if n else 1
    step, extra = divmod(n, parts)
    ranges, lo = [], 0
    for i in range(parts):
        hi = lo + step + (1 if i < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges or [(0, 0)]


def _best_over_tuples(fnum: np.ndarray, tuples: np.ndarray, workers: int):
    n = tuples.shape[0]
    ranges = _split_ranges(n, workers)
    if len(ranges) == 1:
        return _scan_tuple_rows(fnum, tuples, *ranges[0])
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        results = list(
            pool.map(lambda r: _scan_tuple_rows(fnum, tuples, *r), ranges)
        )
    # deterministic merge: highest value, then earliest enumeration row
    return min(results, key=lambda t: (-t[0], t[1]))


def _correlation_exact_bigint(fnum_list, q: int, k: int):
    """Arbitrary-precision fallback for the (budget-raised) huge cases."""
    best_num, best_row, best_m, best_lags = -1, -1, -1, None
    for row, lags in enumerate(_colex_iter(q, k)):
        total = 0
        best_here, m_here = -1, -1
        for n in range(q):
            prod = 1
            for d in lags:
                prod *= fnum_list[(n + d) % q]
            total += prod
            if abs(total) > best_here:
                best_here, m_here = abs(total), n + 1
        if best_here > best_num:
            best_num, best_row, best_m, best_lags = best_here, row, m_here, lags
    return best_num, best_m, best_lags


def _colex_iter(q: int, k: int):
    if k == 0:
        yield ()
        return
    for m in range(k - 1, q):
        for rest in _colex_iter(m, k - 1):
            yield rest + (m,)


def correlation_exact(
    rset: ResidueSet,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CorrelationResult:
    """Exact order-k correlation by full enumeration of lag tuples.

    Work is C(q, k) * q elementary products; requests above the budget
    are refused with the estimate attached.  Ties between maximizers are
    broken toward the first (window, lags) encountered: lags in colex
    order, windows by increasing length.
    """
    q = rset.q
    _validate_order(k, q)
    ntup = math.comb(q, k)
    cost = ntup * q
    if cost > budget:
        raise BudgetExceededError(
            f"correlation_exact(q={q}, k={k}) needs ~{cost} products, "
            f"budget is {budget}",
            estimated_cost=cost,
        )
    fnum = BalancedIndicator(rset).sign_numerators()
    if q ** (k + 1) >= 2**62:
        num, window, lags = _correlation_exact_bigint(
            [int(v) for v in fnum], q, k
        )
    else:
        tuples = colex_combinations(q, k)
        num, row, window = _best_over_tuples(fnum, tuples, workers)
        lags = tuple(int(v) for v in tuples[row])
    return CorrelationResult(
        k=k,
        value=Fraction(num, q**k),
        window=window,
        lags=lags,
        mode="exact",
        tuples_examined=ntup,
    )


def correlation_oracle(rset: ResidueSet, k: int) -> CorrelationResult:
    """Independent reference implementation, deliberately quadratic.

    For every lag tuple (lexicographic order) and every window length M,
    the window sum is recomputed from scratch over its first M terms; no
    prefix sums are reused.  Restricted to q <= 64, k <= 3.
    """
    q, t = rset.q, rset.cardinality
    if q > 64 or k > 3:
        raise TooLargeError(f"oracle restricted to q <= 64, k <= 3; got q={q}, k={k}")
    _validate_order(k, q)
    member = rset.member_mask
    fnum = [q - t if member[n] else -t for n in range(q)]
    best_num, best_window, best_lags = -1, -1, None
    for lags in itertools.combinations(range(q), k):
        prods = [math.prod(fnum[(n + d) % q] for d in lags) for n in range(q)]
        for window in range(1, q + 1):
            total = abs(sum(itertools.islice(prods, window)))
            if total > best_num:
                best_num, best_window, best_lags = total, window, lags
    return CorrelationResult(
        k=k,
        value=Fraction(best_num, q**k),
        window=best_window,
        lags=best_lags,
        mode="exact",
        tuples_examined=math.comb(q, k),
    )


def correlation_up_to(
    rset: ResidueSet,
    s: int,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> Fraction:
    """max over 1 <= k <= s of the exact order-k correlation value."""
    _validate_order(s, rset.q)
    return max(
        correlation_exact(rset, k, budget=budget, workers=workers).value
        for k in range(1, s + 1)
    )


def correlation_sampled(
    rset: ResidueSet,
    k: int,
    samples: int,
    seed: int,
    *,
    workers: int = 1,
) -> CorrelationResult:
    """Lower bound on the order-k correlation from sampled lag tuples.

    Draws `samples` uniform lag tuples (with replacement across draws)
    from a seeded generator; deterministic for a fixed seed.  Each tuple
    still gets its exact max over window lengths.
    """
    q = rset.q
    _validate_order(k, q)
    if samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")
    rng = np.random.default_rng(seed)
    tuples = np.empty((samples, k), dtype=np.int32)
    for i in range(samples):
        tuples[i] = np.sort(rng.choice(q, size=k, replace=False))
    fnum = BalancedIndicator(rset).sign_numerators()
    if q ** (k + 1) >= 2**62:
        raise TooLargeError(
            f"sampled scan needs q^(k+1) < 2**62 for exact arithmetic, "
            f"got q={q}, k={k}"
        )
    num, row, window = _best_over_tuples(fnum, tuples, workers)
    return CorrelationResult(
        k=k,
        value=Fraction(num, q**k),
        window=window,
        lags=tuple(int(v) for v in tuples[row]),
        mode="sampled",
        tuples_examined=samples,
    )
