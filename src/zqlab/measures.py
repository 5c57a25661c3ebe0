"""Counting statistics and correlation measures of subsets of Z_q.

The correlation of order k is the maximum, over window lengths M in
1..q and strictly increasing lag tuples d_1 < ... < d_k in Z_q, of

    | sum_{n=0}^{M-1} f(n + d_1) * ... * f(n + d_k) |

where f is the density-centered indicator of the set and indices are
reduced mod q.  Values are exact rationals: f takes values with a fixed
denominator q, so every window sum is an integer over q^k.

Translating the lags by c turns the window [0, M) into the cyclic window
[c, c+M), so the exact scan visits one lag tuple per translation class and
takes its max over all cyclic windows.  No product is multiplied out: it
is a table lookup by the number of members among the lagged positions.
The sampled scan shares that kernel; an independent oracle recomputes
every window sum from scratch for cross-validation.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    OrderTooLargeError,
    PatternTooLongError,
    TooLargeError,
)
from .sequences import DERIVATIONS, DerivedSequence
from .subsets import ResidueSet, _fraction_to_json

#: Default elementary-operation budget shared by correlation scans and
#: sweep sizing.  Oversized requests are refused, never truncated.
DEFAULT_BUDGET = 10**9

# Block size (array cells) for the vectorized tuple scans.
_CHUNK_CELLS = 1 << 20

# int64 bound on 3*q*max(T, q-T)^k: every |P(n)| <= max(T, q-T)^k, so prefix
# sums, drawups, |Tot +- U| and the witness's two-period differences all stay
# below 4*q*max(T, q-T)^k < 2^63.
_INT64_HEADROOM = 2**62


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

    Returns a map from symbol tuples to counts, in lexicographic order;
    windows that never occur are simply absent.  The counts sum to
    len(seq) - length + 1.  Each window is counted by its code in base
    |alphabet|: int64 when |alphabet|^length < 2^63, Python ints otherwise.
    """
    if length < 1:
        raise InvalidParameterError(f"pattern length must be >= 1, got {length}")
    size = len(seq.array)
    if length > size:
        raise PatternTooLongError(
            f"pattern length {length} exceeds sequence length {size}"
        )
    alphabet = DERIVATIONS[seq.kind].alphabet(seq.param)
    base = alphabet.stop - alphabet.start
    dtype = np.int64 if base**length < 2**63 else object
    digits = (seq.array - alphabet.start).astype(dtype, copy=False)
    windows = size - length + 1
    codes = digits[:windows].copy()
    for i in range(1, length):
        codes *= base
        codes += digits[i : i + windows]
    codes, counts = np.unique(codes, return_counts=True)
    patterns = np.empty((len(codes), length), dtype=dtype)
    for i in reversed(range(length)):
        patterns[:, i] = codes % base
        codes //= base
    patterns += alphabet.start
    return dict(zip(map(tuple, patterns.tolist()), counts.tolist()))


@dataclass(frozen=True)
class CorrelationResult:
    """An exact correlation value plus a maximizing witness.

    value = |window sum| / q^k at the reported window length and lags;
    mode is "exact" (all lag tuples) or "sampled" (random lag tuples, a
    lower bound).  tuples_examined counts the lag tuples the value covers:
    C(q, k) when exact, the draws when sampled.
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
            "value": _fraction_to_json(self.value),
            "window": self.window,
            "lags": list(self.lags),
            "mode": self.mode,
            "tuples": self.tuples_examined,
        }


def _validate_order(k: int, q: int) -> None:
    if k < 1:
        raise InvalidParameterError(f"correlation order must be >= 1, got {k}")
    if k > q:
        raise OrderTooLargeError(f"correlation order {k} exceeds q={q}")


def admit(what: str, cost: int, budget: int, unit: str = "cells") -> None:
    """Refuse work estimated above the budget, before any of it is done."""
    if cost > budget:
        raise BudgetExceededError(
            f"{what} needs ~{cost} {unit}, budget is {budget}", estimated_cost=cost
        )


def exact_cost(q: int, k: int) -> int:
    """Upper bound on the cells the exact order-k scan visits: one period
    per lag tuple with d_1 = 0 (it keeps about a k-th of them).  Orders
    outside 1..q cost 0: the scan refuses them before it visits a cell."""
    if not 1 <= k <= q:
        return 0
    return math.comb(q - 1, k - 1) * q


def up_to_cost(q: int, s: int) -> int:
    """The cells of the exact scans of orders 1..min(s, q) together."""
    return sum(exact_cost(q, k) for k in range(1, min(s, q) + 1))


def _kernel(rset: ResidueSet, k: int):
    """The map from a (rows, k) lag array to the prefix sums S_0 = 0,
    S_1, ..., S_q of P(n) = prod_i q*f(n + d_i), one row per lag tuple.
    With j the number of members among the n + d_i, P(n) is the table
    entry (q-T)^j * (-T)^(k-j).  Sums are int64 when
    3*q*max(T, q-T)^k < 2^62, Python ints otherwise."""
    q, t = rset.q, rset.cardinality
    dtype = np.int64 if 3 * q * max(t, q - t) ** k < _INT64_HEADROOM else object
    mask = rset.member_mask.astype(np.min_scalar_type(k))
    # windows[d, n] is the membership of (d + n) mod q
    windows = sliding_window_view(np.concatenate([mask, mask]), q)
    table = np.array([(q - t) ** j * (-t) ** (k - j) for j in range(k + 1)], dtype)

    def prefix_sums(lags: np.ndarray) -> np.ndarray:
        counts = windows[lags[:, 0]]
        for i in range(1, k):
            counts += windows[lags[:, i]]
        sums = np.zeros((len(lags), q + 1), dtype=dtype)
        np.cumsum(table[counts], axis=1, out=sums[:, 1:])
        return sums

    return prefix_sums


def _cyclic_best(sums: np.ndarray) -> np.ndarray:
    """Per row, the largest |sum| over all cyclic windows of one period.

    With U and D the largest drawup and drawdown of S_0, ..., S_q and
    Tot = S_q, windows that do not wrap reach max(U, D).  A window that
    wraps is the complement of one that does not, so its sum is Tot minus
    a value in [-D, U]: it reaches |Tot - U| or |Tot + D|.
    """
    total = sums[:, -1]
    run = np.minimum.accumulate(sums, axis=1)
    up = np.subtract(sums, run, out=run).max(axis=1)
    np.maximum.accumulate(sums, axis=1, out=run)
    down = np.subtract(run, sums, out=run).max(axis=1)
    return np.maximum.reduce([up, down, np.abs(total - up), np.abs(total + down)])


def _first_length(s: np.ndarray, best) -> int:
    """Shortest M >= 1 with |s[M] - s[0]| == best."""
    return int(np.flatnonzero(np.abs(s[1:] - s[0]) == best)[0]) + 1


def _cyclic_witness(sums: np.ndarray, best) -> tuple[int, int]:
    """(start, length) of a cyclic window whose |sum| is the row's best:
    the lowest start, then the shortest length."""
    q = sums.shape[0] - 1
    s = np.concatenate([sums, sums[-1] + sums[1:]])  # over two periods
    first, second = s[1:].reshape(2, q)

    def extreme(ufunc):  # of s[c+1 .. c+q] for every start c, in O(q)
        out = ufunc.accumulate(first[::-1])[::-1]
        out[1:] = ufunc(out[1:], ufunc.accumulate(second)[:-1])
        return out

    base = s[:q]
    hits = (extreme(np.maximum) - base == best) | (base - extreme(np.minimum) == best)
    start = int(np.flatnonzero(hits)[0])
    return start, _first_length(s[start : start + q + 1], best)


def _representatives(q: int, k: int, rows: int):
    """Blocks of `rows` lag tuples (0, d_2, ..., d_k) whose wrap gap
    q - d_k is at least every other gap, in lexicographic order.  Every
    translation class of k-subsets of Z_q has such a tuple: translate the
    element after its largest gap to 0."""
    if k == 1:
        yield np.zeros((1, 1), dtype=np.intp)
        return
    parts, size, stack = [], 0, [((0,), 0)]  # (prefix, its widest gap)
    while stack:
        prefix, widest = stack.pop()
        last, rest = prefix[-1], k - len(prefix) - 1
        # the next lag d leaves `rest` lags at unit gaps before the wrap:
        # q - d - rest >= max(widest, d - last)
        top = min(q - rest - widest, (q - rest + last) // 2)
        if rest:
            children = range(top, last, -1)  # reversed: they pop in order
            stack += [(prefix + (d,), max(widest, d - last)) for d in children]
            continue
        lo = last + 1
        while lo <= top:
            n = min(top + 1 - lo, rows - size)
            part = np.empty((n, k), dtype=np.intp)
            part[:, :-1], part[:, -1] = prefix, np.arange(lo, lo + n)
            parts.append(part)
            lo, size = lo + n, size + n
            if size == rows:
                yield np.concatenate(parts)
                parts, size = [], 0
    if parts:
        yield np.concatenate(parts)


def _best_row(blocks, prefix_sums, row_best, workers: int):
    """(value, lags) of the best lag tuple over the blocks: the highest
    value, then the first in block order.  Blocks run on `workers`
    threads, 2 * workers at a time."""

    def scan(lags):
        best = row_best(prefix_sums(lags))
        r = int(np.argmax(best))
        return int(best[r]), tuple(int(d) for d in lags[r])

    if workers <= 1:
        return max(map(scan, blocks), key=lambda r: r[0])  # first of equals
    results, blocks = [], iter(blocks)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        while batch := list(itertools.islice(blocks, 2 * workers)):
            results += pool.map(scan, batch)
    return max(results, key=lambda r: r[0])


def correlation_exact(
    rset: ResidueSet,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CorrelationResult:
    """Exact order-k correlation from one lag tuple per translation class
    (see _representatives), each maximized over all cyclic windows.

    Work is at most exact_cost(q, k) cells; requests above the budget are
    refused with that estimate attached.  The witness is the first
    maximizing representative, its window with the lowest start, then the
    shortest length; its lags are the representative shifted by the start.
    """
    q = rset.q
    _validate_order(k, q)
    admit(f"correlation_exact(q={q}, k={k})", exact_cost(q, k), budget)
    prefix_sums = _kernel(rset, k)
    blocks = _representatives(q, k, max(1, _CHUNK_CELLS // q))
    best, rep = _best_row(blocks, prefix_sums, _cyclic_best, workers)
    start, window = _cyclic_witness(prefix_sums(np.array([rep]))[0], best)
    return CorrelationResult(
        k=k,
        value=Fraction(best, q**k),
        window=window,
        lags=tuple(sorted((d + start) % q for d in rep)),
        mode="exact",
        tuples_examined=math.comb(q, k),
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
    """max over 1 <= k <= s of the exact order-k correlation value; the s
    scans are admitted together, up_to_cost(q, s) cells, before any runs."""
    q = rset.q
    _validate_order(s, q)
    admit(f"correlation_up_to(q={q}, s={s})", up_to_cost(q, s), budget)
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
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> CorrelationResult:
    """Lower bound on the order-k correlation from sampled lag tuples.

    Draws `samples` uniform lag tuples (with replacement across draws)
    from a seeded generator; deterministic for a fixed seed.  Each tuple
    gets its exact max over the windows [0, M), M = 1..q, from the same
    count-table kernel as the exact scan, in its arithmetic; ties keep the
    earliest draw.  Work is samples * q cells; requests above the budget
    are refused before anything is drawn.
    """
    q = rset.q
    _validate_order(k, q)
    if samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")
    admit("correlation_sampled", samples * q, budget)
    rng = np.random.default_rng(seed)
    tuples = np.empty((samples, k), dtype=np.int32)
    for i in range(samples):
        tuples[i] = np.sort(rng.choice(q, size=k, replace=False))
    prefix_sums = _kernel(rset, k)
    rows = max(1, _CHUNK_CELLS // q)
    blocks = (tuples[lo : lo + rows] for lo in range(0, samples, rows))
    best, lags = _best_row(blocks, prefix_sums, lambda s: abs(s).max(axis=1), workers)
    return CorrelationResult(
        k=k,
        value=Fraction(best, q**k),
        window=_first_length(prefix_sums(np.array([lags]))[0], best),
        lags=lags,
        mode="sampled",
        tuples_examined=samples,
    )
