"""Counting statistics and correlation measures of subsets of Z_q.

A sequence's length-l windows are counted by their codes in base
|alphabet|.  Where there are no more possible codes than windows, the
codes are built and tallied with np.bincount a cache-sized block of
windows at a time into a dense WindowTally, and the counts at any shorter
length are its marginal: a reshape sum, plus the few windows that start
past its last window.  So one tally at the longest length asked serves
every shorter one; pattern_counts reads the tally at its own length.

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

Most rows cannot reach the maximum, and a coarse pass proves it cheaply.
It cuts the period into blocks of 32, then 16, then 8 positions (cyclic
rows) or of one width (prefix rows, below) and gets each block's exact
sum from popcounts of ANDs of bit-packed rotated membership masks.  The
best window with both ends on block boundaries is reached by a real
window, so it is a lower bound; adding the largest positive or negative
mass of one block for each free end makes it an upper bound.  A row goes on to the full kernel only if its upper bound
reaches the best value known so far, so every row at the maximum gets
there, in order, and values and witnesses are those of the full scan.
A cyclic row whose block sums span R = max S - min S and total Tot cannot
pass R + |Tot| plus the slack of its two ends; rows below the floor by
that measure skip the running extremes of the exact lower bound.
The witness window is read from the prefix sums the scan keeps of its
best row, not from a second kernel call.
The pass runs where it pays, which the input decides: orders 2 to 4, q of
at least 128, and int64 arithmetic (on Python ints every row goes to the
full kernel); there it bounds every block of rows, however small.
correlation_up_to carries the best value of the lower orders into each
higher order's scan as its starting bound.  A scan runs its blocks in
order on the calling thread and gives the pass one workspace: named
buffers that grow to the largest request and are handed out as views, so
a warm pass allocates nothing of a block's size.  Its later blocks and
widths reuse it; the scan frees it only before a kernel call, which can
use that memory, and it goes with the scan.

The sampled scan maximizes over prefix windows (one free end).  Where the
coarse pass runs, its rows never reach the full kernel: inside a block,
every prefix sum lies within the block's positive mass above the sum
before the block and within that mass below the sum after it, so only the
blocks where that reaches the floor are summed position by position, and
the shortest witness window is read from them.  Prefix rows are bounded
at one width, which q decides (_prefix_width): 64 from q = 960 on, one
popcount a 64-bit word, so the int64 stage does half the blocks; 32
below, where most blocks of 64 reach the floor and summing them costs
more.  The narrower widths, which pay for cyclic rows before the kernel,
cost a prefix row more than the few blocks they would spare.
No row of q prefix sums is built, so its draws come in blocks of at least
_DRAW_ROWS rows, whatever q.  Elsewhere it shares the kernel with the
exact scan.  Its lag tuples are those of one
Generator.choice(q, k, replace=False) call per draw, sorted, but drawn a
block at a time: one rng.integers call draws the bounds that the choice
calls would draw, in their order, through the same bounded-integer
routine, and Floyd's rule turns each row's draws into its tuple.  So the
random stream, and every sampled value and witness, is that of the
per-draw calls.  An independent oracle recomputes every window sum from
scratch for cross-validation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BudgetExceededError,
    InvalidParameterError,
    OrderTooLargeError,
    PatternTooLongError,
    TooLargeError,
)
from .sequences import DerivedSequence
from .subsets import _BLOCK, ResidueSet, _fraction_to_json

#: Default elementary-operation budget shared by correlation scans and
#: sweep sizing.  Oversized requests are refused, never truncated.
DEFAULT_BUDGET = 10**9

# Block size (array cells) for the vectorized tuple scans.
_CHUNK_CELLS = 1 << 20

# int64 bound on 3*q*max(T, q-T)^k: every |P(n)| <= max(T, q-T)^k, so prefix
# sums, drawups, |Tot +- U| and the witness's two-period differences all stay
# below 4*q*max(T, q-T)^k < 2^63.
_INT64_HEADROOM = 2**62

# Above this q the sums of orders 2 and up are Python ints whatever T is
# (3*q*max(T, q-T)^k >= 0.75*q^3 > 2^62), and one row of them runs out of
# memory: such scans are refused.  Order-1 sums stay int64 to q ~ 1.2e9.
_HIGH_ORDER_MAX_Q = 2**23

# The coarse pass (_coarse) runs at these orders when q has at least four of
# the widest cyclic blocks.  For cyclic rows each width in turn bounds the
# rows the last one kept; prefix rows are bounded and finished at one width,
# _prefix_width(q): blocks of _WORD_WIDTH from _WORD_MIN_Q on.  Below 15 of
# those blocks, sampled quadratic residues took longer at width 64 (up to
# 5 times at q = 257) as most blocks reached refine; the crossing is near
# q = 1000 at order 2 and q = 700 at orders 3 and 4.
_COARSE_ORDERS = range(2, 5)
_COARSE_WIDTHS = (32, 16, 8)
_COARSE_MIN_Q = 4 * _COARSE_WIDTHS[0]
_WORD_WIDTH = 64
_WORD_MIN_Q = 15 * _WORD_WIDTH

# Sampled rows that the coarse pass bounds and finishes come in blocks of
# _CHUNK_CELLS cells, like the kernel's, but of at least _DRAW_ROWS rows:
# from q = _CHUNK_CELLS // _DRAW_ROWS on, the pass's fixed numpy calls are
# shared by several rows.  Its buffers take at most about 3 bytes a cell,
# so such a block still takes less memory than one row of the full kernel
# (17 bytes a cell).
_DRAW_ROWS = 4


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


def _code_dtype(family: int):
    """The narrowest of uint16, uint32 and uint64 that holds `family`
    codes (and so every symbol), object (Python ints) beyond."""
    unsigned = (np.uint16, np.uint32, np.uint64)
    return next((t for t in unsigned if family <= np.iinfo(t).max), object)


def _window_codes(symbols: np.ndarray, alphabet: range, length: int) -> np.ndarray:
    """The code of every length-`length` window of `symbols`, int64 symbols
    of `alphabet`: the window in base |alphabet|, its symbols less the
    alphabet's start, in _code_dtype of |alphabet|^length.

    Codes are built by doubling: those of 2s consecutive symbols are the
    codes of s symbols times base^s plus those of the s after, and a
    window's length is a sum of such spans, so a length-l code takes about
    2 log2(l) passes, not 2 (l - 1).
    """
    base = alphabet.stop - alphabet.start
    block = symbols.astype(_code_dtype(base**length))
    block -= alphabet.start
    size = len(block)
    # codes: of each window's first `width` symbols; block: of every `span`
    codes, width, span = None, 0, 1
    for bit in range(length.bit_length()):
        if bit:
            n = size - 2 * span + 1
            block = block[:n] * base**span + block[span : span + n]
            span *= 2
        if length >> bit & 1:
            if codes is None:
                codes, width = block, span
            else:
                n = size - width - span + 1
                codes = codes[:n] * base**span + block[width : width + n]
                width += span
    return codes


def tallied(seq: DerivedSequence, length: int) -> bool:
    """Whether the length-`length` windows of seq are tallied by code with
    np.bincount: a positive length with no more possible codes than
    windows, so the tally takes O(windows) cells."""
    base, windows = seq.alphabet.stop - seq.alphabet.start, len(seq.array) - length + 1
    # base >= 2, so base^length > windows past windows' bit length
    return 1 <= length <= max(windows, 0).bit_length() and base**length <= windows


class WindowTally:
    """The count of every length-`length` window of `seq` by its code
    (see _window_codes), dense: `counts[c]` counts code c, so the counts
    run in the order of itertools.product over the alphabet.  Made by
    window_tally; read-only.  A plain class: a dataclass would add its
    definition's cost to every import."""

    __slots__ = ("seq", "length", "counts")

    def __init__(self, seq: DerivedSequence, length: int, counts: np.ndarray):
        self.seq, self.length, self.counts = seq, length, counts

    def marginal(self, length: int) -> np.ndarray:
        """The dense counts of the windows of length l = `length`, 1 <= l
        <= self.length = L.  A length-l window that starts at a length-L
        window's start is the latter's first l symbols, so those windows
        are the tally summed over its last L - l symbols, a (base^l,
        base^(L - l)) reshape; the L - l windows that start past the last
        length-L window are counted from the sequence's last L - 1
        symbols."""
        if length == self.length:
            return self.counts
        alphabet, symbols = self.seq.alphabet, self.seq.array
        base = alphabet.stop - alphabet.start
        counts = self.counts.reshape(base**length, -1).sum(axis=1)
        tail = symbols[len(symbols) - self.length + 1 :]
        np.add.at(counts, _window_codes(tail, alphabet, length), 1)
        counts.setflags(write=False)
        return counts


def window_tally(seq: DerivedSequence, length: int) -> WindowTally:
    """The tally of seq's length-`length` windows, which must be tallied
    (see tallied).  Codes are built and counted by np.bincount
    _BLOCK windows at a time, or as many as there are codes if that is
    more, so each block's codes stay cache-sized and the tally takes
    O(windows) cells; no array of every window's code is made."""
    if not tallied(seq, length):
        raise InvalidParameterError(
            f"length-{length} windows of a {len(seq.array)}-symbol sequence "
            "have more possible codes than windows"
        )
    alphabet, symbols = seq.alphabet, seq.array
    family = (alphabet.stop - alphabet.start) ** length
    windows, step = len(symbols) - length + 1, max(_BLOCK, family)
    counts = None
    for start in range(0, windows, step):
        stop = min(start + step, windows) + length - 1  # past the block's last symbol
        part = np.bincount(
            _window_codes(symbols[start:stop], alphabet, length), minlength=family
        )
        counts = part if counts is None else np.add(counts, part, out=counts)
    counts.setflags(write=False)
    return WindowTally(seq, length, counts)


def pattern_counts(seq: DerivedSequence, length: int) -> dict:
    """Occurrences of every observed length-l window (sliding, no wrap).

    Returns a map from symbol tuples to counts, in lexicographic order;
    windows that never occur are simply absent.  The counts sum to
    len(seq) - length + 1.  Each window is counted by its code (see
    _window_codes).  With no more possible codes than windows the codes
    are tallied with np.bincount, a block of windows at a time, by
    window_tally; otherwise every window's code is made and they are
    sorted with np.unique.  Only the codes that occur are decoded.
    """
    if length < 1:
        raise InvalidParameterError(f"pattern length must be >= 1, got {length}")
    size = len(seq.array)
    if length > size:
        raise PatternTooLongError(
            f"pattern length {length} exceeds sequence length {size}"
        )
    alphabet = seq.alphabet
    if tallied(seq, length):  # a tally of O(windows) cells
        counts = window_tally(seq, length).counts
        codes = np.flatnonzero(counts)
        counts = counts[codes]
    else:
        codes = _window_codes(seq.array, alphabet, length)
        codes, counts = np.unique(codes, return_counts=True)
    base = alphabet.stop - alphabet.start
    patterns = np.empty((len(codes), length), dtype=codes.dtype)
    for i in reversed(range(length)):
        patterns[:, i] = codes % base
        codes //= base
    patterns += alphabet.start
    return dict(zip(zip(*patterns.T.tolist()), counts.tolist()))


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


def validate_correlation(q: int, k: int, samples: int | None = None) -> None:
    """Refuse an order outside 1..q or fewer than one sample; their costs
    read 0 or less, so this runs before a scan is admitted.  Then refuse
    orders 2 and up above _HIGH_ORDER_MAX_Q, whose scan cannot finish."""
    if k < 1:
        raise InvalidParameterError(f"correlation order must be >= 1, got {k}")
    if k > q:
        raise OrderTooLargeError(f"correlation order {k} exceeds q={q}")
    if samples is not None and samples < 1:
        raise InvalidParameterError(f"samples must be >= 1, got {samples}")
    if k >= 2 and q > _HIGH_ORDER_MAX_Q:
        raise TooLargeError(
            f"correlation order {k} needs q <= {_HIGH_ORDER_MAX_Q}, got q={q}: "
            "its sums outgrow int64"
        )


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


def _sums_dtype(q: int, t: int, k: int):
    """int64 when 3*q*max(T, q-T)^k < 2^62, Python ints otherwise."""
    return np.int64 if 3 * q * max(t, q - t) ** k < _INT64_HEADROOM else object


def _table(q: int, t: int, k: int, dtype) -> np.ndarray:
    """P(n) by the number j of members among the n + d_i: (q-T)^j (-T)^(k-j)."""
    return np.array([(q - t) ** j * (-t) ** (k - j) for j in range(k + 1)], dtype)


def _kernel(rset: ResidueSet, k: int):
    """The map from a (rows, k) lag array to the prefix sums S_0 = 0,
    S_1, ..., S_q of P(n) = prod_i q*f(n + d_i), one row per lag tuple.
    With j the number of members among the n + d_i, P(n) is the table
    entry (q-T)^j * (-T)^(k-j).  Sums are int64 when
    3*q*max(T, q-T)^k < 2^62, Python ints otherwise."""
    q, t = rset.q, rset.cardinality
    dtype = _sums_dtype(q, t, k)
    mask = rset.member_mask.astype(np.min_scalar_type(k))
    # windows[d, n] is the membership of (d + n) mod q
    windows = sliding_window_view(np.concatenate([mask, mask]), q)
    table = _table(q, t, k, dtype)

    def prefix_sums(lags: np.ndarray) -> np.ndarray:
        counts = windows[lags[:, 0]]
        for i in range(1, k):
            counts += windows[lags[:, i]]
        sums = np.zeros((len(lags), q + 1), dtype=dtype)
        np.cumsum(table[counts], axis=1, out=sums[:, 1:])
        return sums

    return prefix_sums


def _coarse_selected(q: int, t: int, k: int) -> bool:
    """Whether the coarse pass can pay: at _COARSE_ORDERS (there are 2^k
    AND terms), from _COARSE_MIN_Q (enough blocks to prune) and where the
    kernel runs on int64 (on Python ints every row survives)."""
    # k <= 4 and blocks of at most 64 positions, with M = max(T, q-T): the
    # terms of a block sum add up to at most 64 * (q+T)^k <= 64 * (3M)^k in
    # absolute value, and those of a positive mass, whose i-th weight is at
    # most 2^i * M^k, to at most 64 * (3M)^k too.  The int64 rule
    # 3 * q * M^k < 2^62 gives 64 * (3M)^k < 2^63 from q >= 32 * 3^(k-1)
    # (864 at k = 4), and below that q, M < 864 gives it directly
    return (
        k in _COARSE_ORDERS
        and q >= _COARSE_MIN_Q
        and _sums_dtype(q, t, k) is not object
    )


def _prefix_width(q: int) -> int:
    """The width prefix rows are bounded and finished at: _WORD_WIDTH from
    _WORD_MIN_Q on, where one popcount a 64-bit word halves the int64
    stage, the widest cyclic width below, where most blocks of 64 would
    reach refine."""
    return _WORD_WIDTH if q >= _WORD_MIN_Q else _COARSE_WIDTHS[0]


def _weights(q: int, t: int, k: int) -> np.ndarray:
    """(2, k + 1) int64: row 0 weighs the e_i into a block sum, row 1 into
    its positive mass (see _coarse)."""
    table = _table(q, t, k, object)
    return np.array(
        [
            [q**i * (-t) ** (k - i) for i in range(k + 1)],  # block sums
            [  # positive masses
                sum(
                    table[j] * (-1) ** (i - j) * math.comb(i, j)
                    for j in range(i + 1)
                    if table[j] > 0
                )
                for i in range(k + 1)
            ],
        ],
        dtype=np.int64,
    )


def _coarse(rset: ResidueSet, k: int, workspace: dict):
    """(bounds, refine): certified bounds on each row's best from block
    sums, and the prefix-window rows finished from them; None where
    _coarse_selected says the pass cannot pay.

    The period is cut into blocks of `width` positions, the last one the
    shorter tail.  Expanding prod_i (q*m(n + d_i) - T) over the subsets S
    of the lags, a block's sum is sum_S q^|S| (-T)^(k-|S|) times the
    block's popcount of AND_{i in S} m(. + d_i), taken from membership
    masks packed 8 positions a byte and counted a block-sized word at a
    time.  With e_i the popcounts summed over |S| = i, the positions with
    exactly j members number sum_i (-1)^(i-j) C(i, j) e_i, so the block's
    positive mass of P is linear in the e_i too.  Each row takes the AND
    over every nonempty S and counts it into e_|S|.  The e_i are summed in
    int16 (each is at most C(k, i) * width), then weighted in int64.
    Every exact row's first lag is 0, so the pass rotates m(. + 0) once
    and such rows share it: a block of them rotates k - 1 masks a row, not
    k, and counts the lag-0 popcounts once.  The membership mask is packed
    once and doubled by a bit shift of that packing; its seven other bit
    offsets are byte shifts of the doubled packing.

    Cyclic rows below the floor by R + |Tot| + 2 * slack skip the running
    extremes (see bounds).  Prefix rows are bounded at _prefix_width(q)
    only and finished there by refine, which sums the blocks that can
    reach the floor position by position.

    Every call takes its arrays from `workspace`, a dict of named buffers
    that grow to the largest request and are handed out as views; the
    caller owns it and decides when to give the memory back.
    """
    q, t = rset.q, rset.cardinality
    if not _coarse_selected(q, t, k):
        return None
    size = _WORD_WIDTH // 8 * -(-q // _WORD_WIDTH)  # bytes of the longest row
    span = -(-q // 8) + size
    # doubled[b] packs positions 8b .. 8b + 7 of the mask over two periods:
    # its second copy starts at bit `shift` of byte `cut`, q = 8 * cut +
    # shift, so it is the packing shifted that many bits on
    packed = np.packbits(rset.member_mask)
    cut, shift = divmod(q, 8)
    doubled = np.zeros(span + 1, np.uint8)
    doubled[: len(packed)] = packed
    doubled[cut : cut + len(packed)] |= packed >> shift
    if shift:
        doubled[cut + 1 : cut + 1 + len(packed)] |= packed << (8 - shift)
    # shifted[o, b] packs positions 8b + o .. 8b + o + 7 of the doubled mask,
    # so m(. + d) is the byte slice [d // 8, d // 8 + size) of shifted[d % 8];
    # shifted[0] holds each offset's low bits until the last
    shifted = np.empty((8, span), np.uint8)
    for o in range(1, 8):
        np.left_shift(doubled[:span], o, out=shifted[o])
        np.right_shift(doubled[1:], 8 - o, out=shifted[0])
        shifted[o] |= shifted[0]
    shifted[0] = doubled[:span]
    slices = sliding_window_view(shifted, size, axis=1)
    inside = np.packbits(np.arange(8 * cut, 8 * size) < q)

    def rotated(d: np.ndarray, out: np.ndarray) -> np.ndarray:
        """m(. + d) for each lag d, its positions q and past cleared, in
        the first bytes of each row of `out`.  Rows are gathered about
        _BLOCK bytes at a time, or one at a time if longer, so the
        gather's temporary stays cache-sized or one row."""
        n = out.shape[1]
        step = max(1, _BLOCK // n)
        for lo in range(0, len(d), step):
            part = d[lo : lo + step]
            out[lo : lo + step] = slices[part % 8, part // 8, :n]
        out[:, cut:] &= inside[: n - cut]  # another period
        return out

    @cache
    def zero() -> np.ndarray:
        """m(. + 0), the first mask of every exact row, rotated once for
        the pass, and only if an exact block comes (q / 8 bytes)."""
        return rotated(np.zeros(1, np.intp), np.empty((1, size), np.uint8))[0]

    weights = _weights(q, t, k)

    @cache
    def length_terms(width: int) -> np.ndarray:
        """(2, blocks) int64: e_0, the block length, the same in every row,
        times its weights."""
        blocks = -(-q // width)
        return weights[:, :1] * np.minimum(q - width * np.arange(blocks), width)

    def scratch(name: str, shape: tuple, dtype) -> np.ndarray:
        """The first cells of the named buffer, grown to the largest request."""
        n = math.prod(shape)
        if len(workspace.get(name, ())) < n:
            workspace[name] = np.empty(n, dtype)
        return workspace[name][:n].reshape(shape)

    def bounds(lags: np.ndarray, width: int, ends: int, floor: int = 0):
        """(lower, upper) per row: the best block-boundary prefix sum or
        cyclic window (`ends` free ends: 2 cyclic, 1 prefix), which some
        real window reaches, and that plus `ends` times the largest
        positive or negative mass of P inside one block, by which moving a
        window end to its block's start can change a sum.  Its (rows,
        blocks) arrays and packed masks are views of the workspace.  Where
        every row's first lag is 0, as in the exact scan, the rows share
        the pass's one lag-0 mask and its popcounts instead of each
        rotating, ANDing and counting its own.

        A cyclic row's best over block boundaries is at most R + |Tot|,
        with R = max S - min S and Tot = S_q, and both are sums of real
        windows.  So a row whose R + |Tot| + 2 * slack is below `floor`
        cannot reach it, and gets max(R, |Tot|) and that upper bound in
        place of the running extremes' exact bounds."""
        blocks = -(-q // width)
        rows, nbytes = len(lags), width // 8 * blocks
        view = np.dtype(f"<u{width // 8}")
        shared = not lags[:, 0].any()
        # e[n - 1] is e_n, at most C(k, n) * width <= 384
        e = scratch("e", (k, rows, blocks), np.int16)
        e[...] = 0
        counts = scratch("counts", (rows, blocks), np.uint8)
        subsets = [(0, None)]  # (|S|, AND over S) for each S of the lags so far
        slots = iter(scratch("ands", (2**k - 1 - shared, rows, nbytes), np.uint8))
        for i in range(k):
            if i == 0 and shared:
                masks = zero()[:nbytes]
            else:
                masks = rotated(lags[:, i], next(slots))
            subsets += [
                (n + 1, masks if a is None else np.bitwise_and(a, masks, out=next(slots)))
                for n, a in subsets
            ]
        for n, a in subsets[1:]:
            count = np.bitwise_count(a.view(view), out=counts if a.ndim == 2 else None)
            np.add(e[n - 1], count, out=e[n - 1])
        # block sums into a contiguous (rows, blocks) view of spare, positive
        # masses into pos, their terms into one of sums
        sums = scratch("sums", (rows, blocks + 1), np.int64)
        pos = scratch("pos", (rows, blocks), np.int64)
        spare = scratch("spare", (rows, blocks + 1), np.int64)
        # the first cells of the two buffers just sized: no growth, same memory
        block_sums = scratch("spare", (rows, blocks), np.int64)
        term = scratch("sums", (rows, blocks), np.int64)
        for w, out in enumerate((block_sums, pos)):
            np.multiply(e[0], weights[w, 1], out=out)
            out += length_terms(width)[w]
            for n in range(2, k + 1):
                out += np.multiply(e[n - 1], weights[w, n], out=term)
        # max(positive mass, negative mass), the latter pos - block_sums
        np.minimum(block_sums, 0, out=term)
        slack = np.subtract(pos, term, out=term).max(axis=1)
        sums[:, 0] = 0
        np.cumsum(block_sums, axis=1, out=sums[:, 1:])
        if ends == 1:
            lower = _prefix_best(sums)
            return lower, lower + slack
        spread, total = sums.max(axis=1) - sums.min(axis=1), np.abs(sums[:, -1])
        reach = spread + total
        live = reach + 2 * slack >= floor
        n = int(np.count_nonzero(live))
        if n == rows:
            lower = _cyclic_best(sums, spare)
        else:
            lower = np.maximum(spread, total)
            if n:  # pos is spent: it takes the live rows' sums
                part = scratch("pos", (n, blocks + 1), np.int64)
                np.compress(live, sums, axis=0, out=part)
                lower[live] = _cyclic_best(part, spare[:n])
        return lower, np.where(live, lower, reach) + 2 * slack

    products = _table(q, t, k, np.int64)
    wide = _prefix_width(q)
    words = np.arange(wide // 8)

    def refine(lags: np.ndarray, keep: np.ndarray, floor: int):
        """(value, lags, M) of the best prefix window [0, M) among the rows
        `keep` of `lags`, the rows of the last bounds call, made at
        _prefix_width(q) with one free end: the highest |S_M| that reaches
        `floor`, then the first row, then the shortest M; (-1, None, None)
        if none does.  Inside a block, every prefix sum lies within the
        block's positive mass above the sum before it, and within that
        mass below the sum after it, so only the blocks where one of these
        reaches the floor are summed position by position, from the packed
        masks' bytes, about _CHUNK_CELLS // 8 positions at a time."""
        rows, blocks = len(lags), -(-q // wide)
        sums = scratch("sums", (rows, blocks + 1), np.int64)
        reach = scratch("spare", (rows, blocks + 1), np.int64)[:, :blocks]
        np.negative(sums[:, 1:], out=reach)
        np.maximum(reach, sums[:, :-1], out=reach)
        reach += scratch("pos", (rows, blocks), np.int64)
        hit = np.greater_equal(reach, floor, out=scratch("hit", (rows, blocks), bool))
        hit[~keep] = False
        found, best = np.flatnonzero(hit), (-1, None, None)
        step = max(1, _CHUNK_CELLS // 8 // wide)
        for lo in range(0, len(found), step):
            row, block = np.divmod(found[lo : lo + step], blocks)
            # the best so far comes first: only a higher value displaces it
            higher = reach[row, block] > best[0]
            row, block = row[higher], block[higher]
            if not len(row):
                continue
            # each hit's block of m(. + d): bytes [d // 8 + block * wide / 8,
            # ...) of shifted[d % 8], unpacked to (hit, position) in order
            start = block[:, None] * (wide // 8) + words
            members = None
            for d in lags[row].T[:, :, None]:
                part = np.unpackbits(shifted[d % 8, start + d // 8], axis=1)
                members = part if members is None else np.add(members, part, out=members)
            s = np.cumsum(products[members], axis=1)
            s += sums[row, block][:, None]
            np.abs(s, out=s)
            s[block == blocks - 1, q - (blocks - 1) * wide :] = -1  # past the period
            top = int(np.argmax(s))
            if s.flat[top] > best[0]:
                i, m = divmod(top, wide)
                lagged = tuple(int(d) for d in lags[row[i]])
                best = int(s.flat[top]), lagged, int(block[i]) * wide + m + 1
        return best

    return bounds, refine


def _cyclic_best(sums: np.ndarray, run: np.ndarray | None = None) -> np.ndarray:
    """Per row, the largest |sum| over all cyclic windows of one period;
    `run`, if given, an array of the shape of `sums` that takes the running
    extremes.

    With U and D the largest drawup and drawdown of S_0, ..., S_q and
    Tot = S_q, windows that do not wrap reach max(U, D).  A window that
    wraps is the complement of one that does not, so its sum is Tot minus
    a value in [-D, U]: it reaches |Tot - U| or |Tot + D|.
    """
    total = sums[:, -1]
    run = np.minimum.accumulate(sums, axis=1, out=run)
    up = np.subtract(sums, run, out=run).max(axis=1)
    np.maximum.accumulate(sums, axis=1, out=run)
    down = np.subtract(run, sums, out=run).max(axis=1)
    return np.maximum.reduce([up, down, np.abs(total - up), np.abs(total + down)])


def _prefix_best(sums: np.ndarray) -> np.ndarray:
    """Per row, the largest |sum| over the windows [0, M)."""
    return np.maximum(sums.max(axis=1), -sums.min(axis=1))


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


def _best_row(rset, k, blocks, ends: int, floor: int = 0):
    """(value, lags, witness) of the best lag tuple over the blocks: the
    highest value, then the first in block order; (-1, None, None) if no
    row reaches `floor`.  Windows have `ends` free ends: with 2 they are
    the cyclic windows and the witness is (start, length), with 1 the
    prefix windows [0, M) and the witness is the shortest M.  Blocks run
    in order, and `floor` rises to the largest value a real window is
    known to reach.

    Where _coarse selects it, rows whose upper bound is below the floor
    are dropped; a row at the maximum never is, and survivors keep their
    order.  Prefix windows are finished from the block sums at
    _prefix_width(q), where the narrower widths do not pay; cyclic ones
    are bounded at every width of _COARSE_WIDTHS,
    then go to the full kernel, and the witness is read from its prefix
    sums.  _coarse packs its masks once, here; the kernel is built when a
    row first reaches it.  The scan owns the pass's workspace and gives it
    back only before a kernel call."""
    row_best, witness = (
        (_cyclic_best, _cyclic_witness) if ends == 2 else (_prefix_best, _first_length)
    )
    workspace = {}
    coarse = _coarse(rset, k, workspace)
    prefix_sums = None

    def scan(lags):
        nonlocal floor, prefix_sums
        if coarse is not None:
            bounds, refine = coarse
            for width in _COARSE_WIDTHS if ends == 2 else (_prefix_width(rset.q),):
                lower, upper = bounds(lags, width, ends, floor)
                floor = max(floor, int(lower.max()))
                if ends == 1:
                    found = refine(lags, upper >= floor, floor)
                    floor = max(floor, found[0])
                    return found
                lags = lags[upper >= floor]
                if not len(lags):
                    return -1, None, None
            workspace.clear()  # the kernel's arrays may take this memory
        if prefix_sums is None:
            prefix_sums = _kernel(rset, k)
        sums = prefix_sums(lags)
        best = row_best(sums)
        r = int(np.argmax(best))
        value = int(best[r])
        floor = max(floor, value)
        # a row below the floor is beaten by a real window: no witness
        found = witness(sums[r], value) if value >= floor else None
        return value, tuple(int(d) for d in lags[r]), found

    return max(map(scan, blocks), key=lambda result: result[0])  # first of equals


def _exact_rows(q: int, k: int):
    return _representatives(q, k, max(1, _CHUNK_CELLS // q))


def correlation_exact(
    rset: ResidueSet,
    k: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> CorrelationResult:
    """Exact order-k correlation from one lag tuple per translation class
    (see _representatives), each maximized over all cyclic windows.

    Work is at most exact_cost(q, k) cells; requests above the budget are
    refused with that estimate attached.  The witness is the first
    maximizing representative, its window with the lowest start, then the
    shortest length; its lags are the representative shifted by the start.
    """
    q = rset.q
    validate_correlation(q, k)
    admit(f"correlation_exact(q={q}, k={k})", exact_cost(q, k), budget)
    best, rep, (start, window) = _best_row(rset, k, _exact_rows(q, k), 2)
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
    validate_correlation(q, k)
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
) -> Fraction:
    """max over 1 <= k <= s of the exact order-k correlation value; the s
    scans are admitted together, up_to_cost(q, s), before any runs.  The
    best of the lower orders, in q^k units, is the floor of order k's scan,
    so its rows that cannot pass it skip the full kernel."""
    q = rset.q
    validate_correlation(q, s)
    admit(f"correlation_up_to(q={q}, s={s})", up_to_cost(q, s), budget)
    best = 0
    for k in range(1, s + 1):
        floor = best * q
        best, *_ = _best_row(rset, k, _exact_rows(q, k), 2, floor)
        best = max(best, floor)
    return Fraction(best, q**s)


def _sampled_rows(q: int, k: int, samples: int, seed: int, rows: int):
    """Blocks of `rows` sorted int64 lag tuples, `samples` in all: those of
    np.sort(rng.choice(q, k, replace=False)) called `samples` times on
    rng = default_rng(seed), for any `rows`.

    One rng.integers call per block draws the bounds each choice call
    draws, in its order; both share numpy's bounded-integer routine, so
    they consume the stream alike.  Below q = 10^4 or at k <= q // 50,
    choice runs Floyd's algorithm over the bounds q-k, ..., q-1, then
    shuffles its k picks (bounds k-1, ..., 1; sorting drops that order).
    Otherwise it shuffles the tail of range(q) (bounds q-1 down to
    max(q-k, 1)), which selects the set Floyd's algorithm selects from the
    same draw per bound.  So one rule picks both: the draw for bound
    q-k+c, unless an earlier pick of the row equals it, then q-k+c.  That
    costs k^2/2 comparisons a row, within the kernel's k*q cells.
    """
    rng = np.random.default_rng(seed)
    picked = np.arange(q - k, q, dtype=np.int64)  # pick c's bound
    tail = q > 10000 and k > q // 50
    if tail:
        highs = picked[::-1][: min(k, q - 1)]  # no draw for bound 0
    else:
        highs = np.concatenate([picked, np.arange(k - 1, 0, -1)])
    for lo in range(0, samples, rows):
        n = min(rows, samples - lo)
        draws = rng.integers(0, highs, size=(n, len(highs)), endpoint=True)
        if tail:
            lags = np.zeros((n, k), dtype=np.int64)
            lags[:, k - len(highs) :] = draws[:, ::-1]
        else:
            lags = draws[:, :k]
        for c in range(1, k):
            lags[(lags[:, :c] == lags[:, c, None]).any(axis=1), c] = picked[c]
        lags.sort(axis=1)
        yield lags


def correlation_sampled(
    rset: ResidueSet,
    k: int,
    samples: int,
    seed: int,
    *,
    budget: int = DEFAULT_BUDGET,
) -> CorrelationResult:
    """Lower bound on the order-k correlation from sampled lag tuples.

    Draws `samples` uniform lag tuples (with replacement across draws)
    from default_rng(seed): the tuples of `samples` calls of
    sorted(rng.choice(q, k, replace=False)), drawn a block at a time (see
    _sampled_rows).  Each tuple gets its exact max over the windows
    [0, M), M = 1..q, in the exact scan's arithmetic: finished from the
    coarse pass's block sums where it runs, from the count-table kernel
    elsewhere; ties keep the earliest draw, and the window is the shortest.
    Work is samples * q cells; requests above the budget are refused
    before anything is drawn.
    """
    q = rset.q
    validate_correlation(q, k, samples)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    admit("correlation_sampled", samples * q, budget)
    rows = max(1, _CHUNK_CELLS // q)
    if _coarse_selected(q, rset.cardinality, k):
        rows = max(_DRAW_ROWS, rows)
    blocks = _sampled_rows(q, k, samples, seed, rows)
    best, lags, window = _best_row(rset, k, blocks, 1)
    return CorrelationResult(
        k=k,
        value=Fraction(best, q**k),
        window=window,
        lags=lags,
        mode="sampled",
        tuples_examined=samples,
    )
