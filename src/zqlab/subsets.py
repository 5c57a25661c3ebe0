"""Constructions of pseudorandom subsets of Z_q.

The catalog: quadratic residues, d-th power residue preimages of
polynomial values, powers of primitive roots filtered by r-th power
values, discrete-log (index) windows, polynomial value windows, modular
inverse windows, angular windows of character products, Fermat-quotient
preimages in Z_{p^2}, and explicit sets.  Every construction returns a
ResidueSet.  CONSTRUCTIONS maps each kind name to its params, builder,
modulus and predicted cardinality; `construct` builds the set a
JSON-serializable spec names, so experiment configs can name any set in
the catalog.

A kind that filters n by a polynomial f takes the preimage under f of a
target mask over Z_p.  The index-table kinds mark their targets from the
table's `powers` alone; only character-argument sets read its `table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Callable

import numpy as np

from . import numtheory as nt
from .errors import (
    BadWindowError,
    ConstantPolynomialError,
    DegreeTooSmallError,
    EmptyPolynomialError,
    InvalidParameterError,
    NotDivisorError,
    NotSquarefreeError,
    RangeTooLongError,
    TooLargeError,
    UnknownKindError,
)
from .predictions import CardinalityPrediction, DeviationBudget
from .predictions import exact_budget, report_only_budget

# The Fermat-quotient constructions build dense tables over Z_{p^2}.
_FERMAT_TABLE_LIMIT = 2**11

# Per-residue rules run on this many residues at a time, so a build holds
# temporaries of one block beside its bool mask over Z_q.
_BLOCK = 2**16


@dataclass(frozen=True, init=False, eq=False)
class ResidueSet:
    """A subset of Z_q = {0, ..., q-1}, elements strictly increasing.

    Built from any 1-d sequence of integers and backed by `array`, a sorted,
    read-only int64 copy; `elements` is the same set as a tuple of Python
    ints, made on first use.  Every set is validated alike: constructions
    hand the arrays they have just made to `_adopt`, which keeps them
    instead of copying them.
    """

    q: int
    array: np.ndarray

    def __init__(self, q: int, elements):
        # a copy: the caller's array stays theirs, writable and not aliased
        self._freeze(q, self._checked(q, elements).astype(np.int64))

    @classmethod
    def _adopt(cls, q: int, arr: np.ndarray) -> "ResidueSet":
        """The set over `arr`, a fresh array this module made and hands
        over: validated as any input is, then frozen in place, not copied
        where it is already int64."""
        rset = cls.__new__(cls)
        rset._freeze(q, rset._checked(q, arr).astype(np.int64, copy=False))
        return rset

    @staticmethod
    def _checked(q: int, elements) -> np.ndarray:
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        arr = np.asarray(elements)
        if arr.shape == (0,):
            arr = np.empty(0, dtype=np.int64)  # np.asarray(()) is float64
        # Integer dtypes only: floats, bools and objects (ints past 2**64) fail.
        if not (
            arr.ndim == 1
            and arr.dtype.kind in "iu"
            and np.all(arr[1:] > arr[:-1])
            and (arr.size == 0 or 0 <= int(arr[0]) and int(arr[-1]) < min(q, 2**63))
        ):
            raise InvalidParameterError(
                f"elements must be strictly increasing in [0, {q - 1}]"
            )
        return arr

    def _freeze(self, q: int, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other):
        if not isinstance(other, ResidueSet):
            return NotImplemented
        return self.q == other.q and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.q, self.array.tobytes()))

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def cardinality(self) -> int:
        return len(self.array)

    @property
    def density(self) -> Fraction:
        return Fraction(self.cardinality, self.q)

    def __contains__(self, n: int) -> bool:
        return bool(self.member_mask[n % self.q])

    @cached_property
    def member_mask(self) -> np.ndarray:
        """Boolean membership mask over 0 .. q-1 (read-only).  A set built
        from a mask over Z_q keeps that mask, made read-only, from its
        construction (see _elements_from_mask); any other set scatters its
        elements into a new one on first use."""
        mask = np.zeros(self.q, dtype=bool)
        mask[self.array] = True
        mask.setflags(write=False)
        return mask

    def shifted(self, offset: int) -> "ResidueSet":
        """The translate {x + offset mod q : x in this set}."""
        offset %= self.q
        # members at or past q - offset wrap around to the front
        cut = int(np.searchsorted(self.array, self.q - offset))
        wrapped = self.array[cut:] - (self.q - offset)
        members = np.concatenate([wrapped, self.array[:cut] + offset])
        return ResidueSet._adopt(self.q, members)

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "cardinality": self.cardinality,
            "elements": self.array.tolist(),
        }


# ----------------------------------------------------------------------
# Shared per-prime tables.


def _block_mask(q: int, rule: Callable[[np.ndarray], np.ndarray], count=None):
    """A bool mask over Z_q from a rule evaluated on int64 blocks xs.

    xs runs through 0 .. count - 1 (all of Z_q if count is None), _BLOCK
    residues at a time, so a rule's temporaries stay the size of one
    block.  A rule returns either membership, one bool per residue of xs,
    or the residues of Z_q that xs map into the set.
    """
    mask = np.zeros(q, dtype=bool)
    count = q if count is None else count
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        out = rule(np.arange(start, stop))
        if out.dtype == bool:
            mask[start:stop] = out
        else:
            mask[out] = True
    return mask


def _dth_power_mask(p: int, d: int) -> np.ndarray:
    """mask[y] = True iff y is a nonzero d-th power residue mod p."""
    powers = nt.build_index_table(p).powers  # first: it refuses p >= 2^26
    mask = np.zeros(p, dtype=bool)
    mask[powers[::d]] = True  # the g^(dj), with no temporaries
    return mask


def _primitive_root_mask(p: int, s: int = 1) -> np.ndarray:
    """mask[y] = True iff y = g^(sj) with gcd(j, p - 1) = 1: y is the s-th
    power of a primitive root (s divides p - 1).

    As j runs over the units mod p - 1, sj mod p - 1 runs over s times the
    units mod (p - 1)/s, since every unit mod (p - 1)/s lifts to one mod
    p - 1.
    """
    powers = nt.build_index_table(p).powers  # first: it refuses p >= 2^26
    units = np.ones((p - 1) // s, dtype=bool)  # units[t]: t is a unit mod (p-1)/s
    for prime, _ in nt.factorize((p - 1) // s).factors:
        units[::prime] = False
    return _block_mask(p, lambda ts: powers[s * ts[units[ts]]], (p - 1) // s)


def _preimage(p: int, fr, target: np.ndarray) -> np.ndarray:
    """mask[n] = True iff target[f(n)], for f with reduced coefficients fr."""
    return _block_mask(p, lambda xs: target[nt.poly_eval_array(fr, xs, p)])


@lru_cache(maxsize=4)
def _fermat_quotient_table(p: int) -> np.ndarray:
    """Fermat quotients of 0 .. p^2 - 1 as a dense uint16 array (read-only).

    Square and multiply runs over the p - 1 units n < p only: n^(p-2) mod
    p^2 gives n^-1 mod p and q(n).  Every other cell follows from
    q(n + kp) = q(n) - k * n^-1 (mod p), one multiply, subtract and reduce
    each, a block of rows k at a time.  Multiples of p get 0 by convention.
    Values lie below p < 2^11, so 2 bytes a cell.
    """
    if p >= _FERMAT_TABLE_LIMIT:
        raise TooLargeError(
            f"Fermat-quotient tables need p < {_FERMAT_TABLE_LIMIT}, got {p}"
        )
    # products stay below p^4 < 2^44
    n = np.arange(1, p, dtype=np.int64)
    power, base, e = np.ones_like(n), n.copy(), p - 2
    while e:
        if e & 1:
            power = power * base % (p * p)
        base = base * base % (p * p)
        e >>= 1
    inverse = power % p
    quotient = (power * n % (p * p) - 1) // p
    qtab = np.zeros(p * p, dtype=np.uint16)
    rows = qtab.reshape(p, p)  # rows[k, n] is the cell n + kp
    step = max(_BLOCK // p, 1)
    for k in range(0, p, step):
        ks = np.arange(k, min(k + step, p))[:, None]
        rows[k : k + step, 1:] = (quotient - ks * inverse) % p
    qtab.setflags(write=False)
    return qtab


def _checked_poly(f, p: int) -> tuple[int, ...]:
    """Reduce f mod p; empty coefficient lists are refused, the zero
    polynomial comes back as (0,) so vector evaluation stays total."""
    if f is None or len(f) == 0:
        raise EmptyPolynomialError("polynomial needs at least one coefficient")
    return nt.poly_reduce(f, p) or (0,)


def _reduced_nonconstant(f, p: int) -> tuple[int, ...]:
    fr = _checked_poly(f, p)
    if len(fr) <= 1:
        raise ConstantPolynomialError(f"polynomial {tuple(f)} is constant mod {p}")
    return fr


def _require_divisor(name: str, value: int, p: int) -> None:
    if value < 1 or (p - 1) % value != 0:
        raise NotDivisorError(
            f"{name}={value} must be a positive divisor of p-1={p - 1}"
        )


def _require_window(s: int, modulus: int) -> None:
    if not 1 <= s <= modulus - 1:
        raise RangeTooLongError(
            f"window length {s} outside 1 .. {modulus - 1} (mod {modulus})"
        )


def _remainder(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m in place, for int64 x >= 0 and 0 < m < 2^63, as
    x - (x // m) * m: numpy's floor division by a scalar is faster than
    its %."""
    x -= x // m * m
    return x


def _elements_from_mask(q: int, mask: np.ndarray) -> ResidueSet:
    """The set of the residues `mask` marks.  `mask`, a bool mask over Z_q
    that no one else holds, becomes its member_mask, read-only."""
    rset = ResidueSet._adopt(q, np.flatnonzero(mask))
    mask.setflags(write=False)
    rset.__dict__["member_mask"] = mask  # the cached_property's value
    return rset


# ----------------------------------------------------------------------
# Constructions.


def quadratic_residue_set(p: int) -> ResidueSet:
    """The (p-1)/2 nonzero quadratic residues mod the odd prime p."""
    nt._require_odd_prime(p)
    mask = _block_mask(p, lambda h: _remainder(h * h, p), (p + 1) // 2)
    mask[0] = False  # the square of h = 0
    return _elements_from_mask(p, mask)


def primitive_root_set(p: int) -> ResidueSet:
    """All primitive roots of the odd prime p: the euler_phi(p - 1)
    residues g^j with gcd(j, p - 1) = 1."""
    nt._require_odd_prime(p)
    return _elements_from_mask(p, _primitive_root_mask(p))


def power_residue_set(p: int, d: int, f) -> ResidueSet:
    """{n in Z_p : f(n) is a nonzero d-th power residue mod p}.

    Membership is equivalent to f(n)^((p-1)/d) = 1 mod p; it is decided
    here through the index table (f(n) one of the g^(dj)).  Requires
    d | p - 1 and f non-constant and squarefree mod p.
    """
    nt._require_odd_prime(p)
    _require_divisor("d", d, p)
    fr = _reduced_nonconstant(f, p)
    if not nt.poly_is_squarefree(fr, p):
        raise NotSquarefreeError(f"polynomial {tuple(f)} has repeated roots mod {p}")
    power_mask = _dth_power_mask(p, d)  # first: its index table refuses p >= 2^26
    return _elements_from_mask(p, _preimage(p, fr, power_mask))


def primitive_root_power_set(p: int, s: int, r: int, f) -> ResidueSet:
    """{g^s mod p : g a primitive root of p, f(g^s) a nonzero r-th power}."""
    nt._require_odd_prime(p)
    _require_divisor("s", s, p)
    _require_divisor("r", r, p)
    fr = _checked_poly(f, p)
    mask = _primitive_root_mask(p, s)  # first: it refuses p >= 2^26
    mask &= _preimage(p, fr, _dth_power_mask(p, r))
    return _elements_from_mask(p, mask)


def index_range_set(p: int, f, r: int, s: int) -> ResidueSet:
    """{n in Z_p : p does not divide f(n), ind f(n) in a window of length s}.

    The window is the cyclic block {r, r+1, ..., r+s-1} reduced mod p-1,
    indices taken with respect to the smallest primitive root.
    """
    nt._require_odd_prime(p)
    _require_window(s, p)
    r %= p - 1  # the same cyclic window, r now within numpy's int64
    powers = nt.build_index_table(p).powers  # first: it refuses p >= 2^26
    fr = _checked_poly(f, p)
    window = _block_mask(p, lambda js: powers[(js + r) % (p - 1)], s)
    members = _preimage(p, fr, window)
    del window  # before the elements are taken
    return _elements_from_mask(p, members)


def poly_value_range_set(p: int, f, r: int, s: int) -> ResidueSet:
    """{n in Z_p : f(n) mod p lies in the cyclic window {r, ..., r+s-1}}."""
    nt._require_odd_prime(p)
    _require_window(s, p)
    r %= p  # the same cyclic window, r now within numpy's int64
    fr = _checked_poly(f, p)
    if len(fr) - 1 < 2:
        raise DegreeTooSmallError(f"need deg f >= 2 mod {p}, got {tuple(f)}")
    window = _block_mask(p, lambda js: (js + r) % p, s)
    members = _preimage(p, fr, window)
    del window  # before the elements are taken
    return _elements_from_mask(p, members)


def inverse_range_set(p: int, f, r: int, s: int) -> ResidueSet:
    """{n in Z_p : p does not divide f(n), f(n)^-1 in the window {r, ...}}."""
    nt._require_odd_prime(p)
    _require_window(s, p)
    r %= p  # the same cyclic window, r now within numpy's int64
    fr = _checked_poly(f, p)
    if len(fr) - 1 < 1:
        raise DegreeTooSmallError(f"need deg f >= 1 mod {p}, got {tuple(f)}")
    if not nt.poly_is_squarefree(fr, p):
        raise NotSquarefreeError(f"polynomial {tuple(f)} has repeated roots mod {p}")
    powers = nt.build_index_table(p).powers  # first: it refuses p >= 2^26
    # the g^-j whose inverses g^j lie in the window; powers[-j] is g^(p-1-j)
    inverses = _block_mask(p, lambda js: powers[-js][(powers[js] - r) % p < s], p - 1)
    members = _preimage(p, fr, inverses)
    del inverses  # before the elements are taken
    return _elements_from_mask(p, members)


def character_argument_set(
    p: int,
    chi,
    additive_index: int,
    f,
    g,
    alpha: Fraction,
    beta: Fraction,
) -> ResidueSet:
    """{n : gcd(f(n), p) = 1 and the product character's argument falls
    in the angular window [alpha, beta) of the unit circle}.

    The argument of chi(f(n)) * exp(2*pi*i * a*g(n)/p) is the exact
    rational k/order + a*g(n)/p (mod 1), so membership is decided with
    integer arithmetic only.  At least one of chi, the additive part must
    be nontrivial; a nontrivial additive part requires deg g >= 2.  An f
    that is zero mod p is refused: it would leave the set empty.
    """
    nt._require_odd_prime(p)
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not alpha < beta <= alpha + 1:
        raise BadWindowError(f"need alpha < beta <= alpha + 1, got [{alpha}, {beta})")
    if chi is not None and chi.p != p:
        raise InvalidParameterError(f"character lives mod {chi.p}, set asked mod {p}")
    a = additive_index % p
    chi_trivial = chi is None or chi.is_trivial
    if chi_trivial and a == 0:
        raise InvalidParameterError(
            "at least one of the characters must be nontrivial"
        )
    fr = _checked_poly(f, p)
    if fr == (0,):
        raise InvalidParameterError(
            f"polynomial {tuple(f)} is zero mod {p}: no n has gcd(f(n), p) = 1"
        )
    gr = nt.poly_reduce(g if g is not None else (), p)
    if a != 0 and len(gr) - 1 < 2:
        raise DegreeTooSmallError(f"need deg g >= 2 mod {p} for a nontrivial "
                                  f"additive part, got {g}")
    order = 1 if chi_trivial else chi.order
    # built on first use: before the block temporaries, which it outlives
    table = None if chi_trivial else chi.index_table.table
    # theta*scale is an integer in [0, scale) for scale = order*p < 2^52 (order
    # divides p-1), and an integer lies in [alpha*scale, beta*scale) exactly
    # when it lies in [ceil(alpha*scale), ceil(beta*scale)): int64 decides
    # every window, whatever its denominators.
    scale = order * p
    start, stop = math.ceil(alpha * scale), math.ceil(beta * scale)

    def members(xs):
        fvals = nt.poly_eval_array(fr, xs, p)
        theta = np.zeros_like(xs)
        if not chi_trivial:
            theta += (chi.index % order) * table[fvals] % order * p
        if a != 0:
            theta += a * nt.poly_eval_array(gr, xs, p) % p * order
        return (fvals != 0) & ((theta - start % scale) % scale < stop - start)

    return _elements_from_mask(p, _block_mask(p, members))


def fermat_quotient_power_residue_set(p: int, d: int) -> ResidueSet:
    """{n in Z_{p^2} : the Fermat quotient of n is a nonzero d-th power}.

    Cardinality is exactly (p-1)^2 / d: the quotient map is a surjective
    homomorphism from the units of Z_{p^2} onto Z_p, each value hit p-1
    times, and multiples of p (quotient 0 by convention) never qualify.
    """
    nt._require_odd_prime(p)
    _require_divisor("d", d, p)
    qtab = _fermat_quotient_table(p)
    member = _dth_power_mask(p, d)[qtab]
    return _elements_from_mask(p * p, member)


def fermat_quotient_primitive_root_set(p: int) -> ResidueSet:
    """{n in Z_{p^2} : the Fermat quotient of n is a primitive root of p}.

    Cardinality is exactly (p-1) * euler_phi(p-1).
    """
    nt._require_odd_prime(p)
    qtab = _fermat_quotient_table(p)
    member = _primitive_root_mask(p)[qtab]
    return _elements_from_mask(p * p, member)


def explicit_set(q: int, elements) -> ResidueSet:
    """An explicitly listed subset (validated, used for ad-hoc experiments)."""
    return ResidueSet(q, list(elements))


# ----------------------------------------------------------------------
# Predicted cardinalities: exact where the count is an identity; the
# power-residue count carries its explicit asserted sqrt budget (its root
# count by evaluating f over Z_p a block at a time, apart from the set);
# the window and character constructions get report-only budgets with
# unit constants.


def _exact_count(main) -> CardinalityPrediction:
    return CardinalityPrediction(Fraction(main), exact_budget())


def _power_residue_count(p, d, f) -> CardinalityPrediction:
    """(p - z)/d for the z roots of f in Z_p, within the Weil bound.

    The roots are counted by evaluating f at every residue through
    _block_mask, independently of the set the prediction is checked
    against, in temporaries of one block.
    """
    fr = nt.poly_reduce(f, p) or (0,)
    roots = _block_mask(p, lambda xs: nt.poly_eval_array(fr, xs, p) == 0)
    zeros = int(np.count_nonzero(roots))
    budget = DeviationBudget(
        "((d-1)/d) * (deg f - 1) * sqrt(p)",
        True,
        Fraction((d - 1) * (nt.poly_degree(f, p) - 1), d),
        sqrt_arg=p,
    )
    return CardinalityPrediction(Fraction(p - zeros, d), budget)


def _primitive_root_power_count(p, s, r, f) -> CardinalityPrediction:
    cofactor = nt.factorize((p - 1) // s)
    budget = report_only_budget(
        "deg(f) * 2^omega((p-1)/s) * sqrt(p) * log(p)",
        max(nt.poly_degree(f, p), 1) * 2**cofactor.omega,
        p,
    )
    return CardinalityPrediction(Fraction(nt.euler_phi(cofactor), r), budget)


def _window_count(p, f, r, s) -> CardinalityPrediction:
    deg = max(nt.poly_degree(f, p), 1)
    budget = report_only_budget("deg(f) * sqrt(p) * log(p)", deg, p)
    return CardinalityPrediction(Fraction(s), budget)


def _character_argument_count(p, f, alpha, beta, g=None, **_) -> CardinalityPrediction:
    # a zero (or absent) polynomial adds no degree
    degree = sum(max(nt.poly_degree(h, p), 0) for h in (f, g or ()))
    budget = report_only_budget(
        "(deg(f) + deg(g)) * sqrt(p) * log(p)", max(degree, 1), p
    )
    return CardinalityPrediction((beta - alpha) * p, budget)


def _horner_cost(p, f, g=None, **_) -> int:
    """Building a polynomial kind's set takes one pass over Z_p per
    coefficient of f (and of g), and at least one pass."""
    return p * max(len(f or ()) + len(g or ()), 1)


def _character_argument(p, order, additive, f, alpha, beta, char_index=1, g=None):
    chi = None if order == 1 else nt.MultiplicativeCharacter.build(p, order, char_index)
    return character_argument_set(p, chi, additive, f, g, alpha, beta)


# ----------------------------------------------------------------------
# The construction table: one record per kind.  Builders, predictions
# and moduli take the spec's params as keyword arguments.


@dataclass(frozen=True)
class ConstructionKind:
    """A construction kind: its params (some optional), the builder of
    its set, the predicted cardinality, the q the set lives in, and, for
    admission control, the cost of building the set (its q if None; p per
    coefficient for the kinds that evaluate polynomials) and of predicting
    its cardinality (its q if None)."""

    params: set
    build: Callable[..., ResidueSet]
    cardinality: Callable[..., CardinalityPrediction]
    modulus: Callable[..., int] = lambda p, **_: p
    optional: set = frozenset()
    cost: Callable[..., int] | None = None
    prediction_cost: Callable[..., int] | None = None


CONSTRUCTIONS = {
    "explicit": ConstructionKind(
        {"q", "elements"},
        explicit_set,
        lambda q, elements: _exact_count(len(elements)),
        modulus=lambda q, elements: q,
        cost=lambda q, elements: len(elements),
    ),
    "quadratic_residues": ConstructionKind(
        {"p"}, quadratic_residue_set, lambda p: _exact_count(Fraction(p - 1, 2))
    ),
    "power_residues": ConstructionKind(
        {"p", "d", "f"},
        power_residue_set,
        _power_residue_count,  # counts the roots of f as the build does
        cost=_horner_cost,
        prediction_cost=_horner_cost,
    ),
    "primitive_roots": ConstructionKind(
        {"p"},
        primitive_root_set,
        lambda p: _exact_count(nt.euler_phi(nt.factorize(p - 1))),
    ),
    "primitive_root_powers": ConstructionKind(
        {"p", "s", "r", "f"},
        primitive_root_power_set,
        _primitive_root_power_count,
        cost=_horner_cost,
    ),
    "index_range": ConstructionKind(
        {"p", "f", "r", "s"}, index_range_set, _window_count, cost=_horner_cost
    ),
    "poly_value_range": ConstructionKind(
        {"p", "f", "r", "s"}, poly_value_range_set, _window_count, cost=_horner_cost
    ),
    "inverse_range": ConstructionKind(
        {"p", "f", "r", "s"}, inverse_range_set, _window_count, cost=_horner_cost
    ),
    "character_argument": ConstructionKind(
        {"p", "order", "char_index", "additive", "f", "g", "alpha", "beta"},
        _character_argument,
        _character_argument_count,
        optional={"char_index", "g"},
        cost=_horner_cost,
    ),
    "fermat_quotient_power_residues": ConstructionKind(
        {"p", "d"},
        fermat_quotient_power_residue_set,
        lambda p, d: _exact_count(Fraction((p - 1) ** 2, d)),
        modulus=lambda p, **_: p * p,
    ),
    "fermat_quotient_primitive_roots": ConstructionKind(
        {"p"},
        fermat_quotient_primitive_root_set,
        lambda p: _exact_count((p - 1) * nt.euler_phi(nt.factorize(p - 1))),
        modulus=lambda p, **_: p * p,
    ),
}


# ----------------------------------------------------------------------
# Specs: JSON-portable descriptions of constructions.


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidParameterError(f"{where}: expected an integer, got {value!r}")
    return value


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        num, den = _as_int(value["num"], where), _as_int(value["den"], where)
        if den == 0:
            raise InvalidParameterError(f"{where}: zero denominator in {value!r}")
        return Fraction(num, den)
    raise InvalidParameterError(
        f'{where}: expected a rational as {{"num": .., "den": ..}}, got {value!r}'
    )


def _fraction_to_json(value: Fraction) -> dict:
    """The {"num": .., "den": ..} form _as_fraction reads back."""
    return {"num": value.numerator, "den": value.denominator}


def _as_ints(
    value, where: str, what: str = "a coefficient list (lowest degree first)"
) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(_as_int(c, where) for c in value)
    raise InvalidParameterError(f"{where}: expected {what}, got {value!r}")

_PARAM_PARSERS = {
    **dict.fromkeys(("p", "d", "s", "r", "q", "order", "char_index", "additive"),
                    _as_int),
    "elements": partial(_as_ints, what="a list of integers"),
    "f": _as_ints,
    "g": _as_ints,
    "alpha": _as_fraction,
    "beta": _as_fraction,
}


@dataclass(frozen=True)
class ConstructionSpec:
    """A named construction plus its parameters; JSON round-trippable."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in CONSTRUCTIONS:
            raise UnknownKindError(f"unknown construction kind {self.kind!r}")
        allowed, optional = self.record.params, self.record.optional
        given = set(self.params)
        if given - allowed:
            raise InvalidParameterError(
                f"{self.kind}: unexpected params {sorted(given - allowed)}"
            )
        if allowed - optional - given:
            raise InvalidParameterError(
                f"{self.kind}: missing params {sorted(allowed - optional - given)}"
            )

    @property
    def record(self) -> ConstructionKind:
        return CONSTRUCTIONS[self.kind]

    @property
    def modulus(self) -> int:
        """The q of the set this spec constructs."""
        return self.record.modulus(**self.params)

    @property
    def cost(self) -> int:
        """Operations to build the set: its elements if explicit, p per
        polynomial coefficient if it evaluates polynomials, else q."""
        return (self.record.cost or self.record.modulus)(**self.params)

    @property
    def prediction_cost(self) -> int:
        """Operations to predict the set's cardinality: p per coefficient
        of f for power residues, else q."""
        record = self.record
        return (record.prediction_cost or record.modulus)(**self.params)

    @classmethod
    def from_json(cls, obj) -> "ConstructionSpec":
        if not isinstance(obj, dict) or set(obj) != {"kind", "params"}:
            raise InvalidParameterError(
                'construction spec must be {"kind": .., "params": {..}}'
            )
        kind = obj["kind"]
        raw = obj["params"]
        if not isinstance(kind, str) or kind not in CONSTRUCTIONS:
            raise UnknownKindError(f"unknown construction kind {kind!r}")
        if not isinstance(raw, dict):
            raise InvalidParameterError("params must be an object")
        params = {}
        for key, value in raw.items():
            parse = _PARAM_PARSERS.get(key)
            # unknown keys pass through to be rejected by __post_init__
            params[key] = parse(value, f"{kind}.params.{key}") if parse else value
        return cls(kind, params)

    def to_json(self) -> dict:
        out = {}
        for key, value in self.params.items():
            if isinstance(value, Fraction):
                out[key] = _fraction_to_json(value)
            elif isinstance(value, tuple):
                out[key] = list(value)
            else:
                out[key] = value
        return {"kind": self.kind, "params": out}


def construct(spec: ConstructionSpec) -> ResidueSet:
    """Build the set a spec describes."""
    return spec.record.build(**spec.params)
