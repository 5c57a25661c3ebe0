"""Sequences derived from a subset of Z_q.

Three derivations: the M-ary sequence of consecutive-element gaps reduced
mod M (symbols 1..M, with M standing in for gaps divisible by M), the
binary sequence flagging gaps below a threshold m, and the plain binary
characteristic (membership) sequence of length q.  DERIVATIONS maps each
kind name to its parameter name, builder, alphabet and pattern main term.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import predictions
from .errors import InvalidParameterError, TooFewElementsError, UnknownKindError
from .subsets import _BLOCK, ResidueSet, _remainder


@dataclass(frozen=True, init=False, eq=False)
class DerivedSequence:
    """A finite symbol sequence derived from a set, plus its provenance.

    kind names a DERIVATIONS entry and param is its parameter (M for
    gap_mod, m for gap_threshold, None for characteristic); the symbols
    lie in the kind's alphabet.  They are held in `array`, a read-only
    int64 copy; `symbols` is the same sequence as a tuple of Python ints,
    made on first use.  The derivations hand the arrays they have just
    made to `_adopt`, which keeps them instead of copying them.
    """

    kind: str
    param: int | None
    array: np.ndarray

    def __init__(self, kind: str, param: int | None, symbols):
        try:
            arr = np.array(symbols, dtype=np.int64)
        except OverflowError:
            raise InvalidParameterError(
                f"{kind}: symbols must be below 2**63"
            ) from None
        self._freeze(kind, param, arr)

    @classmethod
    def _adopt(cls, kind: str, param: int | None, arr: np.ndarray):
        """The sequence over `arr`, a fresh array of symbols a derivation
        has made and hands over: frozen in place, not copied where it is
        already int64."""
        seq = cls.__new__(cls)
        seq._freeze(kind, param, arr.astype(np.int64, copy=False))
        return seq

    def _freeze(self, kind: str, param: int | None, arr: np.ndarray) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "param", param)
        object.__setattr__(self, "array", arr)

    def __eq__(self, other):
        if not isinstance(other, DerivedSequence):
            return NotImplemented
        return (self.kind, self.param) == (other.kind, other.param) and (
            np.array_equal(self.array, other.array)
        )

    def __hash__(self):
        return hash((self.kind, self.param, self.array.tobytes()))

    @cached_property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def alphabet(self) -> range:
        return DERIVATIONS[self.kind].alphabet(self.param)

    def to_json(self) -> dict:
        pname = DERIVATIONS[self.kind].param
        params = {pname: self.param} if pname else {}
        return {"kind": self.kind, "params": params, "symbols": self.array.tolist()}

    @classmethod
    def from_json(cls, obj) -> "DerivedSequence":
        """Parse and validate the to_json form (input from outside)."""
        if not isinstance(obj, dict):
            raise InvalidParameterError("sequence must be an object")
        kind, params = obj.get("kind"), obj.get("params", {})
        if not isinstance(kind, str) or kind not in DERIVATIONS:
            raise UnknownKindError(f"unknown sequence kind {kind!r}")
        pname = DERIVATIONS[kind].param
        param = params.get(pname) if pname and isinstance(params, dict) else None
        if pname and not (type(param) is int and param >= 2):
            raise InvalidParameterError(
                f"{kind}.params.{pname}: expected an integer >= 2, got {param!r}"
            )
        alphabet = DERIVATIONS[kind].alphabet(param)
        symbols = obj.get("symbols")
        if not isinstance(symbols, list) or not all(
            type(s) is int and s in alphabet for s in symbols
        ):
            raise InvalidParameterError(
                f"{kind}.symbols: expected a list of symbols in "
                f"{alphabet[0]}..{alphabet[-1]}"
            )
        return cls(kind, param, symbols)

    def symbols_line(self) -> str:
        """The plain-text form: symbols on one line, space separated."""
        return " ".join(map(str, self.array.tolist()))


def _gaps(rset: ResidueSet) -> np.ndarray:
    if rset.cardinality < 2:
        raise TooFewElementsError(
            f"gap sequences need at least 2 elements, got {rset.cardinality}"
        )
    return np.diff(rset.array)


def derive_gap_mod(rset: ResidueSet, M: int) -> DerivedSequence:
    """Gaps between consecutive elements, reduced mod M into {1, ..., M}.

    A gap divisible by M maps to the symbol M, so the alphabet is exactly
    the M nonzero residue representatives.  Length is cardinality - 1.
    """
    if M < 2:
        raise InvalidParameterError(f"gap_mod needs M >= 2, got {M}")
    syms = _gaps(rset)
    if M <= syms.max():  # a gap below M is its own symbol (and M may pass int64)
        # gaps are at least 1: (gap - 1) mod M + 1 is gap mod M, or M for 0
        for start in range(0, len(syms), _BLOCK):
            block = syms[start : start + _BLOCK]  # a view: changed in place
            block -= 1
            _remainder(block, M)
            block += 1
    return DerivedSequence._adopt("gap_mod", M, syms)


def derive_gap_threshold(rset: ResidueSet, m: int) -> DerivedSequence:
    """Binary flags: 1 where the gap to the next element is below m."""
    if m < 2:
        raise InvalidParameterError(f"gap_threshold needs m >= 2, got {m}")
    return DerivedSequence._adopt("gap_threshold", m, _gaps(rset) < m)


def derive_characteristic(rset: ResidueSet) -> DerivedSequence:
    """The 0/1 membership sequence of length q (exactly cardinality ones)."""
    return DerivedSequence("characteristic", None, rset.member_mask)


# ----------------------------------------------------------------------
# The derivation table: one record per kind.  The lambdas look builders and
# main terms up by name at call time, so wrapping one wraps its kind too.


@dataclass(frozen=True)
class DerivationKind:
    """A derivation kind: its parameter's name (None if it has none), its
    builder (rset, param), its alphabet (param; a range, so its size and
    membership cost nothing for any M), the main term of a pattern window
    (pattern, T, q, param), its cost (q) for admission control, beyond
    the set's own, and a bound (q, set_cost) on its length, which the
    analyses reading it are charged for: a gap sequence has T - 1
    symbols, fewer than q and than the set's cost."""

    param: str | None
    derive: Callable[[ResidueSet, int | None], DerivedSequence]
    alphabet: Callable[[int | None], range]
    main_term: Callable
    cost: Callable[[int], int] = lambda q: 0
    length: Callable[[int, int], int] = lambda q, set_cost: min(q, set_cost)


DERIVATIONS = {
    "gap_mod": DerivationKind(
        "M",
        lambda rset, M: derive_gap_mod(rset, M),
        lambda M: range(1, M + 1),
        lambda pat, T, q, M: predictions.gap_mod_pattern_main_term(pat, T, q, M),
    ),
    "gap_threshold": DerivationKind(
        "m",
        lambda rset, m: derive_gap_threshold(rset, m),
        lambda m: range(2),
        lambda pat, T, q, m: predictions.gap_threshold_pattern_main_term(pat, T, q, m),
    ),
    "characteristic": DerivationKind(
        None,
        lambda rset, _: derive_characteristic(rset),
        lambda _: range(2),
        lambda pat, T, q, _: predictions.characteristic_pattern_main_term(pat, T, q),
        cost=lambda q: q,
        length=lambda q, set_cost: q,
    ),
}
