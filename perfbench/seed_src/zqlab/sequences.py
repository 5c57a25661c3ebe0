"""Sequences derived from a subset of Z_q.

Three derivations: the M-ary sequence of consecutive-element gaps reduced
mod M (symbols 1..M, with M standing in for gaps divisible by M), the
binary sequence flagging gaps below a threshold m, and the plain binary
characteristic (membership) sequence of length q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, TooFewElementsError, UnknownKindError
from .subsets import ResidueSet


@dataclass(frozen=True)
class DerivedSequence:
    """A finite symbol sequence derived from a set, plus its provenance.

    kind is one of "gap_mod", "gap_threshold", "characteristic"; param is
    M, m, or None respectively.  gap_mod symbols live in {1, ..., M},
    binary kinds in {0, 1}.
    """

    kind: str
    param: int | None
    symbols: tuple[int, ...]

    @property
    def alphabet(self) -> tuple[int, ...]:
        if self.kind == "gap_mod":
            return tuple(range(1, self.param + 1))
        return (0, 1)

    def to_json(self) -> dict:
        params = {}
        if self.kind == "gap_mod":
            params["M"] = self.param
        elif self.kind == "gap_threshold":
            params["m"] = self.param
        return {"kind": self.kind, "params": params, "symbols": list(self.symbols)}

    @classmethod
    def from_json(cls, obj) -> "DerivedSequence":
        kind = obj.get("kind")
        params = obj.get("params", {})
        if kind == "gap_mod":
            param = params["M"]
        elif kind == "gap_threshold":
            param = params["m"]
        elif kind == "characteristic":
            param = None
        else:
            raise UnknownKindError(f"unknown sequence kind {kind!r}")
        return cls(kind, param, tuple(int(s) for s in obj["symbols"]))

    def symbols_line(self) -> str:
        """The plain-text form: symbols on one line, space separated."""
        return " ".join(str(s) for s in self.symbols)


def _gaps(rset: ResidueSet) -> np.ndarray:
    if rset.cardinality < 2:
        raise TooFewElementsError(
            f"gap sequences need at least 2 elements, got {rset.cardinality}"
        )
    return np.diff(np.fromiter(rset.elements, dtype=np.int64))


def derive_gap_mod(rset: ResidueSet, M: int) -> DerivedSequence:
    """Gaps between consecutive elements, reduced mod M into {1, ..., M}.

    A gap divisible by M maps to the symbol M, so the alphabet is exactly
    the M nonzero residue representatives.  Length is cardinality - 1.
    """
    if M < 2:
        raise InvalidParameterError(f"gap_mod needs M >= 2, got {M}")
    syms = _gaps(rset) % M
    syms[syms == 0] = M
    return DerivedSequence("gap_mod", M, tuple(int(s) for s in syms))


def derive_gap_threshold(rset: ResidueSet, m: int) -> DerivedSequence:
    """Binary flags: 1 where the gap to the next element is below m."""
    if m < 2:
        raise InvalidParameterError(f"gap_threshold needs m >= 2, got {m}")
    syms = (_gaps(rset) < m).astype(np.int64)
    return DerivedSequence("gap_threshold", m, tuple(int(s) for s in syms))


def derive_characteristic(rset: ResidueSet) -> DerivedSequence:
    """The 0/1 membership sequence of length q (exactly cardinality ones)."""
    syms = rset.member_mask.astype(np.int64)
    return DerivedSequence("characteristic", None, tuple(int(s) for s in syms))
