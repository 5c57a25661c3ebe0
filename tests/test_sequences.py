import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import errors
from zqlab.sequences import (
    DerivedSequence,
    derive_characteristic,
    derive_gap_mod,
    derive_gap_threshold,
)
from zqlab.subsets import ResidueSet, explicit_set, quadratic_residue_set

QR11 = quadratic_residue_set(11)  # {1, 3, 4, 5, 9}, gaps (2, 1, 1, 4)


def test_gap_mod_qr11():
    seq = derive_gap_mod(QR11, 2)
    assert seq.symbols == (2, 1, 1, 2)
    assert seq.kind == "gap_mod"
    assert seq.param == 2
    assert seq.alphabet == range(1, 3)


def test_gap_mod_symbol_range():
    # a gap divisible by M maps to the symbol M, never 0
    seq = derive_gap_mod(explicit_set(20, [0, 3, 9]), 3)
    assert seq.symbols == (3, 3)


def test_gap_mod_larger_modulus():
    seq = derive_gap_mod(QR11, 5)
    assert seq.symbols == (2, 1, 1, 4)


@pytest.mark.parametrize("M", [11, 10**30])
def test_gap_mod_from_modulus_q_on_is_raw_gaps(M):
    # gaps lie in 1..q-1, so no reduction happens, even past int64
    seq = derive_gap_mod(QR11, M)
    assert seq.symbols == (2, 1, 1, 4)
    assert seq.param == M


def test_gap_mod_past_int64_below_every_gap_is_raw_gaps():
    # M = 2^63 exceeds every gap, so no reduction happens, even past int64
    seq = derive_gap_mod(explicit_set(2**64, [0, 5, 9]), 2**63)
    assert seq.symbols == (5, 4)


def test_gap_threshold_qr11():
    seq = derive_gap_threshold(QR11, 2)
    assert seq.symbols == (0, 1, 1, 0)
    assert seq.alphabet == range(2)


def test_gap_threshold_all_ones_when_dense():
    full = explicit_set(5, [0, 1, 2, 3, 4])
    assert derive_gap_threshold(full, 2).symbols == (1, 1, 1, 1)


def test_characteristic_qr11():
    seq = derive_characteristic(QR11)
    assert seq.symbols == (0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 0)
    assert len(seq.symbols) == 11


def test_characteristic_empty_set():
    assert derive_characteristic(explicit_set(4, [])).symbols == (0, 0, 0, 0)


def test_gap_sequences_need_two_elements():
    lonely = explicit_set(9, [4])
    with pytest.raises(errors.TooFewElementsError):
        derive_gap_mod(lonely, 2)
    with pytest.raises(errors.TooFewElementsError):
        derive_gap_threshold(explicit_set(9, []), 2)


def test_gap_mod_requires_modulus_at_least_two():
    with pytest.raises(errors.InvalidParameterError):
        derive_gap_mod(QR11, 1)
    with pytest.raises(errors.InvalidParameterError):
        derive_gap_threshold(QR11, 1)


def test_json_round_trip():
    for seq in (
        derive_gap_mod(QR11, 3),
        derive_gap_threshold(QR11, 2),
        derive_characteristic(QR11),
    ):
        again = DerivedSequence.from_json(seq.to_json())
        assert again == seq
        assert hash(again) == hash(seq)
    assert derive_characteristic(QR11) != QR11.elements  # another type


@pytest.mark.parametrize(
    "obj",
    [
        [2, 1, 1, 2],  # not an object
        {"kind": "gap_mod", "params": {}, "symbols": [2, 1]},  # M missing
        {"kind": "gap_mod", "params": {"M": 0}, "symbols": [2, 1]},  # M < 2
        {"kind": "gap_mod", "params": {"M": 2}, "symbols": [0, 7]},  # not in 1..M
        {"kind": "characteristic", "params": {}, "symbols": [0, 1.0]},  # not int
        {"kind": "gap_mod", "params": {"M": 10**30}, "symbols": [10**25]},  # > int64
    ],
)
def test_from_json_rejects_invalid(obj):
    with pytest.raises(errors.InvalidParameterError):
        DerivedSequence.from_json(obj)


def test_from_json_rejects_unknown_kind():
    with pytest.raises(errors.UnknownKindError, match="unknown sequence kind 'gaps'"):
        DerivedSequence.from_json({"kind": "gaps", "params": {}, "symbols": []})


def test_from_json_huge_alphabet():
    # membership is checked against the alphabet without enumerating it
    M = 10**12
    seq = DerivedSequence.from_json(
        {"kind": "gap_mod", "params": {"M": M}, "symbols": [1, M]}
    )
    assert seq.symbols == (1, M)
    with pytest.raises(errors.InvalidParameterError, match=f"1..{M}"):
        DerivedSequence.from_json(
            {"kind": "gap_mod", "params": {"M": M}, "symbols": [M + 1]}
        )


def test_symbols_line():
    assert derive_gap_mod(QR11, 2).symbols_line() == "2 1 1 2"


sets_with_two = st.integers(min_value=3, max_value=60).flatmap(
    lambda q: st.sets(st.integers(0, q - 1), min_size=2, max_size=q).map(
        lambda els: ResidueSet(q, tuple(sorted(els)))
    )
)


@given(sets_with_two, st.integers(min_value=2, max_value=6))
@settings(max_examples=60)
def test_gap_mod_symbols_in_alphabet(r, M):
    seq = derive_gap_mod(r, M)
    assert len(seq.symbols) == r.cardinality - 1
    assert all(1 <= s <= M for s in seq.symbols)


@given(sets_with_two, st.integers(min_value=2, max_value=6))
@settings(max_examples=60)
def test_gap_threshold_consistent_with_raw_gaps(r, m):
    seq = derive_gap_threshold(r, m)
    els = r.elements
    for i, bit in enumerate(seq.symbols):
        assert bit == (1 if els[i + 1] - els[i] < m else 0)


@given(sets_with_two)
@settings(max_examples=60)
def test_characteristic_sums_to_cardinality(r):
    assert sum(derive_characteristic(r).symbols) == r.cardinality


@given(sets_with_two, st.integers(min_value=2, max_value=6))
@settings(max_examples=60)
def test_gap_mod_consistent_with_raw_gaps(r, M):
    els = r.elements
    assert derive_gap_mod(r, M).symbols == tuple(
        (els[i + 1] - els[i]) % M or M for i in range(len(els) - 1)
    )


def test_a_derived_array_is_kept():
    # every third residue of 2^20: the gaps are made once, reduced in
    # place and kept, so the derivation's peak is the int64 symbols alone
    r = ResidueSet(2**20, np.arange(0, 2**20, 3))
    tracemalloc.start()
    try:
        seq = derive_gap_mod(r, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seq.array.dtype == np.int64 and not seq.array.flags.writeable
    assert seq.symbols[:3] == (1, 1, 1)  # gaps of 3, mod 2
    assert peak < 1.5 * seq.array.nbytes
