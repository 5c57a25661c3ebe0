import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import errors, measures
from zqlab.measures import (
    SignVector,
    _correlation_exact_bigint,
    colex_combinations,
    correlation_exact,
    correlation_oracle,
    correlation_sampled,
    correlation_up_to,
    pattern_counts,
    sign_pattern_count,
    symbol_counts,
)
from zqlab.sequences import DerivedSequence, derive_characteristic, derive_gap_mod
from zqlab.subsets import ResidueSet, explicit_set, quadratic_residue_set

QR11 = quadratic_residue_set(11)

# sets with at least one member and one non-member keep min(T, q-T) >= 1
proper_subsets = st.integers(min_value=4, max_value=24).flatmap(
    lambda q: st.sets(st.integers(0, q - 1), min_size=1, max_size=q - 1).map(
        lambda els: ResidueSet(q, tuple(sorted(els)))
    )
)


class TestSignVector:
    def test_values(self):
        sv = SignVector.from_set(QR11)
        assert list(sv.values) == [-1, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]
        assert sv.plus_count == 5

    def test_empty_and_full(self):
        assert SignVector.from_set(explicit_set(4, [])).plus_count == 0
        assert SignVector.from_set(explicit_set(4, [0, 1, 2, 3])).plus_count == 4


class TestSignPatternCount:
    def test_qr11_pairs(self):
        sv = SignVector.from_set(QR11)
        assert sign_pattern_count(sv, (1, 1)) == 2  # windows at n=3, n=4

    def test_single_window(self):
        sv = SignVector.from_set(QR11)
        pattern = tuple(int(v) for v in sv.values)
        assert sign_pattern_count(sv, pattern) == 1

    def test_length_one(self):
        sv = SignVector.from_set(QR11)
        assert sign_pattern_count(sv, (1,)) == 5
        assert sign_pattern_count(sv, (-1,)) == 6

    def test_validation(self):
        sv = SignVector.from_set(explicit_set(4, [0]))
        with pytest.raises(errors.PatternTooLongError):
            sign_pattern_count(sv, (1,) * 5)
        with pytest.raises(errors.InvalidParameterError):
            sign_pattern_count(sv, ())
        with pytest.raises(errors.InvalidParameterError):
            sign_pattern_count(sv, (1, 0))

    @given(proper_subsets, st.integers(min_value=1, max_value=5))
    @settings(max_examples=80)
    def test_conservation(self, r, s):
        if s > r.q:
            return
        sv = SignVector.from_set(r)
        total = sum(
            sign_pattern_count(sv, pat)
            for pat in itertools.product((-1, 1), repeat=s)
        )
        assert total == r.q - s + 1


class TestPatternCounts:
    def test_symbol_counts(self):
        counts = symbol_counts(derive_gap_mod(QR11, 2))
        assert counts == {1: 2, 2: 2}

    def test_symbol_counts_empty_sequence(self):
        # the length-1 counts: an empty sequence has no window to count
        with pytest.raises(errors.PatternTooLongError):
            symbol_counts(DerivedSequence("characteristic", None, ()))

    def test_qr11_characteristic_pairs(self):
        counts = pattern_counts(derive_characteristic(QR11), 2)
        assert counts[(1, 1)] == 2
        assert sum(counts.values()) == 10

    def test_length_one_matches_symbols(self):
        seq = derive_gap_mod(QR11, 5)
        assert {k[0]: v for k, v in pattern_counts(seq, 1).items()} == dict(
            symbol_counts(seq)
        )

    def test_too_long(self):
        with pytest.raises(errors.PatternTooLongError):
            pattern_counts(derive_characteristic(QR11), 12)
        with pytest.raises(errors.InvalidParameterError):
            pattern_counts(derive_characteristic(QR11), 0)

    @given(proper_subsets, st.integers(min_value=1, max_value=4))
    @settings(max_examples=60)
    def test_conservation_and_marginalization(self, r, ell):
        seq = derive_characteristic(r)
        if ell + 1 > len(seq.symbols):
            return
        counts = pattern_counts(seq, ell + 1)
        assert sum(counts.values()) == len(seq.symbols) - ell
        # summing out the last symbol recovers the shorter counts over
        # the windows that can be extended (all but the final one)
        syms = seq.symbols
        for pat in pattern_counts(seq, ell):
            expect = sum(
                1
                for n in range(len(syms) - ell)
                if syms[n : n + ell] == pat
            )
            got = sum(counts.get(pat + (a,), 0) for a in (0, 1))
            assert got == expect


class TestColexEnumeration:
    def test_order_k2_q4(self):
        rows = colex_combinations(4, 2)
        assert [tuple(r) for r in rows] == [
            (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
        ]

    def test_counts(self):
        for q, k in ((6, 1), (6, 3), (10, 4), (12, 5)):
            rows = colex_combinations(q, k)
            assert rows.shape == (math.comb(q, k), k)
            seen = {tuple(int(x) for x in r) for r in rows}
            assert seen == set(itertools.combinations(range(q), k))

    def test_prefix_property(self):
        small = colex_combinations(8, 3).copy()
        big = colex_combinations(16, 3)
        assert np.array_equal(big[: len(small)], small)


class TestCorrelationExact:
    def test_qr11_order1(self):
        res = correlation_exact(QR11, 1)
        assert res.value == Fraction(19, 11)
        assert res.mode == "exact"
        assert res.tuples_examined == 11
        # the value is attained where reported
        f = [6 if n in QR11 else -5 for n in range(11)]
        total = sum(f[(n + res.lags[0]) % 11] for n in range(res.window))
        assert abs(total) == 19

    def test_singleton_z4(self):
        res = correlation_exact(explicit_set(4, [0]), 1)
        assert res.value == Fraction(3, 4)
        assert res.window == 1
        assert res.lags == (0,)

    def test_argmax_is_attained_order2(self):
        res = correlation_exact(QR11, 2)
        f = [6 if n in QR11 else -5 for n in range(11)]
        total = sum(
            f[(n + res.lags[0]) % 11] * f[(n + res.lags[1]) % 11]
            for n in range(res.window)
        )
        assert Fraction(abs(total), 11**2) == res.value

    def test_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            correlation_exact(QR11, 0)
        with pytest.raises(errors.OrderTooLargeError):
            correlation_exact(explicit_set(4, [0]), 5)

    def test_budget_refusal(self):
        with pytest.raises(errors.BudgetExceededError) as info:
            correlation_exact(quadratic_residue_set(1009), 4)
        assert info.value.estimated_cost == math.comb(1009, 4) * 1009

    def test_budget_can_be_lowered(self):
        with pytest.raises(errors.BudgetExceededError):
            correlation_exact(QR11, 2, budget=100)

    def test_workers_agree(self):
        r = explicit_set(40, sorted({(n * n + 3 * n) % 40 for n in range(40)}))
        a = correlation_exact(r, 2, workers=1)
        b = correlation_exact(r, 2, workers=4)
        assert (a.value, a.window, a.lags) == (b.value, b.window, b.lags)

    def test_json(self):
        res = correlation_exact(explicit_set(4, [0]), 1)
        assert res.to_json() == {
            "k": 1,
            "value": {"num": 3, "den": 4},
            "window": 1,
            "lags": [0],
            "mode": "exact",
            "tuples": 4,
        }


class TestOracleEquivalence:
    def test_qr11_all_small_orders(self):
        for k in (1, 2, 3):
            assert correlation_exact(QR11, k).value == correlation_oracle(QR11, k).value

    def test_oracle_range_guard(self):
        with pytest.raises(errors.TooLargeError):
            correlation_oracle(explicit_set(65, [0]), 1)
        with pytest.raises(errors.TooLargeError):
            correlation_oracle(QR11, 4)

    @given(proper_subsets, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_exact_equals_oracle(self, r, k):
        assert correlation_exact(r, k).value == correlation_oracle(r, k).value

    @given(proper_subsets, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_trivial_bound(self, r, k):
        bound = min(r.cardinality, r.q - r.cardinality)
        assert correlation_exact(r, k).value <= bound


class TestBigintFallback:
    def test_matches_oracle(self):
        r = explicit_set(12, [0, 2, 3, 7, 8])
        f = [12 - 5 if n in r else -5 for n in range(12)]
        for k in (1, 2, 3):
            num, window, lags = _correlation_exact_bigint(f, 12, k)
            assert Fraction(num, 12**k) == correlation_oracle(r, k).value

    @pytest.mark.parametrize("k", [14, 15])
    def test_public_call_finishes_without_int64_headroom(self, monkeypatch, k):
        # 18^(k+1) >= 2^62, so correlation_exact must take the bigint path
        r = explicit_set(18, [0, 1, 4, 6, 7, 11, 12, 15])
        calls = []
        real = measures._correlation_exact_bigint

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(measures, "_correlation_exact_bigint", spy)
        result = correlation_exact(r, k)
        assert len(calls) == 1
        q, t = r.q, r.cardinality
        f = [q - t if n in r else -t for n in range(q)]
        best = 0
        for lags in itertools.combinations(range(q), k):
            total = 0
            for n in range(q):
                total += math.prod(f[(n + d) % q] for d in lags)
                best = max(best, abs(total))
        assert result.value == Fraction(best, q**k)
        witness = sum(
            math.prod(f[(n + d) % q] for d in result.lags)
            for n in range(result.window)
        )
        assert Fraction(abs(witness), q**k) == result.value
        assert result.tuples_examined == math.comb(q, k)


class TestShiftCovariance:
    """C_k agrees on a set and its translate (lags permute mod q)."""

    def test_qr_sets(self):
        for p in (11, 19, 31):
            r = quadratic_residue_set(p)
            for k in (1, 2):
                assert (
                    correlation_exact(r, k).value
                    == correlation_exact(r.shifted(1), k).value
                )

    @given(proper_subsets, st.integers(min_value=1, max_value=2))
    @settings(max_examples=40, deadline=None)
    def test_random_sets(self, r, k):
        shifted = r.shifted(1 + r.q // 3)
        assert correlation_exact(r, k).value == correlation_exact(shifted, k).value


class TestCorrelationUpTo:
    def test_is_max_over_orders(self):
        vals = [correlation_exact(QR11, k).value for k in (1, 2, 3)]
        assert correlation_up_to(QR11, 3) == max(vals)


class TestCorrelationSampled:
    def test_seed_determinism(self):
        r = quadratic_residue_set(43)
        a = correlation_sampled(r, 2, 64, seed=9)
        b = correlation_sampled(r, 2, 64, seed=9)
        assert (a.value, a.window, a.lags) == (b.value, b.window, b.lags)
        assert a.mode == "sampled"
        assert a.tuples_examined == 64

    def test_lower_bounds_exact(self):
        r = quadratic_residue_set(43)
        exact = correlation_exact(r, 2).value
        for seed in range(5):
            assert correlation_sampled(r, 2, 50, seed=seed).value <= exact

    def test_exhaustive_sample_hits_exact(self):
        # 400 draws over the 6 possible pairs in Z_4: every tuple sampled
        r = explicit_set(4, [0, 1])
        assert (
            correlation_sampled(r, 2, 400, seed=0).value
            == correlation_exact(r, 2).value
        )

    def test_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            correlation_sampled(QR11, 1, 0, seed=0)
