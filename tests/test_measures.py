import itertools
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import cli, errors, measures
from zqlab.measures import (
    DEFAULT_BUDGET,
    SignVector,
    correlation_exact,
    correlation_oracle,
    correlation_sampled,
    correlation_up_to,
    pattern_counts,
    sign_pattern_count,
    symbol_counts,
)
from zqlab.sequences import (
    DERIVATIONS,
    DerivedSequence,
    derive_characteristic,
    derive_gap_mod,
)
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


def counter_reference(symbols, length):
    """The counts as a Counter over zipped windows of Python ints."""
    return dict(Counter(zip(*(symbols[i:] for i in range(length)))))


# (kind, param) for every derivation kind; M = 10^12 makes |alphabet|^2
# exceed 2^64, so its length-2 windows take the Python-int codes.
DERIVED = [
    ("gap_mod", 2), ("gap_mod", 3), ("gap_mod", 7), ("gap_mod", 10**12),
    ("gap_threshold", 2), ("gap_threshold", 4), ("characteristic", None),
]


def bits(n):
    """n seeded random bits."""
    return np.random.default_rng(n).integers(0, 2, n).tolist()


def characteristic(symbols):
    return DerivedSequence("characteristic", None, symbols)


# (M, length) with M^length at the edges of the uint16, uint32 and uint64
# codes, gap_mod's alphabet being 1..M
CODE_WIDTH_EDGES = [
    (2**16 - 1, 1), (2**16, 1), (2**16 + 1, 1), (2**8, 2), (2**8 + 1, 2),
    (2**32 - 1, 1), (2**32, 1), (2**32 + 1, 1), (2**16, 2), (2**16 + 1, 2),
    (2**64 - 1, 1), (2**64, 1), (2**64 + 1, 1), (2**32, 2), (2**16, 4),
    (2**32 + 1, 2),
]

two_plus_subsets = st.integers(min_value=3, max_value=60).flatmap(
    lambda q: st.sets(st.integers(0, q - 1), min_size=2, max_size=q).map(
        lambda els: ResidueSet(q, sorted(els))
    )
)


class TestWindowCodes:
    @given(two_plus_subsets, st.sampled_from(DERIVED), st.integers(1, 6))
    @settings(max_examples=300)
    def test_equals_counter_reference(self, r, derivation, length):
        seq = DERIVATIONS[derivation[0]].derive(r, derivation[1])
        if length > len(seq.symbols):
            return
        counts = pattern_counts(seq, length)
        assert counts == counter_reference(seq.symbols, length)
        assert list(counts) == sorted(counts)
        assert all(type(x) is int for pat in counts for x in pat)
        assert all(type(c) is int for c in counts.values())

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_python_int_codes(self, length):
        # gaps 1, 2, 4, 8, ...: every length-l window is distinct; lengths 2
        # and 3 take the Python-int codes, length 1 uint64
        r = explicit_set(2**12, [2**i - 1 for i in range(12)])
        seq = derive_gap_mod(r, 10**12)
        counts = pattern_counts(seq, length)
        assert counts == counter_reference(seq.symbols, length)
        assert len(counts) == len(seq.symbols) - length + 1

    def test_symbols_at_the_top_of_a_huge_alphabet(self):
        M = 10**12
        seq = DerivedSequence("gap_mod", M, [M, 1, M, M, 1])
        assert pattern_counts(seq, 2) == {(1, M): 1, (M, 1): 2, (M, M): 1}

    @given(st.sampled_from(CODE_WIDTH_EDGES), st.data())
    @settings(max_examples=120, deadline=None)
    def test_equals_counter_reference_at_code_width_edges(self, case, data):
        M, length = case
        top = min(M, 2**63 - 1)  # a symbol is an int64
        symbol = st.one_of(st.sampled_from([1, 2, top - 1, top]), st.integers(1, top))
        symbols = data.draw(st.lists(symbol, min_size=length, max_size=40))
        seq = DerivedSequence("gap_mod", M, symbols)
        counts = pattern_counts(seq, length)
        assert counts == counter_reference(seq.symbols, length)
        assert list(counts) == sorted(counts)
        assert all(type(x) is int for pat in counts for x in pat)
        assert all(type(c) is int for c in counts.values())

    @pytest.mark.parametrize(
        "seq, length, dtype, tallied",
        [
            # at most one possible code per window: tallied
            (characteristic(bits(19)), 4, np.uint16, True),  # 16 codes, 16 windows
            (characteristic(bits(16397)), 14, np.uint16, True),
            # 2^16 codes need uint32
            (characteristic(bits(2**16 + 15)), 16, np.uint32, True),
            # more: sorted
            (characteristic(bits(18)), 4, np.uint16, False),  # 16 codes, 15 windows
            (characteristic(bits(900)), 17, np.uint32, False),
            (DerivedSequence("gap_mod", 2**16 - 1, [1, 2**16 - 1, 7]), 1, np.uint16, False),
            (DerivedSequence("gap_mod", 2**16, [1, 2**16, 7]), 1, np.uint32, False),
            (DerivedSequence("gap_mod", 2**32 - 1, [2**32 - 1, 5, 2**32 - 1]), 2,
             np.uint64, False),
            (DerivedSequence("gap_mod", 2**32, [2**32, 5, 2**32]), 2, object, False),
            (DerivedSequence("gap_mod", 2**64 - 1, [1, 2**63 - 1]), 1, np.uint64, False),
            (DerivedSequence("gap_mod", 2**64, [1, 2**63 - 1]), 1, object, False),
        ],
    )
    def test_narrowest_codes_and_branch(self, monkeypatch, seq, length, dtype, tallied):
        calls, bincount, unique = [], np.bincount, np.unique

        def spy(name, fn):
            return lambda codes, **kw: calls.append((name, codes.dtype)) or fn(codes, **kw)

        monkeypatch.setattr(np, "bincount", spy("bincount", bincount))
        monkeypatch.setattr(np, "unique", spy("unique", unique))
        counts = pattern_counts(seq, length)
        assert calls == [("bincount" if tallied else "unique", np.dtype(dtype))]
        assert counts == counter_reference(seq.symbols, length)
        assert list(counts) == sorted(counts)
        assert all(type(x) is int for pat in counts for x in pat)
        assert all(type(c) is int for c in counts.values())

    @pytest.mark.parametrize("p", [11, 101, 1009])
    def test_every_length_on_qr(self, p):
        r = quadratic_residue_set(p)
        for kind, param in DERIVED:
            seq = DERIVATIONS[kind].derive(r, param)
            for length in range(1, min(6, len(seq.symbols)) + 1):
                assert pattern_counts(seq, length) == counter_reference(
                    seq.symbols, length
                )


# (kind, param, longest L) of the tally property: each family M^L fits
# the 2^16 - 1 windows of the shortest sequence, 2^L that of 2^16 + L
TALLIED_FAMILIES = [
    ("characteristic", None, 12), ("gap_threshold", 3, 12),
    ("gap_mod", 2, 12), ("gap_mod", 3, 10), ("gap_mod", 5, 6), ("gap_mod", 16, 3),
]


class TestWindowTally:
    # sequences of 2^16 - 1, 2^16 and 2^16 + L symbols: a tally of one
    # block, of one block at the edge, and of a block and a short tail
    @given(st.sampled_from(TALLIED_FAMILIES), st.data())
    @settings(max_examples=40, deadline=None)
    def test_a_marginal_is_the_pattern_counts(self, family, data):
        kind, param, top = family
        L = data.draw(st.integers(1, top), label="L")
        length = data.draw(st.integers(1, L), label="length")
        size = data.draw(st.sampled_from([2**16 - 1, 2**16, 2**16 + L]), label="size")
        alphabet = DERIVATIONS[kind].alphabet(param)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        weights = rng.dirichlet(np.ones(len(alphabet)))  # some symbols rare
        seq = DerivedSequence(kind, param, rng.choice(alphabet, size, p=weights))
        assert measures.tallied(seq, L) and measures._BLOCK == 2**16
        tally = measures.window_tally(seq, L)
        marginal = tally.marginal(length)
        assert not marginal.flags.writeable
        assert marginal.sum() == size - length + 1
        patterns = itertools.product(alphabet, repeat=length)
        counts = {pat: n for pat, n in zip(patterns, marginal.tolist()) if n}
        assert counts == pattern_counts(seq, length)
        if length == L:
            assert marginal is tally.counts

    def test_blocks_and_tail_against_a_counter(self):
        # 2^17 + 5 symbols: two full blocks of 2^16 windows and a tail
        rng = np.random.default_rng(7)
        seq = DerivedSequence("gap_mod", 3, rng.integers(1, 4, 2**17 + 5))
        tally = measures.window_tally(seq, 6)
        for length in (1, 4, 6):
            assert pattern_counts(seq, length) == counter_reference(
                seq.symbols, length
            )
            dense = tally.marginal(length).tolist()
            patterns = itertools.product(range(1, 4), repeat=length)
            reference = counter_reference(seq.symbols, length)
            assert dense == [reference.get(pat, 0) for pat in patterns]

    def test_an_untallied_family_is_refused(self):
        seq = derive_characteristic(QR11)  # 2^4 codes, 8 windows
        assert measures.tallied(seq, 3) and not measures.tallied(seq, 4)
        with pytest.raises(errors.InvalidParameterError):
            measures.window_tally(seq, 4)
        assert not measures.tallied(seq, 12)  # past the sequence


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

    def test_orders_past_int64_refused(self):
        # above q = 2^23 order-2 sums are Python ints whatever T is, and one
        # row of them runs out of memory: refused before the scan
        r = explicit_set(2**24 + 1, [0, 1])
        scans = (
            lambda: correlation_exact(r, 2, budget=10**30),
            lambda: correlation_sampled(r, 2, 1, seed=0),
            lambda: correlation_up_to(r, 2, budget=10**30),
        )
        for scan in scans:
            with pytest.raises(errors.TooLargeError) as info:
                scan()
            assert str(info.value) == (
                "correlation order 2 needs q <= 8388608, got q=16777217: "
                "its sums outgrow int64"
            )
        measures.validate_correlation(2**24 + 1, 1)  # order-1 sums are int64
        measures.validate_correlation(2**23, 2)

    def test_budget_refusal(self):
        with pytest.raises(errors.BudgetExceededError) as info:
            correlation_exact(quadratic_residue_set(1009), 4)
        # one period per lag tuple with d_1 = 0: C(q-1, k-1) * q cells
        assert info.value.estimated_cost == math.comb(1008, 3) * 1009

    def test_budget_can_be_lowered(self):
        with pytest.raises(errors.BudgetExceededError):
            correlation_exact(QR11, 2, budget=100)

    def test_admit_message(self):
        measures.admit("scan", 10, 10)  # at the budget: admitted
        with pytest.raises(errors.BudgetExceededError) as info:
            measures.admit("scan", 11, 10, "operations")
        assert str(info.value) == "scan needs ~11 operations, budget is 10"
        assert info.value.estimated_cost == 11

    def test_workers_agree(self, tmp_path, capsys):
        # corr accepts --workers and scans on one thread whatever its value
        r = explicit_set(40, sorted({(n * n + 3 * n) % 40 for n in range(40)}))
        config = tmp_path / "c.json"
        params = {"q": 40, "elements": r.array.tolist()}
        config.write_text(json.dumps({"kind": "explicit", "params": params}))
        outputs = []
        for workers in ("1", "4"):
            args = ["corr", "--config", str(config), "-k", "2", "--workers", workers]
            assert cli.main(args) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0] == outputs[1] == correlation_exact(r, 2).to_json()

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
    """The scan on Python ints, where int64 could overflow."""

    def test_matches_oracle(self, monkeypatch):
        # no int64 headroom at all: every order takes the Python-int path
        monkeypatch.setattr(measures, "_INT64_HEADROOM", 0)
        r = explicit_set(12, [0, 2, 3, 7, 8])
        for k in (1, 2, 3):
            assert correlation_exact(r, k).value == correlation_oracle(r, k).value

    def test_products_beyond_int64(self):
        # k = q: the one lag tuple covers all of Z_30, so every product is
        # 15^15 * (-15)^15 = -15^30, far past int64
        r = explicit_set(30, range(15))
        res = correlation_exact(r, 30)
        assert res.value == Fraction(30 * 15**30, 30**30)
        assert (res.window, res.lags) == (30, tuple(range(30)))

    @pytest.mark.parametrize("k", [14, 15, 17])
    def test_public_call_finishes_without_int64_headroom(self, k):
        # T = 8: 3 * 18 * 10^k < 2^62 keeps k = 14 and 15 on int64, although
        # 3 * 18^(k+1) >= 2^62; at k = 17 the sums run on Python ints
        r = explicit_set(18, [0, 1, 4, 6, 7, 11, 12, 15])
        result = correlation_exact(r, k)
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


def brute_force(r, k):
    """max |sum_{n<M} prod_i q f(n + d_i)| over all lag tuples and M, on
    Python ints."""
    q, t = r.q, r.cardinality
    f = [q - t if n in r else -t for n in range(q)]
    best = 0
    for lags in itertools.combinations(range(q), k):
        prods = (math.prod(f[(n + d) % q] for d in lags) for n in range(q))
        best = max(best, *(abs(v) for v in itertools.accumulate(prods)))
    return best


def witness_sum(r, res):
    q, t = r.q, r.cardinality
    f = [q - t if n in r else -t for n in range(q)]
    return sum(math.prod(f[(n + d) % q] for d in res.lags) for n in range(res.window))


# any subset of Z_q, q <= 16, with an order k <= min(5, q)
small_cases = st.integers(min_value=1, max_value=16).flatmap(
    lambda q: st.tuples(
        st.sets(st.integers(0, q - 1), max_size=q).map(
            lambda els: ResidueSet(q, tuple(sorted(els)))
        ),
        st.integers(min_value=1, max_value=min(5, q)),
    )
)


class TestCountTableScan:
    """Properties of the orbit-reduced exact scan and the sampled scan."""

    @pytest.mark.parametrize(
        "r, k",
        [
            # every product fits in int64 (10^18 < 2^63), but the window sums
            # reach 1.84 * 2^63: the int64 rule must pick Python ints
            (explicit_set(20, range(10)), 18),
            (explicit_set(22, range(11)), 18),  # sums up to 9.0 * 2^63
        ],
    )
    def test_near_the_int64_bound_equals_brute_force(self, r, k):
        t = r.cardinality
        assert 3 * r.q * max(t, r.q - t) ** k >= measures._INT64_HEADROOM
        res = correlation_exact(r, k)
        assert res.value == Fraction(brute_force(r, k), r.q**k)
        assert Fraction(abs(witness_sum(r, res)), r.q**k) == res.value

    @given(small_cases, st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_equals_brute_force(self, case, python_ints):
        r, k = case
        with pytest.MonkeyPatch.context() as mp:
            if python_ints:  # no int64 headroom: the Python-int path
                mp.setattr(measures, "_INT64_HEADROOM", 0)
            res = correlation_exact(r, k)
        assert res.value == Fraction(brute_force(r, k), r.q**k)

    @given(small_cases, st.integers(min_value=0, max_value=15))
    @settings(max_examples=60, deadline=None)
    def test_translation_and_complement_invariant(self, case, shift):
        r, k = case
        value = correlation_exact(r, k).value
        assert correlation_exact(r.shifted(shift % r.q), k).value == value
        # f of the complement is -f, so every window sum only changes sign
        rest = tuple(n for n in range(r.q) if n not in r)
        assert correlation_exact(ResidueSet(r.q, rest), k).value == value

    @given(small_cases, st.integers(min_value=1, max_value=40), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_sampled_never_exceeds_exact(self, case, samples, seed):
        r, k = case
        sampled = correlation_sampled(r, k, samples, seed=seed)
        assert sampled.value <= correlation_exact(r, k).value

    @given(small_cases, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_witness_reproduces_value(self, case, sampled):
        r, k = case
        if sampled:
            res = correlation_sampled(r, k, 8, seed=r.q)
        else:
            res = correlation_exact(r, k)
        assert 1 <= res.window <= r.q
        assert list(res.lags) == sorted(set(res.lags))
        assert all(0 <= d < r.q for d in res.lags) and len(res.lags) == k
        assert Fraction(abs(witness_sum(r, res)), r.q**k) == res.value

    def test_representatives_cover_every_translation_class(self):
        def canonical(lags, q):
            return min(tuple(sorted((d + c) % q for d in lags)) for c in range(q))

        for q in range(1, 13):
            for k in range(1, q + 1):
                blocks = list(measures._representatives(q, k, rows=5))
                # full blocks first: _best_row decides the coarse pass on the first
                assert [len(b) for b in blocks[:-1]] == [5] * (len(blocks) - 1)
                assert 1 <= len(blocks[-1]) <= 5
                reps = [tuple(int(d) for d in row) for block in blocks for row in block]
                assert reps == sorted(reps)
                assert len(reps) <= math.comb(q - 1, k - 1)
                assert {canonical(t, q) for t in reps} == {
                    canonical(t, q) for t in itertools.combinations(range(q), k)
                }

    def test_blocks_and_workers_agree(self, monkeypatch):
        r = explicit_set(30, [0, 1, 3, 4, 9, 11, 17, 18, 22, 25, 26])
        whole = correlation_exact(r, 3)
        monkeypatch.setattr(measures, "_CHUNK_CELLS", 90)  # 3 tuples a block
        res = correlation_exact(r, 3)
        assert (res.value, res.window, res.lags) == (whole.value, whole.window, whole.lags)

    def test_cost_model(self):
        assert measures.exact_cost(10007, 2) == 10006 * 10007
        assert measures.exact_cost(18, 14) == math.comb(17, 13) * 18
        # orders outside 1..q are refused by the scan: they cost nothing
        assert measures.exact_cost(0, 1) == measures.exact_cost(5, 0) == 0
        assert measures.exact_cost(5, 6) == 0
        assert measures.up_to_cost(43, 3) == 43 + 42 * 43 + math.comb(42, 2) * 43
        assert measures.up_to_cost(5, 9) == measures.up_to_cost(5, 5)


# primes p = 1 mod 4 from _COARSE_MIN_Q to 400: -1 is a square, so the
# residues are symmetric (R = -R) and many lag tuples tie at the maximum
QR_1_MOD_4 = [
    137, 149, 157, 173, 181, 193, 197, 229, 233, 241, 257, 269, 277, 281, 293,
    313, 317, 337, 349, 353, 373, 389, 397,
]


@st.composite
def coarse_cases(draw):
    """(set, k) in Z_q with q >= _COARSE_MIN_Q, so several blocks and a
    short tail block: quadratic residues mod p = 1 mod 4, arithmetic
    progressions and random sets, or their complements.  q stays at most
    132 at k = 4, 200 at k = 3 and 400 at k = 2, to keep the unpruned
    scans short."""
    k = draw(st.integers(min_value=1, max_value=4))
    top = {2: 400, 3: 200, 4: 132}.get(k, 300)
    kinds = ["progression", "random"] + (["residues"] if k < 4 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "residues":
        q = draw(st.sampled_from([p for p in QR_1_MOD_4 if p <= top]))
        els = set(quadratic_residue_set(q).elements)
    else:
        q = draw(st.integers(min_value=measures._COARSE_MIN_Q, max_value=top))
        if kind == "progression":
            start, step = draw(st.integers(0, q - 1)), draw(st.integers(1, q - 1))
            els = {(start + step * i) % q for i in range(draw(st.integers(1, q - 1)))}
        else:
            els = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=q - 1))
    if draw(st.booleans()):
        els = set(range(q)) - els
    return ResidueSet(q, tuple(sorted(els))), k


# every width a bounds call takes: the cyclic widths and the prefix width
# from _WORD_MIN_Q on
ALL_WIDTHS = (measures._WORD_WIDTH, *measures._COARSE_WIDTHS)


def first_width(q: int, ends: int) -> int:
    """The width a block of rows is bounded at first: the widest cyclic
    width, or the prefix width at q."""
    return measures._COARSE_WIDTHS[0] if ends == 2 else measures._prefix_width(q)


def unpruned(scan):
    """scan() with the coarse pass off: every row goes to the full kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "_COARSE_ORDERS", range(0))
        return scan()


def witness(res):
    return res.value, res.window, res.lags


class TestCoarsePass:
    """The certified block bounds in front of the full kernel."""

    @given(coarse_cases(), st.integers(0, 99), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_equals_unpruned_scan(self, case, seed, draws):
        # however few cells a block spans: the exact order-2 scan's one block
        # of q // 2 rows, or a block of 1 to 8 draws
        r, k = case
        assert (measures._coarse(r, k, {}) is not None) == (k >= 2)
        for scan in (
            lambda: witness(correlation_exact(r, k)),
            lambda: witness(correlation_sampled(r, k, 200, seed=seed)),
            lambda: witness(correlation_sampled(r, k, draws, seed=seed)),
            lambda: correlation_up_to(r, k),
        ):
            assert scan() == unpruned(scan)

    @pytest.mark.parametrize(
        "r, k",
        [
            (quadratic_residue_set(137), 2),
            (explicit_set(131, range(0, 131, 3)), 3),
            (ResidueSet(129, tuple(n for n in range(129) if n * n % 129 < 43)), 4),
            # sparse and dense sets: one sign of P carries most of a block's mass
            (explicit_set(133, [0, 40, 41, 90]), 2),
            (explicit_set(140, [5, 6, 70]), 3),
            (ResidueSet(130, tuple(n for n in range(130) if n % 29)), 3),
        ],
    )
    def test_bounds_hold_on_every_row(self, r, k):
        # the exact scan's rows, and rows whose first lag is not 0, as the
        # sampled scan draws them; under any floor, also where the cyclic
        # prefilter gives rows below it its own bounds
        rows = list(measures._representatives(r.q, k, 1000))
        rows.append((rows[0] + r.q // 3) % r.q)
        (bounds, _), prefix_sums = measures._coarse(r, k, {}), measures._kernel(r, k)
        for lags in rows:
            sums = prefix_sums(lags)
            for row_best, ends in (
                (measures._cyclic_best, 2),
                (measures._prefix_best, 1),
            ):
                best = row_best(sums)
                floors = (0, int(np.median(best)), int(best.max()) + 1)
                for width, floor in itertools.product(ALL_WIDTHS, floors):
                    lower, upper = bounds(lags, width, ends, floor)
                    assert (lower <= best).all() and (best <= upper).all()

    def test_zero_slack_is_caught(self, monkeypatch):
        # q = 257 at k = 2: 128 exact rows of 257 cells, 150 draws, both
        # bounded
        r = quadratic_residue_set(257)
        exact = (Fraction(577783, 257**2), 69, (79, 110))
        assert witness(correlation_exact(r, 2)) == exact
        assert witness(unpruned(lambda: correlation_exact(r, 2))) == exact
        sampled = witness(unpruned(lambda: correlation_sampled(r, 2, 150, seed=1)))
        assert witness(correlation_sampled(r, 2, 150, seed=1)) == sampled
        coarse = measures._coarse

        def zero_slack(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)

            def tight(lags, width, ends, floor):
                lower, _ = bounds(lags, width, ends, floor)
                return lower, lower

            return tight, refine

        # upper bounds without the slack prune rows that reach the maximum
        monkeypatch.setattr(measures, "_coarse", zero_slack)
        assert witness(correlation_exact(r, 2)) != exact
        assert witness(correlation_sampled(r, 2, 150, seed=1)) != sampled

    def test_workers_agree(self, monkeypatch):
        r = quadratic_residue_set(173)
        # 200 rows a block: the bounds run on each
        monkeypatch.setattr(measures, "_CHUNK_CELLS", 173 * 200)

        def scans():
            return (
                witness(correlation_exact(r, 3)),
                witness(correlation_sampled(r, 3, 2000, seed=5)),
                correlation_up_to(r, 3),
            )

        assert scans() == unpruned(scans)

    def test_workers_agree_with_a_short_bounded_last_block(self, monkeypatch):
        # 360 rows a block: the exact scan's 4931 rows end in a block of 251,
        # the 2000 draws in one of 200, so the scan's workspace, grown by a
        # full block, bounds a shorter one
        r = quadratic_residue_set(173)
        monkeypatch.setattr(measures, "_CHUNK_CELLS", 173 * 360)
        widest, coarse = [], measures._coarse

        def counting(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)

            def counted(lags, width, ends, floor):
                if width == first_width(rset.q, ends):
                    widest.append(len(lags))
                return bounds(lags, width, ends, floor)

            return counted, refine

        def scans():
            return (
                witness(correlation_exact(r, 3)),
                witness(correlation_sampled(r, 3, 2000, seed=5)),
            )

        expected = unpruned(scans)
        monkeypatch.setattr(measures, "_coarse", counting)
        assert scans() == expected
        assert widest == [360] * 13 + [251] + [360] * 5 + [200]

    @given(
        coarse_cases().filter(lambda case: case[1] >= 2),
        st.lists(
            st.tuples(
                st.booleans(),  # drawn rows or representatives
                st.integers(1, 300),  # rows
                st.sampled_from(ALL_WIDTHS),
                st.booleans(),  # cyclic or prefix windows
            ),
            min_size=2,
            max_size=8,
        ),
    )
    @settings(max_examples=25, deadline=None)
    def test_a_shared_workspace_equals_fresh_calls(self, case, calls):
        # calls of one `bounds` share its workspace as the rows go up and down:
        # no cell an earlier call wrote may reach a later call's bounds
        r, k = case
        pools = (
            next(measures._representatives(r.q, k, 300)),
            next(measures._sampled_rows(r.q, k, 300, 0, 300)),
        )
        shared, _ = measures._coarse(r, k, {})
        for drawn, rows, width, cyclic in calls:
            lags = pools[drawn][:rows]
            ends = 2 if cyclic else 1
            got = shared(lags, width, ends)
            fresh = measures._coarse(r, k, {})[0](lags, width, ends)
            for a, b in zip(got, fresh):
                np.testing.assert_array_equal(a, b)

    @given(
        coarse_cases().filter(lambda case: case[1] >= 2),
        st.integers(1, 300),  # rows
        st.integers(0, 99),  # which representatives
    )
    @settings(max_examples=30, deadline=None)
    def test_a_shared_lag_0_mask_equals_per_row_masks(self, case, rows, seed):
        # exact rows share the lag-0 mask; one more row whose first lag is
        # not 0 sends the same rows down the per-row path
        r, k = case
        pool = next(measures._representatives(r.q, k, 300))
        picked = np.random.default_rng(seed).random(len(pool)) < 0.5
        lags = pool[picked][:rows] if picked.any() else pool[:1]
        other = np.concatenate([lags, (lags[:1] + 1) % r.q])
        for width in ALL_WIDTHS:
            size = width // 8 * -(-r.q // width)  # bytes of a row's blocks
            for ends in (2, 1):
                shared_ws, per_row_ws = {}, {}
                shared = measures._coarse(r, k, shared_ws)[0](lags, width, ends)
                per_row = measures._coarse(r, k, per_row_ws)[0](other, width, ends)
                # one rotated or ANDed mask fewer a row on the shared path
                assert len(shared_ws["ands"]) == (2**k - 2) * len(lags) * size
                assert len(per_row_ws["ands"]) == (2**k - 1) * len(other) * size
                for a, b in zip(shared, per_row):
                    np.testing.assert_array_equal(a, b[:-1])

    @pytest.mark.parametrize(
        "q, k, drawn", [(10007, 2, False), (1009, 3, True), (1009, 2, True)]
    )
    @pytest.mark.parametrize("width", ALL_WIDTHS)
    def test_a_warm_workspace_allocates_no_block(self, q, k, drawn, width):
        # a block of the scans' size at q; the scan, not the pass, gives
        # the workspace back, so every width stays warm
        rows = measures._CHUNK_CELLS // q
        if drawn:
            lags = next(measures._sampled_rows(q, k, rows, 1, rows))
        else:
            lags = next(measures._representatives(q, k, rows))
        bounds, _ = measures._coarse(quadratic_residue_set(q), k, {})
        blocks = -(-q // width)
        block = len(lags) * blocks * np.dtype(np.int64).itemsize  # one (rows, blocks) int64
        for ends in (2, 1):
            first = bounds(lags, width, ends)
            tracemalloc.start()
            try:
                again = bounds(lags, width, ends)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < block
            for a, b in zip(first, again):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("q", [255, 256])
    def test_small_blocks_take_the_bounds(self, monkeypatch, q):
        # the order-2 scan is one block of q // 2 rows, 127 * 255 cells at
        # q = 255: a selected scan bounds every block, however small
        r = explicit_set(q, range(0, q, 3))
        full = witness(unpruned(lambda: correlation_exact(r, 2)))
        calls, coarse = [], measures._coarse

        def counting(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)
            return lambda lags, *rest: calls.append(len(lags)) or bounds(lags, *rest), refine

        monkeypatch.setattr(measures, "_coarse", counting)
        assert witness(correlation_exact(r, 2)) == full
        assert calls

    def test_a_short_last_block_takes_the_bounds(self, monkeypatch):
        # 4096 draws a block at q = 256: the last block, 10 draws of 256
        # cells, is bounded like the first
        r = explicit_set(256, range(0, 256, 3))
        full = witness(unpruned(lambda: correlation_sampled(r, 2, 4106, seed=3)))
        widest, coarse = [], measures._coarse

        def counting(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)

            def counted(lags, width, ends, floor):
                if width == first_width(rset.q, ends):
                    widest.append(len(lags))
                return bounds(lags, width, ends, floor)

            return counted, refine

        monkeypatch.setattr(measures, "_coarse", counting)
        assert witness(correlation_sampled(r, 2, 4106, seed=3)) == full
        assert widest == [4096, 10]

    @pytest.mark.parametrize("q, k, packs", [(255, 2, 1), (256, 2, 1), (256, 3, 1)])
    def test_masks_packed_once_for_the_first_bounded_block(
        self, monkeypatch, q, k, packs
    ):
        # q = 255 and 256, k = 2 have one block of q // 2 rows; q = 256,
        # k = 3 has three blocks of up to 4096 rows
        r = explicit_set(q, range(0, q, 3))
        full = witness(unpruned(lambda: correlation_exact(r, k)))
        calls, coarse = [], measures._coarse

        def counting(rset, k, workspace):
            calls.append(k)
            return coarse(rset, k, workspace)

        monkeypatch.setattr(measures, "_coarse", counting)
        assert witness(correlation_exact(r, k)) == full
        assert len(calls) == packs

    @pytest.mark.parametrize(
        "r, k, selected",
        [
            (explicit_set(127, range(0, 127, 3)), 3, False),  # under four blocks of 32
            (explicit_set(128, range(0, 128, 3)), 3, True),
            (explicit_set(128, range(0, 128, 3)), 1, False),  # one row
            (explicit_set(128, range(0, 128, 3)), 5, False),  # 2^5 AND terms
            (explicit_set(6000, [0]), 4, False),  # sums on Python ints
        ],
    )
    def test_selection(self, r, k, selected):
        assert (measures._coarse(r, k, {}) is not None) == selected
        if measures.exact_cost(r.q, k) <= DEFAULT_BUDGET:
            res = correlation_exact(r, k)
            assert witness(res) == witness(unpruned(lambda: correlation_exact(r, k)))

    @given(st.sampled_from(measures._COARSE_ORDERS), st.data())
    def test_the_int64_rule_keeps_block_sums_in_int64(self, k, data):
        # _coarse_selected tests only the kernel's rule 3 q m^k < 2^62, m =
        # max(T, q - T).  The block sums' terms need 64 (3 m)^k < 2^63, which
        # depends on m alone, and q >= m: so m runs up to, and past, the
        # largest m that the rule admits, at q = m
        def fits(q, t):
            return measures._sums_dtype(q, t, k) is not object

        top = round((measures._INT64_HEADROOM / 3) ** (1 / (k + 1)))
        while fits(top + 1, 0):
            top += 1
        while not fits(top, 0):
            top -= 1
        m = data.draw(st.one_of(st.just(top), st.integers(1, top + 1)))
        q = data.draw(st.integers(m, 2 * m))
        t = data.draw(st.sampled_from([m, q - m]))
        if fits(q, t):
            assert measures._WORD_WIDTH * (3 * m) ** k < 2**63

    @pytest.mark.parametrize("k", measures._COARSE_ORDERS)
    def test_weighted_block_sums_stay_in_int64_at_the_edge_of_the_rule(self, k):
        # bounds weighs a block's popcounts into its sum and its positive
        # mass in int64, e_0 w_0 + e_1 w_1 + ... + e_k w_k, with e_0 the
        # block length and e_i at most C(k, i) * 64: every partial sum is at
        # most sum_i C(k, i) * 64 * |w_i|.  For q from the pass's least to
        # the largest the int64 rule admits, at the largest M = max(T, q-T)
        # the rule admits at q, that sum, in Python ints, is below 2^63 and
        # within the 64 (3M)^k of _coarse_selected's proof
        def admitted(q, m):
            return measures._sums_dtype(q, q - m, k) is not object

        top = round((measures._INT64_HEADROOM * 2**k / 3) ** (1 / (k + 1)))
        while admitted(top + 1, -(-(top + 1) // 2)):
            top += 1
        while not admitted(top, -(-top // 2)):
            top -= 1
        grid = np.geomspace(measures._COARSE_MIN_Q, top, 300).astype(int).tolist()
        for q in sorted({*grid, top}):
            lo, hi = -(-q // 2), q  # the largest admitted M
            while lo < hi:
                mid = (lo + hi + 1) // 2
                lo, hi = (mid, hi) if admitted(q, mid) else (lo, mid - 1)
            for t in (lo, q - lo):
                largest = max(
                    sum(math.comb(k, i) * 64 * abs(w) for i, w in enumerate(row))
                    for row in measures._weights(q, t, k).tolist()
                )
                assert largest <= 64 * (3 * lo) ** k < 2**63

    @staticmethod
    def counted_scan(monkeypatch, scan):
        """(result, rows bounded at each width, rows sent to the kernel,
        rows given the running extremes of _cyclic_best) of scan()."""
        widths, kernel, extremes = {}, [], []
        coarse, full, cyclic = measures._coarse, measures._kernel, measures._cyclic_best

        def counting(rset, k, workspace):
            pass_ = coarse(rset, k, workspace)
            if pass_ is None:
                return None
            bounds, refine = pass_

            def counted(lags, width, ends, floor):
                widths[width] = widths.get(width, 0) + len(lags)
                return bounds(lags, width, ends, floor)

            return counted, refine

        def counted_kernel(rset, k):
            prefix_sums = full(rset, k)
            return lambda lags: kernel.append(len(lags)) or prefix_sums(lags)

        def counted_extremes(sums, run=None):
            extremes.append(len(sums))
            return cyclic(sums, run)

        monkeypatch.setattr(measures, "_coarse", counting)
        monkeypatch.setattr(measures, "_kernel", counted_kernel)
        monkeypatch.setattr(measures, "_cyclic_best", counted_extremes)
        return scan(), widths, sum(kernel), sum(extremes)

    def test_the_cyclic_prefilter_keeps_every_survivor(self, monkeypatch):
        # rows whose R + |Tot| + 2 slack is below the floor skip the running
        # extremes; the rows each width keeps, the rows sent to the kernel,
        # the values and the witnesses are those of the pass without it
        r = quadratic_residue_set(1009)
        res, widths, kernel, extremes = self.counted_scan(
            monkeypatch, lambda: correlation_exact(r, 3)
        )
        assert witness(res) == (Fraction(15664702957, 1009**3), 778, (16, 559, 752))
        assert widths == {32: 169344, 16: 16647, 8: 1134}
        assert kernel == 126
        assert extremes == 96282  # of the 187,125 rows bounded
        # the order-1 best is the floor of the order-2 scan: 12 of the
        # 5,014 rows bounded need the running extremes
        r = quadratic_residue_set(10007)
        res, widths, kernel, extremes = self.counted_scan(
            monkeypatch, lambda: correlation_up_to(r, 2)
        )
        assert res == Fraction(653386, 10007)
        assert widths == {32: 5003, 16: 11}
        assert (kernel, extremes) == (1, 12)  # the order-1 row; no order-2 row

    def test_lower_orders_seed_the_bound(self, monkeypatch):
        # QR 10007: the order-1 value, 6.5e9 in order-2 units, is above every
        # order-2 row's maximum (5.7e9), so no order-2 row needs the kernel
        rows = []
        kernel = measures._kernel

        def counting(rset, k):
            prefix_sums = kernel(rset, k)
            return lambda lags: rows.append(len(lags)) or prefix_sums(lags)

        monkeypatch.setattr(measures, "_kernel", counting)
        r = quadratic_residue_set(10007)
        assert correlation_up_to(r, 2) == Fraction(653386, 10007)  # order 1
        assert rows == [1]  # the one order-1 row


def old_rule(r, k, samples=None, seed=0):
    """(value, window, lags) by the rule the scans followed when they ran
    the kernel again on the winner: the first row, in block order, at the
    highest |sum| over every row (cyclic windows when exact, prefix windows
    when sampled), its witness from a second kernel call on it alone."""
    q = r.q
    if samples is None:
        blocks, row_best = measures._representatives(q, k, 512), measures._cyclic_best
    else:
        blocks = measures._sampled_rows(q, k, samples, seed, 512)
        row_best = lambda sums: abs(sums).max(axis=1)  # noqa: E731
    prefix_sums = measures._kernel(r, k)
    best, lags = -1, None
    for block in blocks:
        values = row_best(prefix_sums(block))
        i = int(np.argmax(values))
        if values[i] > best:
            best, lags = int(values[i]), tuple(int(d) for d in block[i])
    sums = prefix_sums(np.array([lags]))[0]
    if samples is None:
        start, window = measures._cyclic_witness(sums, best)
        lags = tuple(sorted((d + start) % q for d in lags))
    else:
        window = measures._first_length(sums, best)
    return Fraction(best, q**k), window, lags


class TestWitnessFromTheScan:
    """The scan keeps its winner's prefix sums; the witness is read from
    them, with no second kernel call."""

    @staticmethod
    def scans(r, k, samples, seed, rows=3):
        """Exact and sampled witnesses, in blocks of `rows` rows."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_CHUNK_CELLS", rows * r.q)
            yield None, witness(correlation_exact(r, k))
            yield samples, witness(correlation_sampled(r, k, samples, seed=seed))

    @given(small_cases, st.integers(1, 30), st.integers(0, 99), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_the_old_rule(self, case, samples, seed, python_ints):
        r, k = case
        with pytest.MonkeyPatch.context() as mp:
            if python_ints:  # no int64 headroom: the Python-int path
                mp.setattr(measures, "_INT64_HEADROOM", 0)
            expected = {None: old_rule(r, k), samples: old_rule(r, k, samples, seed)}
            for key, got in self.scans(r, k, samples, seed):
                assert got == expected[key]

    @given(coarse_cases(), st.integers(0, 99))
    @settings(max_examples=10, deadline=None)
    def test_equals_the_old_rule_where_bounded(self, case, seed):
        r, k = case
        assert witness(correlation_exact(r, k)) == old_rule(r, k)
        assert witness(correlation_sampled(r, k, 300, seed=seed)) == old_rule(
            r, k, 300, seed
        )

    @pytest.mark.parametrize("q, k", [(1, 1), (7, 1), (7, 3), (256, 2), (256, 3)])
    @pytest.mark.parametrize("full", [False, True])
    def test_all_ties_keep_the_first_row(self, q, k, full):
        # f = 0 on the empty set and on all of Z_q: every window sums to 0,
        # so the first representative and the first draw win, at length 1;
        # at q = 256, blocks of up to 4096 rows are bounded and every row
        # passes the bounds
        r = explicit_set(q, range(q) if full else [])
        first_draw = tuple(int(d) for d in next(measures._sampled_rows(q, k, 1, 4, 1))[0])
        expected = {None: (0, 1, tuple(range(k))), 5000: (0, 1, first_draw)}
        for key, got in self.scans(r, k, 5000, 4, rows=4096 if q == 256 else 3):
            assert got == expected[key] == old_rule(r, k, key, 4)

    @pytest.mark.parametrize("k, samples", [(2, None), (3, None), (2, 150), (3, 10000)])
    def test_kernel_runs_only_on_survivors(self, monkeypatch, k, samples):
        # QR 257: every block (k = 3 has three of up to 4080 rows) is
        # bounded at every width; the survivors of sampled rows are finished
        # from the block sums
        r = quadratic_residue_set(257)
        expected = old_rule(r, k, samples, seed=1)
        events, coarse, kernel = [], measures._coarse, measures._kernel

        def bounded(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)

            def recorded(lags, width, ends, floor):
                events.append((width, lags.tolist()))
                return bounds(lags, width, ends, floor)

            def refined(lags, keep, floor):
                events.append(("refine", lags[keep].tolist()))
                return refine(lags, keep, floor)

            return recorded, refined

        def counted(rset, k):
            prefix_sums = kernel(rset, k)
            return lambda lags: events.append(("kernel", lags.tolist())) or prefix_sums(lags)

        monkeypatch.setattr(measures, "_coarse", bounded)
        monkeypatch.setattr(measures, "_kernel", counted)
        if samples is None:
            res = correlation_exact(r, k)
        else:
            res = correlation_sampled(r, k, samples, seed=1)
        assert witness(res) == expected
        final, never = ("kernel", "refine") if samples is None else ("refine", "kernel")
        calls = [i for i, (what, _) in enumerate(events) if what == final]
        assert calls  # the maximum reaches the kernel, or the refinement
        assert all(what != never for what, _ in events)
        # the kernel right after the narrowest bounds of its block, the
        # refinement right after the bounds at the prefix width, on
        # survivors of them, in their order
        last = measures._COARSE_WIDTHS[-1] if samples is None else first_width(r.q, 1)
        for i in calls:
            width, rows = events[i - 1]
            assert width == last
            survivors = iter(rows)
            assert all(row in survivors for row in events[i][1])

    def test_one_kernel_call_per_unbounded_block(self, monkeypatch):
        # q = 30 is below _COARSE_MIN_Q: every block goes to the kernel whole
        r = explicit_set(30, [0, 1, 3, 4, 9, 11, 17, 18, 22, 25, 26])
        expected = old_rule(r, 3), old_rule(r, 3, 40, seed=2)
        monkeypatch.setattr(measures, "_CHUNK_CELLS", 90)  # 3 rows a block
        rows, kernel = [], measures._kernel

        def counted(rset, k):
            prefix_sums = kernel(rset, k)
            return lambda lags: rows.append(len(lags)) or prefix_sums(lags)

        monkeypatch.setattr(measures, "_kernel", counted)
        assert witness(correlation_exact(r, 3)) == expected[0]
        assert rows == [len(b) for b in measures._representatives(30, 3, 3)]
        rows.clear()
        assert witness(correlation_sampled(r, 3, 40, seed=2)) == expected[1]
        assert rows == [3] * 13 + [1]


@st.composite
def drawn_cases(draw):
    """(set, k) with q from 128 to 600 (k = 2; 400 at k = 3, 250 at k = 4):
    quadratic residues mod p = 1 mod 4 (many tied rows), progressions,
    random sets, the empty set and all of Z_q (every window sums to 0)."""
    k = draw(st.integers(min_value=2, max_value=4))
    top = {2: 600, 3: 400, 4: 250}[k]
    kind = draw(st.sampled_from(["residues", "progression", "random", "empty", "full"]))
    if kind == "residues":
        q = draw(st.sampled_from([p for p in QR_1_MOD_4 if p <= top]))
        return quadratic_residue_set(q), k
    q = draw(st.integers(min_value=measures._COARSE_MIN_Q, max_value=top))
    if kind == "progression":
        start, step = draw(st.integers(0, q - 1)), draw(st.integers(1, q - 1))
        els = {(start + step * i) % q for i in range(draw(st.integers(1, q - 1)))}
    elif kind == "random":
        els = draw(st.sets(st.integers(0, q - 1), min_size=1, max_size=q - 1))
    else:
        els = range(q) if kind == "full" else ()
    return ResidueSet(q, tuple(sorted(els))), k


def structured_set(kind: str, q: int) -> ResidueSet:
    """An interval, a dense set (all but every 17th residue) or a periodic
    set (residues below 20 mod 64) in Z_q: sets whose block sums are far
    from each other's, and the opposite of a quadratic residue set's."""
    members = {
        "interval": lambda n: n < q // 2,
        "dense": lambda n: n % 17 != 3,
        "periodic": lambda n: n % 64 < 20,
    }[kind]
    return ResidueSet(q, tuple(n for n in range(q) if members(n)))


class TestRefinedPrefixWindows:
    """Sampled rows are finished from the widest block sums, never by the
    full kernel, with the kernel-only scan's values and witnesses."""

    @pytest.mark.parametrize("kind", ["interval", "dense", "periodic"])
    @pytest.mark.parametrize("q, k", [(128, 2), (128, 4), (257, 3), (1000, 2), (4099, 3)])
    @pytest.mark.parametrize("samples, seed", [(1, 0), (40, 1), (700, 2)])
    def test_structured_sets_equal_the_kernel_only_scan(self, kind, q, k, samples, seed):
        r = structured_set(kind, q)
        assert measures._coarse_selected(q, r.cardinality, k)
        got = witness(correlation_sampled(r, k, samples, seed=seed))
        assert got == unpruned(lambda: witness(correlation_sampled(r, k, samples, seed=seed)))

    @given(
        drawn_cases(),
        st.sampled_from([1, 40, 130, 300, 1000, 2500]),  # one or two blocks
        st.integers(0, 2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_the_kernel_only_scan(self, case, samples, seed):
        r, k = case
        got = witness(correlation_sampled(r, k, samples, seed=seed))
        assert got == unpruned(lambda: witness(correlation_sampled(r, k, samples, seed=seed)))

    @given(
        st.sampled_from(measures._COARSE_ORDERS),
        # 14 or 15 blocks of 64 and a tail of 1 or 63 positions: 32-position
        # blocks below the prefix width rule's q, 64-position ones from it
        st.sampled_from([measures._WORD_MIN_Q - measures._WORD_WIDTH, measures._WORD_MIN_Q]),
        st.sampled_from([1, measures._WORD_WIDTH - 1]),
        st.sampled_from(["random", "interval", "dense", "periodic"]),
        st.sampled_from([0.02, 0.5, 0.98]),  # density of a random set
        st.sampled_from([1, 40, 300]),
        st.integers(0, 2**32),
    )
    @settings(max_examples=80, deadline=None)
    def test_both_sides_of_the_width_rule_equal_the_kernel_only_scan(
        self, k, start, tail, kind, density, samples, seed
    ):
        q = start + tail
        wide = start >= measures._WORD_MIN_Q
        assert measures._prefix_width(q) == (64 if wide else 32)
        if kind == "random":
            members = np.random.default_rng(seed).random(q) < density
            r = ResidueSet(q, tuple(np.flatnonzero(members).tolist()))
        else:
            r = structured_set(kind, q)
        got = witness(correlation_sampled(r, k, samples, seed=seed))
        assert got == unpruned(lambda: witness(correlation_sampled(r, k, samples, seed=seed)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_near_the_int64_bound_equals_the_kernel_only_scan(self, seed):
        # 3 q max(T, q-T)^2 is just below 2^62, where block sums and prefix
        # sums reach 1.5e18
        q = 1832030
        r = explicit_set(q, range(0, q, 2))
        t = r.cardinality
        assert 3 * q * max(t, q - t) ** 2 < measures._INT64_HEADROOM
        assert 3 * (q + 1) * (q + 1 - (q + 1) // 2) ** 2 >= measures._INT64_HEADROOM
        assert measures._coarse_selected(q, t, 2)
        got = witness(correlation_sampled(r, 2, 24, seed=seed))
        assert got == unpruned(lambda: witness(correlation_sampled(r, 2, 24, seed=seed)))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ties_across_chunks_keep_the_first_draw(self, monkeypatch, seed):
        # one candidate block a chunk: the even residues mod 256 at k = 3
        # have draws tied at the maximum in later chunks, whose bounds pass
        # the best value found but whose values only equal it
        monkeypatch.setattr(measures, "_CHUNK_CELLS", 64)
        monkeypatch.setattr(measures, "_DRAW_ROWS", 256)  # 2^16 cells a block
        r = explicit_set(256, range(0, 256, 2))
        got = witness(correlation_sampled(r, 3, 600, seed=seed))
        assert got == unpruned(lambda: witness(correlation_sampled(r, 3, 600, seed=seed)))

    def test_draws_at_a_million_skip_the_kernel(self, monkeypatch):
        r = quadratic_residue_set(1000003)
        widths, coarse = [], measures._coarse

        def counting(rset, k, workspace):
            bounds, refine = coarse(rset, k, workspace)

            def counted(lags, width, ends, floor):
                widths.append((len(lags), width))
                return bounds(lags, width, ends, floor)

            return counted, refine

        def kernel(rset, k):
            def prefix_sums(lags):
                raise AssertionError("a q-length row of prefix sums was built")

            return prefix_sums

        monkeypatch.setattr(measures, "_coarse", counting)
        monkeypatch.setattr(measures, "_kernel", kernel)
        tracemalloc.start()
        try:
            res = correlation_sampled(r, 2, 16, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert witness(res) == (
            Fraction(313001856633688, 1000003**2), 523742, (391228, 887827)
        )
        # blocks of _DRAW_ROWS draws, each bounded once, at the prefix width
        assert widths == [(measures._DRAW_ROWS, first_width(r.q, 1))] * (
            16 // measures._DRAW_ROWS
        )
        # below one kernel row's 17 bytes a cell
        assert peak < 17 * r.q


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

    def test_orders_admitted_as_one_sum(self, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("a scan ran before admission")

        monkeypatch.setattr(measures, "_best_row", scan)
        # orders 1..3 at q = 43 cost 43 + 1806 + 37023 cells; each one alone fits
        refused = pytest.raises(
            errors.BudgetExceededError, match=r"correlation_up_to\(q=43, s=3\)"
        )
        with refused as info:
            correlation_up_to(quadratic_residue_set(43), 3, budget=37023)
        assert info.value.estimated_cost == 38872


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

    def test_validation(self, monkeypatch):
        with pytest.raises(errors.InvalidParameterError):
            correlation_sampled(QR11, 1, 0, seed=0)

        def default_rng(seed):
            raise AssertionError("drew before the seed check")

        monkeypatch.setattr(measures.np.random, "default_rng", default_rng)
        with pytest.raises(errors.InvalidParameterError, match="seed must be >= 0"):
            correlation_sampled(QR11, 1, 5, seed=-1)

    def test_budget_refusal_draws_nothing(self, monkeypatch):
        def default_rng(seed):
            raise AssertionError("drew before admission")

        monkeypatch.setattr(measures.np.random, "default_rng", default_rng)
        with pytest.raises(errors.BudgetExceededError) as info:
            correlation_sampled(QR11, 2, 10, seed=0, budget=109)
        assert info.value.estimated_cost == 10 * 11
        with pytest.raises(errors.BudgetExceededError) as info:
            correlation_sampled(quadratic_residue_set(1009), 3, 10**7, seed=0)
        assert info.value.estimated_cost == 10**7 * 1009

    @pytest.mark.parametrize(
        "r, k, samples, seed, value, window, lags",
        [
            (quadratic_residue_set(1009), 3, 200, 5,
             Fraction(8860358434, 1027243729), 973, (357, 610, 925)),
            (quadratic_residue_set(43), 2, 64, 9, Fraction(5069, 1849), 23, (24, 40)),
            # 3 q^(k+1) >= 2^62, but 3 q max(T, q-T)^k < 2^62: int64
            (explicit_set(20, [0, 1, 4, 6, 7, 11, 12, 15, 19]), 13, 30, 2,
             Fraction(1115802127143, 1024 * 10**12), 20,
             (0, 1, 2, 3, 4, 5, 10, 11, 13, 14, 16, 17, 18)),
            # 20 blocks of 1039 draws
            (quadratic_residue_set(1009), 3, 20000, 0,
             Fraction(12715069367, 1027243729), 821, (568, 632, 744)),
        ],
    )
    def test_admitted_results_pinned(self, r, k, samples, seed, value, window, lags):
        # the draws, values and witnesses of inputs the scan always ran
        res = correlation_sampled(r, k, samples, seed=seed)
        assert (res.value, res.window, res.lags) == (value, window, lags)

    @pytest.mark.parametrize(
        "r, k",
        [
            (explicit_set(18, [0, 1, 4, 6, 7, 11, 12, 15]), 17),
            (explicit_set(30, range(15)), 29),  # every product is -15^29
        ],
    )
    def test_python_int_path(self, r, k):
        # 3 * q * max(T, q-T)^k >= 2^62: the sums run on Python ints, like the
        # exact scan
        t = r.cardinality
        assert 3 * r.q * max(t, r.q - t) ** k >= measures._INT64_HEADROOM
        res = correlation_sampled(r, k, 40, seed=3)
        assert res.value <= correlation_exact(r, k).value
        assert Fraction(abs(witness_sum(r, res)), r.q**k) == res.value

    @given(small_cases, st.integers(min_value=1, max_value=20), st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_arithmetic_paths_agree(self, case, samples, seed):
        r, k = case
        fast = correlation_sampled(r, k, samples, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "_INT64_HEADROOM", 0)  # Python ints throughout
            slow = correlation_sampled(r, k, samples, seed=seed)
        assert (fast.value, fast.window, fast.lags) == (slow.value, slow.window, slow.lags)


def choice_rows(q, k, samples, seed):
    """The per-draw oracle: sorted rng.choice(q, k, replace=False), one call a
    draw on one generator."""
    rng = np.random.default_rng(seed)
    rows = [np.sort(rng.choice(q, size=k, replace=False)) for _ in range(samples)]
    return np.array(rows, dtype=np.int64).reshape(samples, k)


def batched_rows(q, k, samples, seed, rows):
    blocks = list(measures._sampled_rows(q, k, samples, seed, rows))
    assert [len(b) for b in blocks[:-1]] == [rows] * (len(blocks) - 1)
    out = np.concatenate(blocks)
    assert out.dtype == np.int64 and out.shape == (samples, k)
    return out


class TestSampledDraws:
    """The block-at-a-time lag draws equal numpy's per-draw choice calls."""

    @given(
        st.one_of(st.integers(1, 3000), st.integers(2**31 - 8, 2**45)).flatmap(
            lambda q: st.tuples(st.just(q), st.integers(1, min(q, 12)))
        ),
        st.integers(1, 40),
        st.integers(0, 2**32),
        st.integers(1, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_the_choice_loop(self, qk, samples, seed, rows):
        q, k = qk
        batched = batched_rows(q, k, samples, seed, rows)
        assert (batched == choice_rows(q, k, samples, seed)).all()

    @pytest.mark.parametrize(
        "q, k",
        [
            # choice runs Floyd's algorithm at q <= 10^4 or k <= q // 50 and
            # shuffles the tail of range(q) beyond
            (10000, 200), (10000, 201), (10001, 200), (10001, 201),
            # k = q, where the tail shuffle draws no bound 0
            (1, 1), (2, 2), (7, 7), (10001, 10001),
            (20050, 402),
        ],
    )
    def test_both_choice_branches(self, q, k):
        for seed in (0, 1):
            assert (batched_rows(q, k, 3, seed, 2) == choice_rows(q, k, 3, seed)).all()

    @pytest.mark.parametrize("q", [2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40, 2**62])
    def test_beyond_32_bits(self, q):
        # draws only: bounds past 2^32 take numpy's 64-bit route in both calls
        for k in (1, 3):
            assert (batched_rows(q, k, 20, 5, 7) == choice_rows(q, k, 20, 5)).all()

    def test_any_split_into_blocks(self):
        rows = [batched_rows(1009, 3, 500, 7, n) for n in (1, 13, 104, 499, 500, 600)]
        assert all((r == rows[0]).all() for r in rows)
        assert (rows[0] == choice_rows(1009, 3, 500, 7)).all()
