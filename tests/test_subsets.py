import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zqlab.subsets as sub
from zqlab import errors
from zqlab import numtheory as nt
from zqlab.numtheory import MultiplicativeCharacter
from zqlab.subsets import (
    ConstructionSpec,
    ResidueSet,
    _fermat_quotient_table,
    _power_residue_count,
    _primitive_root_mask,
    character_argument_set,
    construct,
    explicit_set,
    fermat_quotient_power_residue_set,
    fermat_quotient_primitive_root_set,
    index_range_set,
    inverse_range_set,
    poly_value_range_set,
    power_residue_set,
    primitive_root_power_set,
    primitive_root_set,
    quadratic_residue_set,
)

subsets = st.integers(min_value=2, max_value=80).flatmap(
    lambda q: st.sets(st.integers(0, q - 1), max_size=q).map(
        lambda els: ResidueSet(q, tuple(sorted(els)))
    )
)


class TestResidueSet:
    def test_basic(self):
        r = ResidueSet(10, (1, 4, 7))
        assert r.cardinality == 3
        assert r.density == Fraction(3, 10)
        assert 4 in r and 5 not in r
        assert 14 in r  # membership is mod q

    def test_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            ResidueSet(10, (4, 1))  # not sorted
        with pytest.raises(errors.InvalidParameterError):
            ResidueSet(10, (1, 1))  # duplicate
        with pytest.raises(errors.InvalidParameterError):
            ResidueSet(10, (10,))
        with pytest.raises(errors.InvalidParameterError):
            ResidueSet(0, ())

    @pytest.mark.parametrize(
        "q, elements",
        [
            (10, (-1, 3)),  # negative
            (10, (1.0, 2.0)),  # float
            (10, (1, 2.5)),
            (10, ("1",)),
            (10, [[1, 2]]),  # not 1-d
            (10, [[]]),
            (10, (True,)),
            (2**70, (2**63,)),  # uint64, past int64
            (2**70, (2**65,)),  # object dtype
        ],
    )
    def test_invalid_elements(self, q, elements):
        with pytest.raises(errors.InvalidParameterError):
            ResidueSet(q, elements)

    def test_empty_set_is_int64(self):
        for elements in ((), [], np.array([])):
            r = ResidueSet(5, elements)
            assert r.array.dtype == np.int64 and r.cardinality == 0
            assert r.elements == () and r.to_json()["elements"] == []
            assert not r.member_mask.any()

    def test_array_backing(self):
        source = np.array([1, 4, 7], dtype=np.int32)
        r = ResidueSet(10, source)
        assert r.array.dtype == np.int64 and not r.array.flags.writeable
        assert source.flags.writeable  # the input is copied, not frozen
        assert r == ResidueSet(10, (1, 4, 7)) == explicit_set(10, range(1, 10, 3))
        assert hash(r) == hash(ResidueSet(10, [1, 4, 7]))
        assert r != ResidueSet(11, (1, 4, 7)) and r != ResidueSet(10, (1, 4))
        assert r != (1, 4, 7)  # another type

    def test_a_callers_int64_array_is_copied(self):
        # already int64, so only the copy keeps it apart from the set
        source = np.array([1, 4, 7], dtype=np.int64)
        r = ResidueSet(10, source)
        assert source.flags.writeable and not r.array.flags.writeable
        assert not np.shares_memory(source, r.array)
        source[0] = 0
        assert r.elements == (1, 4, 7)

    def test_a_module_built_array_is_kept(self):
        # q = 2^20, every third residue: the flatnonzero array is the only
        # copy of the elements the build holds at its peak
        mask = np.zeros(2**20, dtype=bool)
        mask[::3] = True
        tracemalloc.start()
        try:
            r = sub._elements_from_mask(len(mask), mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.elements == tuple(range(0, 2**20, 3))
        assert not r.array.flags.writeable
        assert peak < 1.5 * r.array.nbytes

    def test_adopt_validates(self):
        for q, arr in ((10, np.array([4, 1])), (10, np.array([10])), (0, np.array([]))):
            with pytest.raises(errors.InvalidParameterError):
                ResidueSet._adopt(q, arr)

    def test_python_ints_out(self):
        r = quadratic_residue_set(101)
        out = r.to_json()
        assert all(type(x) is int for x in r.elements)
        assert all(type(x) is int for x in out["elements"])
        assert type(out["cardinality"]) is int
        json.dumps(out)
        with pytest.raises(TypeError):
            json.dumps(r.array[0])  # why the tuple and lists exist

    def test_shifted(self):
        r = ResidueSet(10, (8, 9))
        assert r.shifted(1).elements == (0, 9)
        assert r.shifted(10).elements == r.elements

    def test_mask_matches_elements(self):
        r = ResidueSet(7, (0, 3, 5))
        assert list(np.flatnonzero(r.member_mask)) == [0, 3, 5]

    def test_json_round_trip(self):
        r = explicit_set(12, [0, 5, 11])
        spec = ConstructionSpec("explicit", {"q": 12, "elements": (0, 5, 11)})
        assert construct(spec).elements == r.elements
        assert r.to_json() == {"q": 12, "cardinality": 3, "elements": [0, 5, 11]}


class TestQuadraticResidues:
    def test_mod_11(self):
        assert quadratic_residue_set(11).elements == (1, 3, 4, 5, 9)

    def test_mod_7(self):
        assert quadratic_residue_set(7).elements == (1, 2, 4)

    def test_cardinality(self):
        for p in (13, 101, 10007):
            assert quadratic_residue_set(p).cardinality == (p - 1) // 2

    def test_rejects_non_odd_prime(self):
        with pytest.raises(errors.NotPrimeError):
            quadratic_residue_set(10)
        with pytest.raises(errors.NotPrimeError):
            quadratic_residue_set(2)


class TestPowerResidues:
    def test_cubes_mod_7(self):
        assert power_residue_set(7, 3, (0, 1)).elements == (1, 6)

    def test_d2_matches_quadratic(self):
        for p in (11, 13, 43):
            assert power_residue_set(p, 2, (0, 1)).elements == quadratic_residue_set(p).elements

    def test_shifted_argument(self):
        # f(x) = x^2 + 1 at n=0 gives 1, a square mod 13
        assert 0 in power_residue_set(13, 2, (1, 0, 1))

    def test_errors(self):
        with pytest.raises(errors.NotDivisorError):
            power_residue_set(7, 4, (0, 1))
        with pytest.raises(errors.ConstantPolynomialError):
            power_residue_set(7, 3, (5,))
        with pytest.raises(errors.NotSquarefreeError):
            power_residue_set(7, 3, (0, 0, 1))
        with pytest.raises(errors.EmptyPolynomialError):
            power_residue_set(7, 3, ())


class TestPrimitiveRootPowers:
    def test_reduces_to_primitive_roots(self):
        assert primitive_root_power_set(7, 1, 1, (0, 1)).elements == (3, 5)
        assert primitive_root_set(7).elements == (3, 5)

    # every odd prime below 200, a sweep prime, and one near 10^6
    @pytest.mark.parametrize(
        "p", [p for p in range(3, 200) if nt.is_prime(p)] + [30011, 1000003]
    )
    def test_s_and_r_one_is_the_primitive_root_set(self, p):
        rset = primitive_root_power_set(p, 1, 1, [0, 1])
        assert rset == primitive_root_set(p)
        assert rset.cardinality == nt.euler_phi(nt.factorize(p - 1))

    # p - 1 = 2^8 has one prime factor; 12889 - 1 = 2^3 * 3^2 * 179
    @pytest.mark.parametrize("p", [3, 5, 7, 101, 257, 10007, 12889, 30011])
    def test_mask_follows_the_gcd_rule(self, p):
        table = nt.build_index_table(p).table
        expected = np.gcd(table, p - 1) == 1
        expected[0] = False
        np.testing.assert_array_equal(_primitive_root_mask(p), expected)

    def test_squares_of_roots(self):
        assert primitive_root_power_set(7, 2, 1, (0, 1)).elements == (2, 4)

    @given(
        st.sampled_from([p for p in range(3, 120) if nt.is_prime(p)]),
        st.data(),
    )
    def test_equals_powers_of_roots(self, p, data):
        divisors = nt.factorize(p - 1).divisors()
        s, r = data.draw(st.sampled_from(divisors)), data.draw(st.sampled_from(divisors))
        f = data.draw(st.lists(st.integers(-p, 2 * p), min_size=1, max_size=4))
        g = nt.find_primitive_root(p)
        xs = {pow(g, s * j, p) for j in range(1, p) if np.gcd(j, p - 1) == 1}
        expected = sorted(
            x for x in xs
            if (v := nt.poly_eval_mod(f, x, p)) and pow(v, (p - 1) // r, p) == 1
        )
        assert primitive_root_power_set(p, s, r, f).elements == tuple(expected)

    def test_square_filter_empty(self):
        # no primitive root mod 5 is itself a square
        assert primitive_root_power_set(5, 1, 2, (0, 1)).elements == ()

    def test_divisor_checks(self):
        with pytest.raises(errors.NotDivisorError):
            primitive_root_power_set(7, 4, 1, (0, 1))
        with pytest.raises(errors.NotDivisorError):
            primitive_root_power_set(7, 1, 5, (0, 1))


class TestIndexRange:
    def test_mod_5(self):
        assert index_range_set(5, (0, 1), 0, 2).elements == (1, 2)

    def test_full_window(self):
        assert index_range_set(5, (0, 1), 0, 4).elements == (1, 2, 3, 4)

    def test_mod_7(self):
        assert index_range_set(7, (0, 1), 1, 3).elements == (2, 3, 6)

    def test_cardinality_is_exactly_s_for_identity(self):
        for p in (101, 1009, 9973):
            for s in (1, 17, (p - 1) // 2, p - 1):
                assert index_range_set(p, (0, 1), 5, s).cardinality == s

    def test_wraparound_window(self):
        # window of length 2 starting at r = p-2 wraps past p-1
        r = index_range_set(7, (0, 1), 5, 2)
        g_pows = {pow(3, j, 7): j for j in range(6)}
        assert all(g_pows[n] in (5, 0) for n in r.elements)

    def test_window_too_long(self):
        with pytest.raises(errors.RangeTooLongError):
            index_range_set(7, (0, 1), 0, 7)
        with pytest.raises(errors.RangeTooLongError):
            index_range_set(7, (0, 1), 0, 0)


class TestPolyValueRange:
    def test_zero_window(self):
        assert poly_value_range_set(7, (0, 0, 1), 0, 1).elements == (0,)

    def test_squares_window(self):
        assert poly_value_range_set(7, (0, 0, 1), 1, 2).elements == (1, 3, 4, 6)

    def test_quadratic_with_linear_term(self):
        assert poly_value_range_set(5, (0, 1, 1), 2, 1).elements == (1, 3)

    def test_degree_check(self):
        with pytest.raises(errors.DegreeTooSmallError):
            poly_value_range_set(7, (0, 1), 0, 2)
        with pytest.raises(errors.DegreeTooSmallError):
            poly_value_range_set(7, (3, 7, 14), 0, 2)  # degenerates mod 7


class TestInverseRange:
    def test_single_value(self):
        assert inverse_range_set(7, (0, 1), 1, 1).elements == (1,)

    def test_window(self):
        assert inverse_range_set(7, (0, 1), 2, 2).elements == (4, 5)

    def test_shifted_poly(self):
        assert inverse_range_set(5, (1, 1), 2, 1).elements == (2,)

    def test_excludes_poly_zeros(self):
        # f(x) = x vanishes at 0; 0 never a member even with full window
        r = inverse_range_set(7, (0, 1), 0, 6)
        assert 0 not in r.elements

    def test_squarefree_check(self):
        with pytest.raises(errors.NotSquarefreeError):
            inverse_range_set(7, (0, 0, 1), 0, 2)

    def test_equals_per_n_inverses(self):
        rng = random.Random(11)
        for p in filter(nt.is_prime, range(3, 300, 2)):
            f = ()
            while nt.poly_degree(f, p) < 1 or not nt.poly_is_squarefree(f, p):
                f = tuple(rng.randrange(-p, 2 * p) for _ in range(rng.randint(2, 4)))
            r, s = rng.randrange(-p, 2 * p), rng.randint(1, p - 1)
            expect = tuple(
                n for n in range(p)
                if (fn := nt.poly_eval_mod(f, n, p))
                and (pow(fn, -1, p) - r) % p < s
            )
            assert inverse_range_set(p, f, r, s).elements == expect, (p, f, r, s)


@st.composite
def polys_with_roots(draw, p):
    """Coefficients of (x - a_1) ... (x - a_k) h(x), k >= 1, unreduced."""
    f = draw(st.lists(st.integers(-p, 2 * p), min_size=1, max_size=3))
    for a in draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=3)):
        f = [(f[i - 1] if i else 0) - a * (f[i] if i < len(f) else 0)
             for i in range(len(f) + 1)]
    return f


PRIMES_BELOW_300 = [p for p in range(3, 300) if nt.is_prime(p)]


class TestDefinitionsOnPythonInts:
    """index_range and power_residues against their definitions: the
    discrete log by a pow loop, and Euler's criterion."""

    @given(
        st.sampled_from(PRIMES_BELOW_300).flatmap(
            lambda p: st.tuples(
                st.just(p),
                polys_with_roots(p),
                st.integers(-3 * p, 3 * p) | st.integers(-(2**80), 2**80),
                st.integers(1, p - 1),
            )
        )
    )
    @settings(max_examples=150)
    def test_index_range(self, args):
        p, f, r, s = args
        g = nt.find_primitive_root(p)
        ind = {pow(g, j, p): j for j in range(p - 1)}
        expect = tuple(
            n for n in range(p)
            if (v := nt.poly_eval_mod(f, n, p)) and (ind[v] - r) % (p - 1) < s
        )
        assert index_range_set(p, f, r, s).elements == expect, (p, f, r, s)

    @given(
        st.sampled_from(PRIMES_BELOW_300).flatmap(
            lambda p: st.tuples(
                st.just(p),
                polys_with_roots(p),
                st.sampled_from(nt.factorize(p - 1).divisors()),
            )
        )
    )
    @settings(max_examples=150)
    def test_power_residues(self, args):
        p, f, d = args
        assume(nt.poly_degree(f, p) >= 1 and nt.poly_is_squarefree(f, p))
        expect = tuple(
            n for n in range(p)
            if (v := nt.poly_eval_mod(f, n, p)) and pow(v, (p - 1) // d, p) == 1
        )
        assert power_residue_set(p, d, f).elements == expect, (p, f, d)


@pytest.mark.parametrize("r", [2**64, -(2**64), 2**63 - 1, -(2**63), 3 * 2**100 + 5])
def test_window_starts_past_int64_are_reduced(r):
    """Every window kind at a start r outside int64 is the set its
    definition gives at r, computed on Python ints."""
    p, s = 13, 4
    ind = nt.build_index_table(p).index_of
    for build, f, member in (
        (index_range_set, (0, 1), lambda v: v and (ind(v) - r) % (p - 1) < s),
        (poly_value_range_set, (1, 0, 1), lambda v: (v - r) % p < s),
        (inverse_range_set, (2, 1), lambda v: v and (pow(v, -1, p) - r) % p < s),
    ):
        expect = tuple(n for n in range(p) if member(nt.poly_eval_mod(f, n, p)))
        assert build(p, f, r, s).elements == expect, (build.__name__, r)


class TestCharacterArgument:
    def test_legendre_recovers_quadratic_residues(self):
        chi = MultiplicativeCharacter.legendre(11)
        r = character_argument_set(
            11, chi, 0, (0, 1), None, Fraction(-1, 4), Fraction(1, 4)
        )
        assert r.elements == quadratic_residue_set(11).elements

    def test_additive_only(self):
        # constant f: no zeros excluded, so n=0 (angle 0) is a member
        r = character_argument_set(
            5, None, 1, (1,), (0, 0, 1), Fraction(0), Fraction(1, 2)
        )
        assert r.elements == (0, 1, 4)

    def test_zeros_of_f_always_excluded(self):
        r = character_argument_set(
            5, None, 1, (0, 1), (0, 0, 1), Fraction(0), Fraction(1, 2)
        )
        assert r.elements == (1, 4)

    def test_full_circle(self):
        chi = MultiplicativeCharacter.legendre(7)
        r = character_argument_set(7, chi, 0, (0, 1), None, Fraction(0), Fraction(1))
        assert r.elements == (1, 2, 3, 4, 5, 6)

    def test_bad_window(self):
        chi = MultiplicativeCharacter.legendre(7)
        with pytest.raises(errors.BadWindowError):
            character_argument_set(7, chi, 0, (0, 1), None, Fraction(1), Fraction(1))
        with pytest.raises(errors.BadWindowError):
            character_argument_set(7, chi, 0, (0, 1), None, Fraction(0), Fraction(3, 2))

    def test_requires_some_nontrivial_character(self):
        with pytest.raises(errors.InvalidParameterError):
            character_argument_set(7, None, 0, (0, 1), None, Fraction(0), Fraction(1, 2))

    def test_additive_needs_quadratic_g(self):
        with pytest.raises(errors.DegreeTooSmallError):
            character_argument_set(7, None, 1, (0, 1), (0, 1), Fraction(0), Fraction(1, 2))

    @pytest.mark.parametrize("f", [(0,), (11,), (0, 22, -11)])
    def test_zero_f_refused(self, f):
        # every f(n) = 0 mod 11: the set would be empty, against a predicted
        # (beta - alpha) * p members
        with pytest.raises(errors.InvalidParameterError, match="is zero mod 11"):
            character_argument_set(11, None, 1, f, (0, 0, 1), Fraction(0), Fraction(1, 2))


def character_argument_reference(p, chi, a, f, g, alpha, beta):
    """Membership decided per n with Fractions."""
    a %= p
    members = []
    for n in range(p):
        fn = nt.poly_eval_mod(f, n, p)
        if fn == 0:
            continue
        theta = chi.angle(fn) if chi is not None else Fraction(0)
        if a:
            theta += Fraction(a * nt.poly_eval_mod(g, n, p) % p, p)
        if (theta - alpha) % 1 < beta - alpha:
            members.append(n)
    return tuple(members)


# alpha's denominator is either small or far past int64
angles = st.builds(
    Fraction,
    st.integers(-(10**25), 10**25),
    st.one_of(st.integers(1, 12), st.integers(2**62, 2**80)),
)


@st.composite
def character_params(draw):
    p = draw(st.sampled_from([5, 7, 11, 13, 31, 37, 61, 101]))
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    order = draw(st.sampled_from(divisors))
    index = draw(st.sampled_from([i for i in range(1, 2 * order + 2)
                                  if np.gcd(i, order) == 1]))
    chi = None if order == 1 else MultiplicativeCharacter.build(p, order, index)
    a = draw(st.integers(0, 3 * p))
    if a % p == 0 and chi is None:
        a = 1
    f = draw(st.lists(st.integers(-50, 50), min_size=1, max_size=4))
    if not nt.poly_reduce(f, p):  # a zero f is refused
        f = f + [1]
    g = draw(st.lists(st.integers(-50, 50), min_size=3, max_size=4))
    if nt.poly_degree(g, p) < 2:
        g = g[:2] + [1]
    alpha = draw(angles)
    alpha -= alpha.numerator // alpha.denominator  # keep it in [0, 1)
    alpha += draw(st.integers(-2, 2))
    width = draw(angles.filter(lambda w: w != 0))
    width = abs(width) - abs(width).numerator // abs(width).denominator or 1
    return p, chi, a, f, g, alpha, alpha + width


class TestCharacterArgumentReference:
    @given(character_params())
    @settings(max_examples=150, deadline=None)
    def test_equals_fraction_reference(self, params):
        p, chi, a, f, g, alpha, beta = params
        r = character_argument_set(p, chi, a, f, g, alpha, beta)
        assert r.elements == character_argument_reference(*params)

    def test_char_index_reduced_before_the_product(self):
        # 3 * 2^60 + 1 = 1 (mod 3): the character is the one of index 1, and
        # its product with an index no longer wraps int64
        window = ((0, 1), None, Fraction(0), Fraction(1, 3))
        one = MultiplicativeCharacter.build(1009, 3, 1)
        big = MultiplicativeCharacter.build(1009, 3, 3 * 2**60 + 1)
        expect = character_argument_reference(1009, one, 0, *window)
        assert character_argument_set(1009, big, 0, *window).elements == expect

    def test_huge_denominators(self):
        chi = MultiplicativeCharacter.build(101, 4, 3)
        alpha = Fraction(-7, 10**20 + 3)
        beta = Fraction(10**30, 7 * 10**30 + 1)
        params = (101, chi, 5, (1, 1), (2, 0, 1), alpha, beta)
        r = character_argument_set(*params)
        assert r.elements == character_argument_reference(*params)
        assert 0 < r.cardinality < 100


class TestFermatQuotientTable:
    def test_equals_per_n_quotients(self):
        for p in [*range(3, 100, 2), 151]:
            if nt.is_prime(p):
                qtab = _fermat_quotient_table(p)
                assert qtab.dtype == np.uint16 and not qtab.flags.writeable
                expect = [nt.fermat_quotient(n, p) for n in range(p * p)]
                assert qtab.tolist() == expect

    def test_cache_keeps_four_primes(self):
        for p in (3, 5, 7, 11, 13):
            _fermat_quotient_table(p)
        info = _fermat_quotient_table.cache_info()
        assert info.currsize == info.maxsize == 4


class TestFermatQuotientSets:
    def test_p3_d1(self):
        r = fermat_quotient_power_residue_set(3, 1)
        assert r.q == 9
        assert r.elements == (2, 4, 5, 7)

    def test_p3_d2(self):
        assert fermat_quotient_power_residue_set(3, 2).elements == (2, 7)

    def test_exact_cardinality(self):
        for p, d in ((5, 2), (7, 3), (11, 5)):
            r = fermat_quotient_power_residue_set(p, d)
            assert r.cardinality == (p - 1) ** 2 // d

    def test_primitive_root_variant(self):
        r = fermat_quotient_primitive_root_set(3)
        assert r.elements == (4, 5)
        r7 = fermat_quotient_primitive_root_set(7)
        assert r7.cardinality == 6 * 2  # (p-1) * phi(p-1)

    def test_size_guard(self):
        with pytest.raises(errors.TooLargeError):
            fermat_quotient_power_residue_set(2053, 2)


class TestConstructionSpec:
    def test_round_trip_all_kinds(self):
        specs = [
            ConstructionSpec("explicit", {"q": 6, "elements": (0, 2)}),
            ConstructionSpec("quadratic_residues", {"p": 11}),
            ConstructionSpec("power_residues", {"p": 7, "d": 3, "f": (0, 1)}),
            ConstructionSpec("primitive_roots", {"p": 7}),
            ConstructionSpec(
                "primitive_root_powers", {"p": 7, "s": 2, "r": 1, "f": (0, 1)}
            ),
            ConstructionSpec("index_range", {"p": 7, "f": (0, 1), "r": 1, "s": 3}),
            ConstructionSpec(
                "poly_value_range", {"p": 7, "f": (0, 0, 1), "r": 1, "s": 2}
            ),
            ConstructionSpec("inverse_range", {"p": 7, "f": (0, 1), "r": 2, "s": 2}),
            ConstructionSpec(
                "character_argument",
                {
                    "p": 11,
                    "order": 2,
                    "additive": 0,
                    "f": (0, 1),
                    "alpha": Fraction(-1, 4),
                    "beta": Fraction(1, 4),
                },
            ),
            ConstructionSpec("fermat_quotient_power_residues", {"p": 5, "d": 2}),
            ConstructionSpec("fermat_quotient_primitive_roots", {"p": 5}),
        ]
        for spec in specs:
            again = ConstructionSpec.from_json(spec.to_json())
            assert again == spec
            assert construct(again).elements == construct(spec).elements

    def test_modulus(self):
        assert ConstructionSpec("explicit", {"q": 9, "elements": ()}).modulus == 9
        assert ConstructionSpec("quadratic_residues", {"p": 11}).modulus == 11
        assert (
            ConstructionSpec("fermat_quotient_power_residues", {"p": 5, "d": 1}).modulus
            == 25
        )

    def test_unknown_kind(self):
        with pytest.raises(errors.UnknownKindError):
            ConstructionSpec("mystery", {})

    def test_param_set_enforced(self):
        with pytest.raises(errors.InvalidParameterError):
            ConstructionSpec("quadratic_residues", {"p": 11, "x": 1})
        with pytest.raises(errors.InvalidParameterError):
            ConstructionSpec("power_residues", {"p": 7})

    def test_from_json_coercion(self):
        spec = ConstructionSpec.from_json(
            {
                "kind": "character_argument",
                "params": {
                    "p": 11,
                    "order": 2,
                    "additive": 0,
                    "f": [0, 1],
                    "alpha": {"num": -1, "den": 4},
                    "beta": {"num": 1, "den": 4},
                },
            }
        )
        assert spec.params["alpha"] == Fraction(-1, 4)
        assert construct(spec).elements == quadratic_residue_set(11).elements

    def test_from_json_rejects_zero_denominator(self):
        params = {"p": 11, "order": 2, "additive": 1, "f": [1, 1],
                  "alpha": {"num": 0, "den": 0}, "beta": {"num": 1, "den": 2}}
        with pytest.raises(
            errors.InvalidParameterError, match="alpha: zero denominator"
        ):
            ConstructionSpec.from_json({"kind": "character_argument", "params": params})

    def test_from_json_rejects_bool(self):
        with pytest.raises(errors.InvalidParameterError):
            ConstructionSpec.from_json(
                {"kind": "quadratic_residues", "params": {"p": True}}
            )


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: ConstructionSpec.from_json({"kind": "quadratic_residues"}),
         errors.InvalidParameterError,
         'construction spec must be {"kind": .., "params": {..}}'),
        (lambda: ConstructionSpec.from_json({"kind": "mystery", "params": {}}),
         errors.UnknownKindError, "unknown construction kind 'mystery'"),
        (lambda: ConstructionSpec.from_json(
            {"kind": "quadratic_residues", "params": [11]}),
         errors.InvalidParameterError, "params must be an object"),
        (lambda: inverse_range_set(7, (3, 7), 0, 2),
         errors.DegreeTooSmallError, "need deg f >= 1 mod 7, got (3, 7)"),
        (lambda: character_argument_set(
            11, MultiplicativeCharacter.legendre(13), 0, (0, 1), None, 0,
            Fraction(1, 2)),
         errors.InvalidParameterError, "character lives mod 13, set asked mod 11"),
    ],
)
def test_invalid_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda p: power_residue_set(p, 2, (1, 0, 1)),
        primitive_root_set,
        lambda p: primitive_root_power_set(p, 1, 2, (0, 1)),
        lambda p: index_range_set(p, (0, 1), 0, 10),
        lambda p: inverse_range_set(p, (0, 1), 0, 10),
    ],
    ids=["power_residues", "primitive_roots", "primitive_root_powers", "index_range",
         "inverse_range"],
)
def test_index_table_sets_refuse_p_past_2_26_before_allocating(build):
    # 67108879 is the first prime above 2**26; one pass over Z_p in int64
    # takes 512 MB
    tracemalloc.start()
    try:
        with pytest.raises(errors.TooLargeError):
            build(67108879)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@given(subsets)
@settings(max_examples=40)
def test_shift_preserves_cardinality(r):
    for off in (1, 2, r.q - 1):
        assert r.shifted(off).cardinality == r.cardinality


# The per-n kinds, built from _block_mask a _BLOCK of residues at a time.
PER_N_KINDS = [
    "quadratic_residues",
    "power_residues",
    "primitive_root_powers",
    "index_range",
    "poly_value_range",
    "inverse_range",
    "character_argument",
]


@st.composite
def per_n_specs(draw, p):
    kind = draw(st.sampled_from(PER_N_KINDS))
    divisor = st.sampled_from(nt.factorize(p - 1).divisors())
    f = draw(st.lists(st.integers(-p, 2 * p), min_size=1, max_size=4))
    window = {"f": f, "r": draw(st.integers(-p, 2 * p)), "s": draw(st.integers(1, p - 1))}
    if kind == "character_argument":
        order = draw(divisor)
        den = draw(st.integers(1, 12))
        alpha = Fraction(draw(st.integers(-den, den)), den)
        params = {
            "order": order,
            "char_index": order - 1 or 1,  # coprime to the order
            "additive": draw(st.integers(0, 2 * p)),
            "f": f,
            "g": draw(st.lists(st.integers(-p, 2 * p), min_size=3, max_size=4)),
            "alpha": alpha,
            "beta": alpha + Fraction(draw(st.integers(1, den)), den),
        }
    else:
        params = {
            "quadratic_residues": {},
            "power_residues": {"d": draw(divisor), "f": f},
            "primitive_root_powers": {"s": draw(divisor), "r": draw(divisor), "f": f},
        }.get(kind, window)
    return ConstructionSpec(kind, {"p": p, **params})


SMALL_PRIMES = [p for p in range(3, 400) if nt.is_prime(p)]


class TestBlocks:
    """A build is the same whatever the block size and wherever the last
    block ends."""

    @given(st.sampled_from(SMALL_PRIMES).flatmap(per_n_specs))
    @settings(max_examples=150)
    def test_every_block_size_gives_the_one_block_set(self, spec):
        assert sub._BLOCK > spec.modulus  # one block
        try:
            whole = construct(spec)
        except errors.Error:
            assume(False)  # params this kind refuses
        with pytest.MonkeyPatch.context() as mp:
            for block in (1, 7, 64):
                mp.setattr(sub, "_BLOCK", block)
                assert construct(spec) == whole, block

    @given(
        st.sampled_from(SMALL_PRIMES),
        st.lists(st.integers(-500, 500), min_size=0, max_size=5),
        st.data(),
    )
    @settings(max_examples=100)
    def test_every_block_size_gives_the_one_block_root_count(self, p, f, data):
        d = data.draw(st.sampled_from(nt.factorize(p - 1).divisors()))
        whole = _power_residue_count(p, d, f)
        roots = sum(nt.poly_eval_mod(f or [0], n, p) == 0 for n in range(p))
        assert whole.main == Fraction(p - roots, d)
        with pytest.MonkeyPatch.context() as mp:
            for block in (1, 7, 64):
                mp.setattr(sub, "_BLOCK", block)
                assert _power_residue_count(p, d, f) == whole, block

    # 65537 = 2^16 + 1: one full block and a tail of one residue;
    # 131071 = 2^17 - 1: one full block and a tail of 65535
    @pytest.mark.parametrize("p", [65537, 131071])
    def test_a_tail_after_a_full_block(self, p, monkeypatch):
        assert sub._BLOCK == 2**16
        specs = [
            ConstructionSpec("quadratic_residues", {"p": p}),
            ConstructionSpec("power_residues", {"p": p, "d": 2, "f": (1, 0, 1)}),
            ConstructionSpec(
                "primitive_root_powers", {"p": p, "s": 2, "r": 2, "f": (1, 1)}
            ),
            ConstructionSpec("index_range", {"p": p, "f": (3, 1), "r": 5, "s": p // 3}),
            ConstructionSpec(
                "poly_value_range", {"p": p, "f": (1, 0, 1), "r": 7, "s": p // 3}
            ),
            ConstructionSpec("inverse_range", {"p": p, "f": (0, 1), "r": 1, "s": p // 4}),
            ConstructionSpec(
                "character_argument",
                {"p": p, "order": 2, "additive": 1, "f": (1, 1), "g": (0, 0, 1),
                 "alpha": Fraction(0), "beta": Fraction(1, 2)},
            ),
        ]
        assert {spec.kind for spec in specs} == set(PER_N_KINDS)
        blocked = [construct(spec) for spec in specs]
        # x^3 (1 + x^2): the root 0, and +-i where -1 is a square
        f = (0, 0, 0, 1, 0, 1)
        count = _power_residue_count(p, 2, f)
        monkeypatch.setattr(sub, "_BLOCK", 2**17)  # one block
        assert [construct(spec) for spec in specs] == blocked
        assert _power_residue_count(p, 2, f) == count


# Bytes a build may hold per residue of Z_p at its peak, caches cleared:
# the index table's 16, the bool masks, the set's int64 elements and
# temporaries of one block.
@pytest.mark.parametrize(
    "spec",
    [
        ConstructionSpec(
            "index_range", {"p": 1000003, "f": (0, 1), "r": 0, "s": 333334}
        ),
        ConstructionSpec("power_residues", {"p": 1000003, "d": 3, "f": (1, 0, 1)}),
        ConstructionSpec(
            "inverse_range", {"p": 1000003, "f": (0, 1), "r": 1, "s": 250000}
        ),
        ConstructionSpec(
            "character_argument",
            {"p": 1000003, "order": 6, "additive": 1, "f": (0, 1), "g": (0, 0, 1),
             "alpha": Fraction(0), "beta": Fraction(1, 3)},
        ),
    ],
    ids=lambda spec: spec.kind,
)
def test_a_build_holds_under_26_bytes_per_residue(spec):
    nt.build_index_table.cache_clear()
    _fermat_quotient_table.cache_clear()
    tracemalloc.start()
    try:
        construct(spec)
        spec.record.cardinality(**spec.params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 26 * spec.params["p"]


# The kinds that read only the index table's powers: 8 bytes per residue
# for powers, the bool masks, the set's int64 elements and temporaries of
# one block; the inverse table is left unbuilt.
@pytest.mark.parametrize(
    "spec",
    [
        ConstructionSpec(
            "index_range", {"p": 1000003, "f": (0, 1), "r": 0, "s": 333334}
        ),
        ConstructionSpec("power_residues", {"p": 1000003, "d": 3, "f": (1, 0, 1)}),
        ConstructionSpec(
            "inverse_range", {"p": 1000003, "f": (0, 1), "r": 1, "s": 250000}
        ),
        ConstructionSpec("primitive_roots", {"p": 1000003}),
        ConstructionSpec(
            "primitive_root_powers", {"p": 1000003, "s": 3, "r": 2, "f": (1, 1)}
        ),
    ],
    ids=lambda spec: spec.kind,
)
def test_a_powers_build_holds_under_16_bytes_per_residue_without_the_table(spec):
    p = spec.params["p"]
    nt.build_index_table.cache_clear()
    tracemalloc.start()
    try:
        construct(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * p
    assert "table" not in vars(nt.build_index_table(p))


def test_character_argument_builds_the_table_on_first_use():
    p = 1000003
    nt.build_index_table.cache_clear()
    spec = ConstructionSpec(
        "character_argument",
        {"p": p, "order": 2, "additive": 0, "f": (0, 1),
         "alpha": Fraction(0), "beta": Fraction(1, 2)},
    )
    assert construct(spec) == quadratic_residue_set(p)
    table = vars(nt.build_index_table(p))["table"]
    assert table[0] == -1 and not table.flags.writeable


def test_the_fermat_table_holds_under_16_bytes_per_cell():
    _fermat_quotient_table.cache_clear()
    tracemalloc.start()
    try:
        _fermat_quotient_table(2039)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2039**2


# The window kinds with powers cached: the preimage mask, the set's int64
# elements (8 bytes for each of about a third of the residues) and
# temporaries of one block.  Their target mask is dropped before the
# elements are taken; with it, the peak is 5 bytes per residue.
@pytest.mark.parametrize(
    "spec",
    [
        ConstructionSpec(
            "index_range", {"p": 1000003, "f": (0, 1), "r": 0, "s": 333334}
        ),
        ConstructionSpec(
            "poly_value_range", {"p": 1000003, "f": (0, 0, 1), "r": 0, "s": 333334}
        ),
        ConstructionSpec(
            "inverse_range", {"p": 1000003, "f": (0, 1), "r": 1, "s": 333334}
        ),
    ],
    ids=lambda spec: spec.kind,
)
def test_a_window_build_drops_its_target_before_the_elements(spec):
    p = spec.params["p"]
    nt.build_index_table(p)  # cached: not counted
    tracemalloc.start()
    try:
        rset = construct(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 3 * rset.cardinality < 1.01 * p
    assert peak < 4.5 * p


# One spec of each kind that builds its set from a mask over Z_q.
MASK_BUILT = [
    ConstructionSpec("quadratic_residues", {"p": 101}),
    ConstructionSpec("primitive_roots", {"p": 101}),
    ConstructionSpec("power_residues", {"p": 101, "d": 5, "f": (1, 0, 1)}),
    ConstructionSpec("primitive_root_powers", {"p": 101, "s": 2, "r": 5, "f": (1, 1)}),
    ConstructionSpec("index_range", {"p": 101, "f": (3, 1), "r": 5, "s": 33}),
    ConstructionSpec("poly_value_range", {"p": 101, "f": (1, 0, 1), "r": 7, "s": 33}),
    ConstructionSpec("inverse_range", {"p": 101, "f": (0, 1), "r": 1, "s": 25}),
    ConstructionSpec(
        "character_argument",
        {"p": 101, "order": 4, "additive": 1, "f": (1, 1), "g": (0, 0, 1),
         "alpha": Fraction(0), "beta": Fraction(1, 3)},
    ),
    ConstructionSpec("fermat_quotient_power_residues", {"p": 11, "d": 5}),
    ConstructionSpec("fermat_quotient_primitive_roots", {"p": 11}),
]


@pytest.mark.parametrize("spec", MASK_BUILT, ids=lambda spec: spec.kind)
def test_a_mask_built_set_keeps_its_construction_mask(spec):
    rset = construct(spec)
    assert "member_mask" in vars(rset)  # kept from the build, not scattered
    mask = rset.member_mask
    scattered = np.zeros(rset.q, dtype=bool)
    scattered[rset.array] = True
    assert mask.dtype == bool and not mask.flags.writeable
    assert np.array_equal(mask, scattered)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]
    for other in MASK_BUILT:  # every later build at the same prime
        if other.modulus == spec.modulus:
            construct(other)
    assert construct(spec) == rset
    assert np.array_equal(rset.member_mask, scattered)
