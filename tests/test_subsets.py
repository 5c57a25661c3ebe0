from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import errors
from zqlab.numtheory import MultiplicativeCharacter
from zqlab.subsets import (
    ConstructionSpec,
    BalancedIndicator,
    ResidueSet,
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


class TestBalancedIndicator:
    def test_values(self):
        f = BalancedIndicator(explicit_set(4, [0]))
        assert f.value(0) == Fraction(3, 4)
        assert f.value(1) == Fraction(-1, 4)
        assert f.value(4) == Fraction(3, 4)

    def test_numerators(self):
        f = BalancedIndicator(quadratic_residue_set(11))
        nums = f.sign_numerators()
        assert nums[1] == 6 and nums[0] == -5
        assert nums.dtype == np.int64

    @given(subsets)
    @settings(max_examples=60)
    def test_sums_to_zero(self, r):
        f = BalancedIndicator(r)
        assert sum(f.value(n) for n in range(r.q)) == 0
        assert int(f.sign_numerators().sum()) == 0


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

    def test_squares_of_roots(self):
        assert primitive_root_power_set(7, 2, 1, (0, 1)).elements == (2, 4)

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

    def test_from_json_rejects_bool(self):
        with pytest.raises(errors.InvalidParameterError):
            ConstructionSpec.from_json(
                {"kind": "quadratic_residues", "params": {"p": True}}
            )


@given(subsets)
@settings(max_examples=40)
def test_shift_preserves_cardinality(r):
    for off in (1, 2, r.q - 1):
        assert r.shifted(off).cardinality == r.cardinality
