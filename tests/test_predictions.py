import decimal
import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import errors, harness, sequences
from zqlab.predictions import (
    DeviationBudget,
    characteristic_pattern_main_term,
    exact_budget,
    gap_mod_pattern_main_term,
    gap_mod_symbol_main_term,
    gap_threshold_balance_point,
    gap_threshold_pattern_main_term,
    gap_threshold_symbol_main_term,
    predicted_cardinality,
    sign_pattern_main_term,
)
from zqlab.subsets import ConstructionSpec, construct

densities = st.tuples(
    st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=41)
).filter(lambda tq: tq[0] < tq[1])


class TestGapModSymbol:
    def test_half_density_split(self):
        # rho = 1/2, M = 2: symbol shares are 2/3 and 1/3
        assert gap_mod_symbol_main_term(1, 5, 10, 2) == Fraction(2, 3) * 5
        assert gap_mod_symbol_main_term(2, 5, 10, 2) == Fraction(1, 3) * 5

    def test_degenerate_density(self):
        with pytest.raises(errors.DegenerateDensityError):
            gap_mod_symbol_main_term(1, 0, 10, 2)

    def test_more_elements_than_residues(self):
        with pytest.raises(errors.InvalidParameterError):
            gap_mod_symbol_main_term(1, 11, 10, 2)  # T > q

    def test_symbol_range(self):
        with pytest.raises(errors.InvalidParameterError):
            gap_mod_symbol_main_term(0, 5, 10, 2)
        with pytest.raises(errors.InvalidParameterError):
            gap_mod_symbol_main_term(3, 5, 10, 2)

    def test_uniform_limit(self):
        """At vanishing density every symbol share approaches 1/M."""
        T, q = 1, 10**6
        for M in range(2, 9):
            for u in range(1, M + 1):
                share = gap_mod_symbol_main_term(u, T, q, M) / T
                assert abs(share - Fraction(1, M)) <= Fraction(1, 10**4)


class TestGapThresholdSymbol:
    def test_half_density_balance(self):
        # m=2 at rho=1/2: both symbols get T/2
        assert gap_threshold_symbol_main_term(0, 5, 10, 2) == Fraction(5, 2)
        assert gap_threshold_symbol_main_term(1, 5, 10, 2) == Fraction(5, 2)

    def test_full_density(self):
        # every gap is 1, so symbol 1 takes everything
        assert gap_threshold_symbol_main_term(1, 10, 10, 2) == 10
        assert gap_threshold_symbol_main_term(0, 10, 10, 2) == 0

    def test_symbol_range(self):
        with pytest.raises(errors.InvalidParameterError):
            gap_threshold_symbol_main_term(2, 5, 10, 2)


class TestPatternMainTerms:
    def test_length_one_consistency(self):
        for T, q in ((5, 11), (3, 10)):
            for M in (2, 3, 5):
                for u in range(1, M + 1):
                    assert gap_mod_pattern_main_term(
                        (u,), T, q, M
                    ) == gap_mod_symbol_main_term(u, T, q, M)
            for m in (2, 3):
                for v in (0, 1):
                    assert gap_threshold_pattern_main_term(
                        (v,), T, q, m
                    ) == gap_threshold_symbol_main_term(v, T, q, m)

    def test_weight_symmetry(self):
        for pat in itertools.permutations((1, 1, 0)):
            assert gap_threshold_pattern_main_term(
                pat, 5, 11, 3
            ) == gap_threshold_pattern_main_term((1, 1, 0), 5, 11, 3)
            assert characteristic_pattern_main_term(
                pat, 5, 11
            ) == characteristic_pattern_main_term((1, 1, 0), 5, 11)

    def test_characteristic_values(self):
        assert characteristic_pattern_main_term((1,), 5, 11) == 5
        assert characteristic_pattern_main_term((0,), 5, 11) == 6
        # rho = 1/2, l = 3: every pattern q/8
        assert characteristic_pattern_main_term((1, 0, 1), 4, 8) == 1

    def test_characteristic_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            characteristic_pattern_main_term((1, 2), 5, 11)  # not 0/1
        with pytest.raises(errors.InvalidParameterError):
            characteristic_pattern_main_term((1,), 12, 11)  # T > q

    def test_characteristic_accepts_degenerate_density(self):
        assert characteristic_pattern_main_term((0, 0), 0, 9) == 9
        assert characteristic_pattern_main_term((1, 1), 9, 9) == 9
        assert characteristic_pattern_main_term((1, 0), 9, 9) == 0

    def test_sign_pattern_values(self):
        assert sign_pattern_main_term((1,), 5, 11) == 5
        assert sign_pattern_main_term((-1,), 5, 11) == 6
        assert sign_pattern_main_term((1, 1), 5, 11) == Fraction(25, 11)

    def test_sign_pattern_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            sign_pattern_main_term((1, 0), 5, 11)
        with pytest.raises(errors.PatternTooLongError):
            sign_pattern_main_term((1,) * 12, 5, 11)


class TestNormalizations:
    """The four exact sum identities behind the main terms."""

    @given(densities, st.integers(min_value=2, max_value=6))
    @settings(max_examples=50)
    def test_gap_mod_symbols_sum_to_T(self, tq, M):
        T, q = tq
        assert sum(gap_mod_symbol_main_term(u, T, q, M) for u in range(1, M + 1)) == T

    @given(densities, st.integers(min_value=2, max_value=4), st.integers(1, 3))
    @settings(max_examples=40)
    def test_gap_mod_patterns_sum_to_T(self, tq, M, ell):
        T, q = tq
        total = sum(
            gap_mod_pattern_main_term(pat, T, q, M)
            for pat in itertools.product(range(1, M + 1), repeat=ell)
        )
        assert total == T

    @given(densities, st.integers(min_value=2, max_value=5), st.integers(1, 4))
    @settings(max_examples=40)
    def test_gap_threshold_patterns_sum_to_T(self, tq, m, ell):
        T, q = tq
        total = sum(
            gap_threshold_pattern_main_term(pat, T, q, m)
            for pat in itertools.product((0, 1), repeat=ell)
        )
        assert total == T

    @given(densities, st.integers(1, 4))
    @settings(max_examples=40)
    def test_characteristic_patterns_sum_to_q(self, tq, ell):
        T, q = tq
        total = sum(
            characteristic_pattern_main_term(pat, T, q)
            for pat in itertools.product((0, 1), repeat=ell)
        )
        assert total == q


class TestMainTermClasses:
    """A pattern's main term depends on it only through (length, sum),
    which the report's one-term-per-class cache relies on."""

    @given(
        st.sampled_from(sorted(sequences.DERIVATIONS)),
        st.integers(min_value=2, max_value=6),
        densities,
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_same_length_and_sum_same_term(self, kind, param, tq, data):
        record = sequences.DERIVATIONS[kind]
        alphabet = record.alphabet(param)
        symbols = st.integers(alphabet[0], alphabet[-1])
        pattern = data.draw(st.lists(symbols, min_size=1, max_size=6))
        other = data.draw(st.permutations(pattern))
        # move units between positions, staying in the alphabet: same sum
        for i, j in data.draw(st.lists(st.tuples(*[st.integers(0, len(other) - 1)] * 2))):
            if i != j and other[i] > alphabet[0] and other[j] < alphabet[-1]:
                other[i] -= 1
                other[j] += 1
        assert sum(other) == sum(pattern)
        T, q = tq
        assert record.main_term(tuple(pattern), T, q, param) == record.main_term(
            tuple(other), T, q, param
        )


class TestBalancePoint:
    def test_m2_exact(self):
        bp = gap_threshold_balance_point(2)
        assert bp.exact == Fraction(1, 2)
        assert bp.size_for(11) == 6  # round half even: 5.5 -> 6
        assert bp.size_for(10) == 5

    def test_m3_known_value(self):
        bp = gap_threshold_balance_point(3)
        assert bp.exact is None
        assert bp.size_for(10**6) == 292893
        # 1 - 2^(-1/2) to 50 significant digits
        assert str(bp.decimal).startswith("0.2928932188134524755991556378951509607151640623")

    def test_acceptance_sizes_at_100003(self):
        assert gap_threshold_balance_point(2).size_for(100003) == 50002
        assert gap_threshold_balance_point(3).size_for(100003) == 29290
        assert gap_threshold_balance_point(4).size_for(100003) == 20631

    def test_m_validation(self):
        with pytest.raises(errors.InvalidParameterError):
            gap_threshold_balance_point(1)

    def test_digits(self):
        bp = gap_threshold_balance_point(5)
        digits = str(bp.decimal).replace("0.", "")
        assert len(digits) == 50

    def test_the_callers_decimal_context_is_not_read(self):
        expected = [(bp.decimal, bp.size_for(10**6 + 3))
                    for bp in map(gap_threshold_balance_point, (3, 4, 7))]
        hostile = decimal.Context(prec=2, rounding=decimal.ROUND_CEILING, Emax=3,
                                  traps=[decimal.Inexact, decimal.Rounded])
        with decimal.localcontext(hostile):
            assert [(bp.decimal, bp.size_for(10**6 + 3))
                    for bp in map(gap_threshold_balance_point, (3, 4, 7))] == expected


class TestDeviationBudget:
    def test_exact_budget(self):
        b = exact_budget()
        assert b.allows(Fraction(0))
        assert not b.allows(Fraction(1, 10**9))

    def test_sqrt_only_is_exact(self):
        # 2*sqrt(2) bound: 8 allowed iff dev^2 <= 4*2
        b = DeviationBudget("2*sqrt(2)", True, Fraction(2), sqrt_arg=2)
        assert b.allows(Fraction(2))
        assert not b.allows(Fraction(3))
        # resolved exactly on either side of 2*sqrt(2), beyond float precision
        assert b.allows(Fraction(2828427124746190, 10**15))
        assert not b.allows(Fraction(28284271247461903, 10**16))

    def test_log_bound(self):
        b = DeviationBudget("sqrt(q)*log(q)", True, Fraction(1), 100, 1, 100)
        assert b.bound() == pytest.approx(10 * math.log(100))
        assert b.allows(Fraction(46))
        assert not b.allows(Fraction(47))

    def test_negative_deviation_rejected(self):
        with pytest.raises(errors.InvalidParameterError):
            exact_budget().allows(Fraction(-1))

    @staticmethod
    def true_bound(c: Fraction, q: int, j: int) -> Fraction:
        """c * sqrt(q) * ln(q)^j to 60 digits, independently of the budget."""
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            root_log = Decimal(q).sqrt() * Decimal(q).ln() ** j
            return Fraction(Decimal(c.numerator) / c.denominator * root_log)

    @pytest.mark.parametrize("j", [1, 2])
    @pytest.mark.parametrize("c", [Fraction(1), Fraction(4), Fraction(1, 3)])
    @pytest.mark.parametrize("q", [2, 6, 101, 10007, 1000003])
    def test_log_verdicts_one_ulp_either_side(self, q, c, j):
        b = DeviationBudget("c*sqrt(q)*log(q)^j", True, c, q, j, q)
        true = self.true_bound(c, q, j)
        for x in (b.bound(), float(true)):  # the float bound, the nearest float
            for dev in (math.nextafter(x, 0), x, math.nextafter(x, math.inf)):
                assert b.allows(Fraction(dev)) == (Fraction(dev) <= true)

    def test_log_verdicts_where_float64_was_wrong(self):
        # sqrt(2)*ln(2) rounds up in float64: its own value lies above the
        # budget, which the float comparison allowed
        b = DeviationBudget("sqrt(q)*log(q)", True, Fraction(1), 2, 1, 2)
        assert Fraction(b.bound()) > self.true_bound(Fraction(1), 2, 1)
        assert not b.allows(Fraction(b.bound()))
        below = math.nextafter(b.bound(), 0)
        assert b.allows(Fraction(below))
        # and 4*sqrt(6)*ln(6) rounds down, more than one ulp short of it
        b = DeviationBudget("4*sqrt(q)*log(q)", True, Fraction(4), 6, 1, 6)
        above = math.nextafter(b.bound(), math.inf)
        assert Fraction(above) < self.true_bound(Fraction(4), 6, 1)
        assert b.allows(Fraction(above))

    def test_log_of_one_is_zero(self):
        b = DeviationBudget("sqrt(q)*log(q)", True, Fraction(5), 1, 2, 1)
        assert b.bound() == 0
        assert b.allows(Fraction(0))
        assert not b.allows(Fraction(1, 10**30))

    def test_log_verdict_refines_past_the_first_bracket(self):
        # within 10^-30 of the budget: 20 digits cannot decide it
        b = DeviationBudget("sqrt(q)*log(q)", True, Fraction(1), 10007, 1, 10007)
        true = self.true_bound(Fraction(1), 10007, 1)
        step = Fraction(1, 10**30)
        assert b.allows(true - step)
        assert not b.allows(true + step)


class TestPredictedCardinality:
    def test_explicit(self):
        spec = ConstructionSpec("explicit", {"q": 9, "elements": (1, 5)})
        pred = predicted_cardinality(spec)
        assert pred.main == 2
        assert pred.budget.allows(Fraction(0))

    def test_quadratic_residues_exact(self):
        spec = ConstructionSpec("quadratic_residues", {"p": 101})
        assert predicted_cardinality(spec).main == 50

    def test_power_residues_degree_one_is_exact(self):
        spec = ConstructionSpec("power_residues", {"p": 13, "d": 3, "f": (0, 1)})
        pred = predicted_cardinality(spec)
        assert pred.main == 4
        assert pred.budget.asserted
        assert pred.budget.bound() == 0.0
        assert construct(spec).cardinality == 4

    def test_power_residues_weil_budget(self):
        # f = x^2 + 1 mod 13: zeros at 5 and 8
        spec = ConstructionSpec("power_residues", {"p": 13, "d": 2, "f": (1, 0, 1)})
        pred = predicted_cardinality(spec)
        assert pred.main == Fraction(11, 2)
        assert pred.budget.asserted
        dev = abs(Fraction(construct(spec).cardinality) - pred.main)
        assert pred.budget.allows(dev)

    def test_fermat_exact(self):
        spec = ConstructionSpec("fermat_quotient_power_residues", {"p": 5, "d": 2})
        pred = predicted_cardinality(spec)
        assert pred.main == 8
        assert construct(spec).cardinality == 8
        spec2 = ConstructionSpec("fermat_quotient_primitive_roots", {"p": 7})
        assert predicted_cardinality(spec2).main == 6 * 2

    def test_index_range_report_only(self):
        spec = ConstructionSpec("index_range", {"p": 101, "f": (0, 1), "r": 0, "s": 30})
        pred = predicted_cardinality(spec)
        assert pred.main == 30
        assert not pred.budget.asserted
        assert pred.budget.bound() == pytest.approx(math.sqrt(101) * math.log(101))

    def test_primitive_roots(self):
        spec = ConstructionSpec("primitive_roots", {"p": 11})
        pred = predicted_cardinality(spec)
        assert pred.main == 4  # phi(10)
        assert construct(spec).cardinality == 4

    @pytest.mark.parametrize(
        "p, s, r, f, main, coefficient",
        [
            # phi(21) / 2, with omega(21) = 2 and deg f = 1
            (43, 2, 2, (1, 1), 6, 4),
            # phi(30) / 3, with omega(30) = 3 and deg f = 2
            (31, 1, 3, (1, 0, 1), Fraction(8, 3), 16),
        ],
    )
    def test_primitive_root_powers_report_only(self, p, s, r, f, main, coefficient):
        params = {"p": p, "s": s, "r": r, "f": f}
        pred = predicted_cardinality(ConstructionSpec("primitive_root_powers", params))
        assert pred.main == main
        assert pred.budget.formula == "deg(f) * 2^omega((p-1)/s) * sqrt(p) * log(p)"
        assert pred.budget.coefficient == coefficient
        assert not pred.budget.asserted
        config = harness.ExperimentConfig.from_dict(
            {
                "construction": {
                    "kind": "primitive_root_powers",
                    "params": dict(params, f=list(f)),
                },
                "analyses": [{"kind": "cardinality"}],
            }
        )
        (item,) = harness.run(config).body["analyses"][0]["items"]
        assert item["status"] == "REPORT_ONLY"

    def test_character_argument_zero_polynomial_adds_no_degree(self):
        params = {"p": 11, "order": 2, "additive": 0, "f": (0, 0, 0, 1),
                  "g": (11,), "alpha": Fraction(0), "beta": Fraction(1, 2)}
        pred = predicted_cardinality(ConstructionSpec("character_argument", params))
        assert pred.budget.coefficient == 3  # deg f + 0, not deg f - 1

    def test_character_argument_window_share(self):
        spec = ConstructionSpec(
            "character_argument",
            {
                "p": 11,
                "order": 2,
                "additive": 0,
                "f": (0, 1),
                "alpha": Fraction(-1, 4),
                "beta": Fraction(1, 4),
            },
        )
        pred = predicted_cardinality(spec)
        assert pred.main == Fraction(11, 2)
        assert not pred.budget.asserted
