import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zqlab import errors, numtheory
from zqlab.numtheory import (
    IndexTable,
    MultiplicativeCharacter,
    build_index_table,
    euler_phi,
    factorize,
    fermat_quotient,
    find_primitive_root,
    is_prime,
    legendre_symbol,
    poly_derivative,
    poly_eval_array,
    poly_eval_mod,
    poly_gcd,
    poly_is_squarefree,
    poly_reduce,
)

SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}


def test_is_prime_small_range():
    for n in range(50):
        assert is_prime(n) == (n in SMALL_PRIMES)


def test_is_prime_large():
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 - 3)
    # Carmichael numbers must not fool the witness set
    assert not is_prime(561)
    assert not is_prime(41041)


def test_is_prime_rejects_out_of_range():
    with pytest.raises(errors.OutOfRangeError):
        is_prime(-1)
    with pytest.raises(errors.OutOfRangeError):
        is_prime(2**63)


def test_factorize_known():
    f = factorize(100002)
    assert f.factors == ((2, 1), (3, 1), (7, 1), (2381, 1))
    assert f.omega == 4
    assert factorize(1).factors == ()
    assert factorize(2**10).factors == ((2, 10),)


def test_factorize_refuses_out_of_range():
    with pytest.raises(errors.OutOfRangeError):
        factorize(0)
    with pytest.raises(errors.OutOfRangeError):
        factorize(2**63)


def test_factorize_refuses_a_composite_cofactor():
    # both primes lie past trial division, and their product is not prime
    with pytest.raises(errors.TooLargeError):
        factorize(1000003 * 1000033)


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    f = factorize(n)
    prod = 1
    for p, e in f.factors:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_divisors_of_12():
    assert factorize(12).divisors() == (1, 2, 3, 4, 6, 12)


def test_euler_phi():
    assert euler_phi(factorize(1)) == 1
    assert euler_phi(factorize(10)) == 4
    assert euler_phi(factorize(10006)) == 5002
    assert euler_phi(factorize(100002)) == 1 * 2 * 6 * 2380


@given(st.integers(min_value=1, max_value=2000))
def test_euler_phi_counts_coprimes(n):
    assert euler_phi(factorize(n)) == sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def test_find_primitive_root():
    assert find_primitive_root(3) == 2
    assert find_primitive_root(5) == 2
    assert find_primitive_root(7) == 3
    assert find_primitive_root(100003) == 2


def test_primitive_root_generates():
    p = 101
    g = find_primitive_root(p)
    assert len({pow(g, j, p) for j in range(p - 1)}) == p - 1


def test_index_table_small():
    t = build_index_table(5)
    assert t.g == 2
    assert [t.index_of(n) for n in (1, 2, 3, 4)] == [0, 1, 3, 2]
    t7 = build_index_table(7)
    assert [t7.index_of(n) for n in range(1, 7)] == [0, 2, 1, 4, 5, 3]


def test_index_table_inverts_powers():
    t = build_index_table(211)
    for j in range(210):
        assert t.index_of(pow(t.g, j, 211)) == j
    assert t.powers[t.table[5]] == 5


def sequential_powers(p: int):
    """g^j mod p for j < p - 1 by repeated multiplication."""
    g, x, powers = find_primitive_root(p), 1, []
    for _ in range(p - 1):
        powers.append(x)
        x = x * g % p
    return powers


def test_index_table_equals_sequential_loop():
    for p in range(3, 2000, 2):
        if not is_prime(p):
            continue
        t = build_index_table(p)
        powers = sequential_powers(p)
        assert t.powers.tolist() == powers
        table = [-1] * p
        for j, x in enumerate(powers):
            table[x] = j
        assert t.table.tolist() == table


def test_index_table_spot_check_large():
    p = 1000003
    t = build_index_table(p)
    for array in (t.table, t.powers):  # built in place, then frozen
        assert array.dtype == np.int64 and not array.flags.writeable
    assert t.powers.tolist() == sequential_powers(p)
    assert t.table[0] == -1
    assert (t.table[t.powers] == range(p - 1)).all()


def test_index_of_zero_rejected():
    t = build_index_table(5)
    with pytest.raises(errors.InvalidParameterError):
        t.index_of(0)
    with pytest.raises(errors.InvalidParameterError):
        t.index_of(10)  # multiple of p


def test_index_table_cache_keeps_four_primes():
    for p in (101, 103, 107, 109, 113):
        build_index_table(p)
    info = build_index_table.cache_info()
    assert info.currsize == info.maxsize == 4


def test_index_table_requires_odd_prime():
    with pytest.raises(errors.NotPrimeError):
        build_index_table(2)
    with pytest.raises(errors.NotPrimeError):
        build_index_table(15)


def test_legendre_symbol():
    # squares mod 11: 1,3,4,5,9
    vals = [legendre_symbol(n, 11) for n in range(11)]
    assert vals == [0, 1, -1, 1, 1, 1, -1, -1, -1, 1, -1]


@given(st.sampled_from([3, 5, 7, 11, 13]), st.integers(min_value=1, max_value=200))
def test_legendre_is_multiplicative(p, n):
    assert legendre_symbol(n * n, p) in (0, 1)
    assert legendre_symbol(n, p) * legendre_symbol(n + p, p) in (0, 1)


def test_fermat_quotient_table_p3():
    # q_3(n) for n = 0..8
    assert [fermat_quotient(n, 3) for n in range(9)] == [0, 0, 1, 0, 2, 2, 0, 1, 0]


def test_fermat_quotient_at_multiples():
    assert fermat_quotient(7, 7) == 0
    assert fermat_quotient(14, 7) == 0


@given(st.sampled_from([3, 5, 7, 11]), st.integers(min_value=0, max_value=500))
def test_fermat_quotient_periodic_mod_p_squared(p, n):
    assert fermat_quotient(n, p) == fermat_quotient(n + p * p, p)


@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=300),
)
def test_fermat_quotient_is_logarithmic(p, a, b):
    """q_p(ab) = q_p(a) + q_p(b) mod p away from multiples of p."""
    if a % p == 0 or b % p == 0:
        return
    assert fermat_quotient(a * b, p) == (fermat_quotient(a, p) + fermat_quotient(b, p)) % p


def test_poly_eval_mod():
    assert poly_eval_mod((1, 0, 1), 3, 7) == 3  # 1 + x^2 at x=3 -> 10 mod 7
    assert poly_eval_mod((0, 1), 6, 7) == 6
    with pytest.raises(errors.EmptyPolynomialError):
        poly_eval_mod((), 2, 7)
    with pytest.raises(errors.OutOfRangeError):
        poly_eval_mod((1,), 2, 0)


def test_poly_eval_array_needs_a_coefficient():
    with pytest.raises(errors.EmptyPolynomialError):
        poly_eval_array((), np.arange(5), 7)


@given(
    st.sampled_from([2, 3, 7, 101, 65537, 67108859]),
    st.one_of(
        st.just([0]),  # the zero polynomial
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=1),  # constants
        st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8),
    ),
    st.lists(st.integers(0, 2**26), max_size=20),
)
def test_poly_eval_array_equals_poly_eval_mod(p, coeffs, xs):
    xs = [x % p for x in xs]
    values = poly_eval_array(coeffs, np.array(xs, dtype=np.int64), p)
    assert values.dtype == np.int64 and values.shape == (len(xs),)
    assert values.tolist() == [poly_eval_mod(coeffs, x, p) for x in xs]


def test_poly_reduce_drops_leading_zeros():
    assert poly_reduce((3, 7, 14), 7) == (3,)
    assert poly_reduce((0, 0), 5) == ()


def test_poly_derivative():
    assert poly_derivative((1, 2, 3), 7) == (2, 6)
    assert poly_derivative((4,), 7) == ()


def test_poly_gcd_monic():
    # gcd(x^2-1, x-1) = x-1 (monic) mod 7
    g = poly_gcd((6, 0, 1), (6, 1), 7)
    assert g == (6, 1)


def test_poly_squarefree():
    assert poly_is_squarefree((0, 1), 7)          # x
    assert poly_is_squarefree((1, 0, 1), 5)        # x^2+1, roots distinct
    assert not poly_is_squarefree((0, 0, 1), 7)    # x^2
    assert not poly_is_squarefree((0, 0, 0, 1), 7) # x^3
    # x^5 - x mod 5 has derivative -1, squarefree as a polynomial
    assert poly_is_squarefree((0, 4, 0, 0, 0, 1), 5) is True
    assert poly_is_squarefree((3,), 7) is True     # a constant


def test_character_legendre_angles():
    chi = MultiplicativeCharacter.legendre(11)
    assert chi.order == 2
    assert chi.angle(3) == 0            # 3 is a QR mod 11
    assert chi.angle(2) == Fraction(1, 2)
    assert chi.angle(11) is None
    assert chi.angle_numerator(22) is None


def test_character_order_must_divide():
    with pytest.raises(errors.NotDivisorError):
        MultiplicativeCharacter.build(7, 4)
    with pytest.raises(errors.InvalidParameterError):
        MultiplicativeCharacter.build(7, 3, index=3)  # gcd(index, order) != 1


def test_character_order_must_be_positive():
    with pytest.raises(errors.InvalidParameterError):
        MultiplicativeCharacter(build_index_table(11), 0)


def test_character_trivial():
    chi = MultiplicativeCharacter.build(7, 1)
    assert chi.is_trivial
    assert all(chi.angle(n) == 0 for n in range(1, 7))


def test_character_cubic_values():
    chi = MultiplicativeCharacter.build(7, 3)
    # ind 2 = 2 (g=3), so angle(2) = 2/3
    assert chi.angle(2) == Fraction(2, 3)
    assert chi.angle(1) == 0
    assert chi.angle(6) == 0  # ind 6 = 3, 3 mod 3 = 0


def test_index_table_is_immutable():
    t = build_index_table(5)
    assert isinstance(t, IndexTable)
    with pytest.raises(ValueError):
        t.table[1] = 0


def test_index_table_refused_past_the_limit(monkeypatch):
    # 67108879 is the first prime above 2**26: refused before any work
    def no_search(p):
        raise AssertionError("searched for a primitive root")

    monkeypatch.setattr(numtheory, "find_primitive_root", no_search)
    with pytest.raises(errors.TooLargeError):
        build_index_table(67108879)


def test_fermat_quotient_refuses_p_squared_past_a_word():
    # 3037000493 and 3037000507 are the primes either side of sqrt(2**63)
    assert 0 <= fermat_quotient(5, 3037000493) < 3037000493
    with pytest.raises(errors.TooLargeError):
        fermat_quotient(5, 3037000507)
