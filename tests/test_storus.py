from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commlab import storus
from commlab.errors import (
    DimensionMismatch,
    ExceedsFactorBound,
    FiniteOrder,
    InvalidTorusSpec,
    NotPrime,
    ReducibleCharPoly,
    ZeroInput,
)
from commlab.storus import (
    PRIME_BOUND,
    RankReport,
    TorusSpec,
    is_prime,
    is_square_qp,
    is_square_qp_bruteforce,
    prime_set,
    rank_over,
    s_rank,
    squarefree_part,
    torus_from_matrix2,
)


def test_is_square_qp_examples():
    assert is_square_qp(5, 11) is True
    assert is_square_qp(5, 3) is False
    assert is_square_qp(4, 7) is True


def test_is_square_qp_valuations():
    assert is_square_qp(12, 3) is False  # odd 3-adic valuation
    assert is_square_qp(9, 3) is True
    assert is_square_qp(-1, 5) is True  # 5 = 1 mod 4
    assert is_square_qp(-1, 7) is False
    assert is_square_qp(17, 2) is True  # 17 = 1 mod 8
    assert is_square_qp(3, 2) is False


def test_is_square_qp_errors():
    with pytest.raises(ZeroInput):
        is_square_qp(0, 3)
    with pytest.raises(NotPrime):
        is_square_qp(5, 4)


def test_oracle_agreement_small_sweep():
    primes = [p for p in range(2, 20) if is_prime(p)]
    ds = [d for d in range(-20, 21) if d not in (0, 1) and squarefree_part(d) == d]
    for p in primes:
        for d in ds:
            assert is_square_qp(d, p) == is_square_qp_bruteforce(d, p), (d, p)
        # valuations other than 0 and 1, in the numerator and the denominator
        for x in (18, 50, -12, 63, 4 * p**3, Fraction(2, 9), Fraction(9, 2 * p**2)):
            assert is_square_qp(x, p) == is_square_qp_bruteforce(x, p), (x, p)


_SMALL_PRIMES = [p for p in range(2, 200) if is_prime(p)]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.sampled_from(_SMALL_PRIMES), st.sampled_from([1, -1]), st.integers(-4, 4),
       st.integers(1, 10**6), st.integers(1, 10**6))
def test_is_square_qp_agrees_with_the_search_oracle(p, sign, v, a, b):
    """x = +-p**v * a / b, a and b drawn without regard to p, so that the
    valuation of x is v plus theirs."""
    x = sign * Fraction(p) ** v * Fraction(a, b)
    assert is_square_qp(x, p) == is_square_qp_bruteforce(x, p), (x, p)


# psi_12 = 399165290221 * 798330580441 passes the Miller-Rabin test to all
# twelve bases of is_prime (Sorenson and Webster, Math. Comp. 86, 2017), and
# 2**89 - 1 is a prime above it
@pytest.mark.parametrize("big", [318665857834031151167461, 2**89 - 1])
def test_a_member_at_or_above_psi12_is_refused(big):
    assert big >= PRIME_BOUND == 399165290221 * 798330580441
    bound = f"only below {PRIME_BOUND}$"
    with pytest.raises(ExceedsFactorBound, match=f"^cannot certify {big} as prime: .*{bound}"):
        prime_set({3, big})
    with pytest.raises(ExceedsFactorBound, match=bound):
        s_rank(TorusSpec.norm_one(2), [big])
    with pytest.raises(ExceedsFactorBound, match=bound):
        is_square_qp(2, big)
    # the members are checked in increasing order, so a smaller non-prime is NotPrime
    with pytest.raises(NotPrime, match="^4 is not prime$"):
        prime_set({4, big})


def test_a_prime_below_psi12_is_accepted():
    p = 2**61 - 1
    assert prime_set({2, p}) == {2, p}
    assert s_rank(TorusSpec.norm_one(2), [p]).rank_Qp == {p: 1}  # p = 7 mod 8


def test_rank_over_examples():
    t5 = TorusSpec.norm_one(5)
    assert rank_over(t5, "R") == 1
    assert rank_over(t5, "Q") == 0
    assert rank_over(TorusSpec.gm(), ("Qp", 7)) == 1
    assert rank_over(TorusSpec.norm_one(-1), "R") == 0
    assert rank_over(TorusSpec.rest_scalars(5), ("Qp", 11)) == 2
    assert rank_over(TorusSpec.rest_scalars(5), "Q") == 1


def test_s_rank_paper_table():
    t5 = TorusSpec.norm_one(5)
    assert s_rank(t5, []).N == 1
    assert s_rank(t5, [3]).N == 1
    assert s_rank(t5, [11]).N == 2
    assert s_rank(t5, [3, 11]).N == 2
    report = s_rank(t5, [3, 11])
    assert report == RankReport(1, 0, {3: 0, 11: 1}, 2)


def test_s_rank_additive_and_monotone():
    spec = TorusSpec.norm_one(5) * TorusSpec.rest_scalars(-1) * TorusSpec.gm()
    parts = [TorusSpec.norm_one(5), TorusSpec.rest_scalars(-1), TorusSpec.gm()]
    for primes in ([], [2], [2, 5], [3, 11, 13]):
        total = s_rank(spec, primes).N
        assert total == sum(s_rank(p, primes).N for p in parts)
        assert total >= 0
    assert s_rank(spec, [2]).N <= s_rank(spec, [2, 5]).N


def test_s_rank_checks_s_once():
    # the Q_p ranks test squares without checking p again, and equal the
    # checked rank_over; rank_over checks p only at a factor with a
    # discriminant, as before
    spec = TorusSpec.norm_one(5) * TorusSpec.rest_scalars(-1) * TorusSpec.norm_one(-3)
    primes = [2, 3, 5, 7, 11, 13]
    with mock.patch.object(storus, "prime_set", wraps=storus.prime_set) as checked:
        report = s_rank(spec, primes)
    assert checked.call_count == 1
    assert report.rank_Qp == {p: rank_over(spec, ("Qp", p)) for p in primes}
    with pytest.raises(NotPrime, match="^4 is not prime$"):
        rank_over(TorusSpec.norm_one(5), ("Qp", 4))
    assert rank_over(TorusSpec.gm(), ("Qp", 4)) == 1


_DISCS = [d for d in range(-30, 31) if d not in (0, 1) and squarefree_part(d) == d]
_FACTORS = st.one_of(
    st.just(TorusSpec.gm()),
    st.sampled_from(_DISCS).map(TorusSpec.norm_one),
    st.sampled_from(_DISCS).map(TorusSpec.rest_scalars),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.lists(_FACTORS, min_size=1, max_size=4),
       st.lists(st.sampled_from(_SMALL_PRIMES[:15]), max_size=5))
def test_s_rank_agrees_with_the_search_oracle(factors, primes):
    # oracle: each factor's local rank from d > 0 over R, no square over Q
    # (d squarefree, not 1), and the search oracle over each Q_p
    spec = factors[0]
    for f in factors[1:]:
        spec = spec * f

    def rank(is_square):
        return sum(1 if f.kind == "Gm" else int(is_square(f.d)) + (f.kind == "RestScalars")
                   for f in spec.factors)

    r_r, r_q = rank(lambda d: d > 0), rank(lambda d: False)
    r_p = {p: rank(lambda d, p=p: is_square_qp_bruteforce(d, p)) for p in set(primes)}
    assert s_rank(spec, primes) == RankReport(r_r, r_q, r_p, r_r - r_q + sum(r_p.values()))


def test_rank_q_bounds():
    specs = (
        TorusSpec.norm_one(5),
        TorusSpec.norm_one(-1),
        TorusSpec.rest_scalars(-3),
        TorusSpec.gm(),
    )
    for spec in specs:
        rq = rank_over(spec, "Q")
        assert rq <= rank_over(spec, "R")
        for p in (2, 3, 5, 7):
            assert rq <= rank_over(spec, ("Qp", p))


def test_torus_from_matrix2_examples():
    assert torus_from_matrix2([[2, 1], [1, 1]]) == TorusSpec.norm_one(5)
    assert torus_from_matrix2([[3, 1], [2, 1]]) == TorusSpec.norm_one(3)
    with pytest.raises(ReducibleCharPoly):
        torus_from_matrix2([[1, 1], [0, 1]])
    with pytest.raises(FiniteOrder):
        torus_from_matrix2([[0, -1], [1, 0]])
    with pytest.raises(InvalidTorusSpec):
        torus_from_matrix2([[2, 0], [0, 1]])


def test_torus_from_matrix2_det_minus_one():
    # x -> golden-ratio-type unit of norm -1; the identity component of
    # the closure is the norm-one torus of the squared matrix
    assert torus_from_matrix2([[1, 1], [1, 0]]) == TorusSpec.norm_one(5)
    with pytest.raises(ReducibleCharPoly):
        torus_from_matrix2([[0, 1], [1, 0]])


@pytest.mark.parametrize("mat, lengths", [
    ([[1, 2], [3]], "[2, 1]"),
    ([[1, 2, 3], [3, 4, 5], [1, 1, 1]], "[3, 3, 3]"),
    ([[1, 2, 3], [4, 5, 6]], "[3, 3]"),
    ([[2, 1]], "[2]"),
])
def test_torus_from_matrix2_refuses_any_shape_but_2_by_2(mat, lengths):
    with pytest.raises(DimensionMismatch, match=rf"2 x 2 matrix, got rows of lengths \{lengths}"):
        torus_from_matrix2(mat)


def test_squarefree_part():
    assert squarefree_part(12) == 3
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(49) == 1
    assert squarefree_part(2 * 3 * 5 * 7) == 210
    # trial division to 10**6 proves a leftover below (10**6 + 1)**2 prime
    assert squarefree_part(10**12 + 39) == 10**12 + 39
    # and is_prime certifies a leftover above that square
    assert squarefree_part(2 * (10**14 + 31)) == 2 * (10**14 + 31)
    assert squarefree_part(2 * (10**6 + 3) ** 2) == 2
    big = 1000003 * 1000033  # two large primes, product not a square
    assert is_prime(1000003) and is_prime(1000033)
    with pytest.raises(ExceedsFactorBound):
        squarefree_part(big * big * 1000003)


def test_invalid_specs():
    with pytest.raises(InvalidTorusSpec):
        TorusSpec.norm_one(12)  # not squarefree
    with pytest.raises(InvalidTorusSpec):
        TorusSpec.norm_one(1)
    with pytest.raises(NotPrime):
        s_rank(TorusSpec.gm(), [6])


def test_spec_json_round_trip():
    spec = TorusSpec.norm_one(5) * TorusSpec.gm() * TorusSpec.rest_scalars(-7)
    assert TorusSpec.from_json(spec.to_json()) == spec
    with pytest.raises(TypeError, match="a torus factor must be a JSON object, got 'Gm'"):
        TorusSpec.from_json(["Gm"])
    with pytest.raises(TypeError, match="a torus must be a list, got {'kind': 'Gm'}"):
        TorusSpec.from_json({"kind": "Gm"})
