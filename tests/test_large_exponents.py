"""Exponents in the millions are ordinary inputs: exact answers within a
wall-clock bound, for the operations whose cost once grew with the exponent."""

import json
import random
import time

import pytest

from commlab import cli, hnf, lamplighter as lamp
from commlab.f2poly import F2LaurentPoly as P
from commlab.f2poly import mask_deinterleave, mask_interleave, mask_spread

BUDGET_S = 10.0
N = 3_000_000


@pytest.mark.parametrize(
    "k, want",
    [("1", {"k": f"t^{N}", "n": N}), ("0", {"k": f"1+t^{N}", "n": N})],
)
def test_lamp_apply_at_exponent_three_million(capsys, k, want):
    # tau(t^n) = (1 + t + ... + t^(n-1)) * (1 + t) = 1 + t^n
    comm = '{"level":1,"der":"1+t","A":[["1"]],"flip":false}'
    start = time.time()
    code = cli.run(["lamp", "apply", "--comm", comm, "--elem", json.dumps({"k": k, "n": N})])
    elapsed = time.time() - start
    assert code == 0
    assert json.loads(capsys.readouterr().out) == want
    assert elapsed < BUDGET_S


@pytest.mark.parametrize("corner", [-(10**6), 10**6])
def test_submodule_with_a_corner_exponent_of_a_million(corner):
    d1, d2 = P.from_string("1+s+s^3"), P.from_string("1+s+s^2+s^3")
    gens = [[d1, P.from_string(f"s^{corner}+s")], [P.zero(), d2]]
    start = time.time()
    basis = lamp.SubmoduleBasis.from_generators(2, gens)
    elapsed = time.time() - start
    assert basis.index_log2 == d1.max_exp + d2.max_exp
    assert all(hnf.solve_membership(basis.rows, row) is not None for row in gens)
    assert elapsed < BUDGET_S


def test_submodule_with_a_corner_exponent_of_ten_million():
    d1, d2 = P.from_string("1+s+s^3"), P.from_string("1+s+s^2+s^3")
    gens = [[d1, P.from_string(f"s^{-(10**7)}+s")], [P.zero(), d2]]
    start = time.time()
    basis = lamp.SubmoduleBasis.from_generators(2, gens)
    elapsed = time.time() - start
    assert basis.index_log2 == d1.max_exp + d2.max_exp
    assert all(hnf.solve_membership(basis.rows, row) is not None for row in gens)
    assert elapsed < BUDGET_S


def test_exact_division_of_a_million_bit_product():
    d = P.from_string("1+s+s^3")
    q = P._raw(random.Random(6).getrandbits(10**6) | 1 | 1 << (10**6 - 1), -17)
    start = time.time()
    assert (q * d).exact_div(d) == q
    assert (q * d + P.one()).exact_div(d) is None
    assert time.time() - start < BUDGET_S


def test_lamp_power_at_exponent_a_million():
    e = 10**6
    start = time.time()
    # (1 + t, 2)^e = ((1 + t)(1 + t^2 + ... + t^(2e-2)), 2e): every lamp below 2e lit
    assert lamp.LampElement(P.from_string("1+t"), 2) ** e == lamp.LampElement(
        P._raw((1 << 2 * e) - 1, 0), 2 * e
    )
    # (1, -1)^e = (1 + t^-1 + ... + t^-(e-1), -e)
    assert lamp.LampElement(P.one(), -1) ** e == lamp.LampElement(
        P._raw((1 << e) - 1, 1 - e), -e
    )
    assert time.time() - start < BUDGET_S


def test_dense_million_bit_masks_are_read_and_laid_out_in_one_pass():
    # a walk over the set bits that touches the whole int at each step takes
    # minutes at this size
    rng = random.Random(16)
    a = rng.getrandbits(10**6) | 1 | 1 << (10**6 - 1)
    p = P._raw(a, -(10**5))
    masks = [rng.getrandbits(10**6) for _ in range(3)]
    start = time.time()
    text = p.to_string()
    assert text.startswith(f"t^{-(10**5)}+") and text.count("+") == a.bit_count() - 1
    assert P.from_string(text) == p
    assert mask_spread(a, 3) == mask_interleave([a, 0, 0], 3)
    assert mask_deinterleave(mask_interleave(masks, 3), 3) == masks
    assert time.time() - start < 5


@pytest.mark.parametrize("text", ["1+t^67108864", "t^-67108860+t^-5+1+t^3"])
def test_a_sparse_polynomial_at_the_span_cap_prints_in_its_terms(text):
    # a scan of the bit string built 67 million characters for these: 0.19 s
    # and 86 MB; the nonzero bytes take about 0.03 s
    p = P.from_string(text)
    start = time.perf_counter()
    assert p.to_string() == text
    assert time.perf_counter() - start < 0.1
    assert p.support() == tuple(P.from_string(term).max_exp for term in text.split("+"))
