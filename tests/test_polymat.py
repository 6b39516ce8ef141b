"""Properties of the matrix-valued polynomials over F2."""

from hypothesis import given, settings
from hypothesis import strategies as st

from commlab.polymat import BitMat, PolyMat

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def polymats(draw):
    """n x n, n = 1..6, with 0 to 6 coefficients at a shift in [-3, 3]."""
    n = draw(st.integers(1, 6))
    entries = st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)
    coeffs = draw(st.lists(entries, max_size=6))
    return PolyMat(n, (BitMat(n, rows) for rows in coeffs), draw(st.integers(-3, 3)))


@PROPERTY
@given(polymats(), st.integers(0, 63).map(lambda m: 2 * m + 1))
def test_scalar_div_inverts_scalar_mul(mat, mask):
    # odd masks of degree 0 to 6
    assert mat.scalar_mul(mask).scalar_div(mask) == mat
