import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sqewit._special import lgam
from sqewit.errors import ContractViolationError


@pytest.mark.parametrize("xs", [np.arange(1.0, 5001.0), np.arange(0.5, 5001.0)], ids=["integers", "half-integers"])
def test_lgam_bitwise_gammaln_on_grid(xs):
    assert np.array_equal([lgam(x) for x in xs], gammaln(xs))


@settings(max_examples=500, deadline=None)
@given(x=st.floats(0.0, 2000.0, exclude_min=True))
def test_lgam_bitwise_gammaln(x):
    assert lgam(x) == gammaln(x)


@pytest.mark.parametrize("x", [0.0, -1.5, float("inf"), float("nan")])
def test_lgam_rejects_outside_domain(x):
    with pytest.raises(ContractViolationError):
        lgam(x)
