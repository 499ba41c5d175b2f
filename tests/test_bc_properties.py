"""Property tests: the f + d >= 1 obstruction over random (M, N, theta)."""

from __future__ import annotations

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qtwoparty import bc  # noqa: E402

# every row with M*N <= 12 is exact under the default cap
grid_rows = st.integers(1, 12).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, 12 // m)))
angles = st.floats(min_value=0.0, max_value=math.pi / 4, exclude_min=True)
deterministic = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@deterministic
@given(grid_rows, angles)
def test_f_plus_d_at_least_one(row, theta):
    params = bc.BcParams(*row, theta)
    f = bc.compute_f(params)
    d = bc.compute_d(params)
    assert d.exact
    assert f + d.value >= 1 - 1e-9


@deterministic
@given(grid_rows, angles)
def test_d_inside_fuchs_van_de_graaf_bracket(row, theta):
    # 1 - f <= d <= sqrt(1 - f^2); the upper end is checked as f^2 + d^2 <= 1,
    # because sqrt(1 - f^2) turns the rounding of f ~ 1 at small theta into
    # errors of order 1e-8
    params = bc.BcParams(*row, theta)
    f = bc.compute_f(params)
    d = bc.compute_d(params).value
    assert 1 - f <= d + 1e-9
    assert f * f + d * d <= 1 + 1e-9
