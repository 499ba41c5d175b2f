"""Property tests: the f + d >= 1 obstruction over random (M, N, theta)."""

from __future__ import annotations

import math
import subprocess
import sys
import textwrap
from pathlib import Path

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


@deterministic
@given(grid_rows, angles)
def test_steering_and_parity_cheats_sum_to_at_least_three_halves(row, theta):
    # (1 + f)/2 + (1 + d)/2 >= 3/2 is f + d >= 1 in cheat probabilities, and
    # steering beats committing honestly and switching later: f >= f^2
    rep = bc.cheat_report(bc.BcParams(*row, theta))
    assert rep.d.exact
    assert rep.alice_steer + rep.bob_quantum >= 1.5 - 1e-12
    assert rep.alice_steer >= rep.alice_quantum


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_reports_its_example(tmp_path):
    # under this repository's warning filters a false property fails its own
    # test and prints its falsifying example; it does not end the pytest run
    # with an INTERNALERROR. The warning filtered for this is libcst's, which
    # hypothesis imports for its report only where libcst is installed.
    pytest.importorskip("libcst")
    (tmp_path / "test_false_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=20, deadline=None, derandomize=True, database=None)
        @given(st.integers(0, 10))
        def test_below_five(x):
            assert x < 5
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_false_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout, run.stdout
