"""Angle wrapping and mean resultants."""

import numpy as np
import pytest

from ringtwist.circular import resultant, wrap_angle


@pytest.mark.parametrize("x, expected", [
    (0.0, 0.0),
    (np.pi, np.pi),
    (-np.pi, np.pi),
    (3 * np.pi, np.pi),
    (2 * np.pi, 0.0),
    (np.pi + 1e-9, -np.pi + 1e-9),
    (-3.0, -3.0),
    (7.0, 7.0 - 2 * np.pi),
])
def test_wrap_angle_values(x, expected):
    assert wrap_angle(x) == pytest.approx(expected, abs=1e-12)


def test_wrap_angle_range_on_dense_grid():
    x = np.linspace(-50.0, 50.0, 100001)
    w = wrap_angle(x)
    assert np.all(w > -np.pi)
    assert np.all(w <= np.pi)
    # wrapping preserves the angle modulo 2*pi
    assert np.allclose(np.mod(w - x, 2 * np.pi), 0.0, atol=1e-9) or np.allclose(
        np.mod(w - x + np.pi, 2 * np.pi), np.pi, atol=1e-9
    )


def test_wrap_angle_scalar_returns_scalar():
    assert isinstance(wrap_angle(1.0), float)
    assert isinstance(wrap_angle(np.array([1.0, 2.0])), np.ndarray)


def test_resultant_and_mean_concentrated():
    rng = np.random.default_rng(4)
    angles = 0.7 + rng.normal(0.0, 0.05, 500)
    z = resultant(angles)
    assert abs(z) > 0.9
    assert np.angle(z) == pytest.approx(0.7, abs=0.01)


def test_circular_mean_handles_wrap_discontinuity():
    # samples straddling the +-pi cut: the arithmetic mean would be ~0,
    # the resultant's direction must stay at the cut
    angles = np.array([np.pi - 0.1, -np.pi + 0.1, np.pi - 0.05, -np.pi + 0.05])
    mean = np.angle(resultant(angles))
    assert abs(wrap_angle(mean - np.pi)) < 1e-9


def test_resultant_degenerate_is_tiny():
    angles = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    assert abs(resultant(angles)) < 1e-14


def test_resultant_per_row_matches_one_dimensional():
    rng = np.random.default_rng(9)
    rows = rng.uniform(-np.pi, np.pi, (3, 50))
    z = resultant(rows)
    assert z.shape == (3,)
    assert [complex(v) for v in z] == [resultant(row) for row in rows]
    assert isinstance(resultant(rows[0]), complex)
