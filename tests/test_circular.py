"""Angle wrapping, the one sin/cos primitive and mean resultants."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import SINCOS_BOUND
from ringtwist.circular import resultant, sincos, wrap_angle

# odd multiples of pi land on the edge of the interval
angles = st.one_of(st.integers(-7, 7).map(lambda k: k * np.pi),
                   st.floats(-1e6, 1e6, allow_nan=False))


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


@given(x=angles)
def test_wrap_angle_lands_in_half_open_interval_and_is_idempotent(x):
    w = wrap_angle(x)
    assert -np.pi < w <= np.pi
    # a wrapped angle is already in range, so a second wrap returns it exactly
    assert wrap_angle(w) == w
    # the wrapped angle is the same point on the circle
    assert abs(np.sin(w) - np.sin(x)) < 1e-9 and abs(np.cos(w) - np.cos(x)) < 1e-9


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@given(x=st.floats(-np.pi, np.pi, exclude_min=True))
def test_wrap_angle_returns_in_range_angles_exactly(x):
    assert _bits(wrap_angle(x)) == _bits(x)
    assert _bits(wrap_angle(np.array([x]))) == _bits([x])


@pytest.mark.parametrize("x", [np.pi, np.nextafter(-np.pi, 0.0), 0.0, -0.0, 1e-300, 3.0])
def test_wrap_angle_in_range_edges_are_exact(x):
    assert _bits(wrap_angle(x)) == _bits(x)


def test_wrap_angle_minus_pi_maps_to_pi():
    assert wrap_angle(-np.pi) == np.pi
    assert _bits(wrap_angle(np.array([-np.pi, np.pi]))) == _bits([np.pi, np.pi])


@given(xs=st.lists(angles, min_size=1, max_size=40))
def test_wrap_angle_each_element_alone(xs):
    # in-range and out-of-range elements mixed: no element's result
    # depends on its neighbours
    x = np.array(xs)
    w = wrap_angle(x)
    assert _bits(w) == b"".join(_bits(wrap_angle(v)) for v in x)
    assert _bits(wrap_angle(x.reshape(1, -1))) == _bits(w)


@pytest.mark.parametrize("shift", [2 * np.pi, -2 * np.pi, 40 * np.pi, 0.5, 0.0])
def test_wrap_angle_rows_outside_take_the_mod_formula(shift):
    # a row wholly outside (-pi, pi] (a pattern wound past +-pi), one
    # straddling an end of it, and one wholly inside: elements outside get
    # the np.mod formula bit for bit, elements inside come back as they are
    x = np.random.default_rng(7).uniform(-3.0, 3.0, 200) + shift
    moved = np.mod(x + np.pi, 2.0 * np.pi) - np.pi
    moved = np.where(moved <= -np.pi, moved + 2.0 * np.pi, moved)
    inside = (x > -np.pi) & (x <= np.pi)
    assert _bits(wrap_angle(x)) == _bits(np.where(inside, x, moved))
    # whichever row it is, each element has the bits of its scalar call
    assert _bits(wrap_angle(x)) == b"".join(_bits(wrap_angle(float(v))) for v in x)


def test_wrap_angle_empty_array():
    assert wrap_angle(np.array([])).shape == (0,)


def test_wrap_angle_scalar_returns_scalar():
    assert isinstance(wrap_angle(1.0), float)
    assert isinstance(wrap_angle(np.array([1.0, 2.0])), np.ndarray)


@pytest.mark.parametrize("x", [np.inf, -np.inf])
def test_wrap_angle_of_an_infinite_angle_is_nan_without_a_warning(x):
    # pytest turns the RuntimeWarning np.mod raises for inf into an error
    assert np.isnan(wrap_angle(x))
    wrapped = wrap_angle(np.array([x, 1.0, 4.0]))
    assert np.isnan(wrapped[0])
    assert np.array_equal(wrapped[1:], wrap_angle(np.array([1.0, 4.0])))


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


@pytest.mark.parametrize("n", [3, 4, 5, 10, 64, 1000, 10_000])
def test_resultant_is_the_mean_of_the_unit_phasors(n):
    # mean(cos) + i*mean(sin) is mean(exp(i*a)) up to round-off
    rows = np.random.default_rng(n).uniform(-np.pi, np.pi, (4, n))
    phasors = np.mean(np.exp(1j * rows), axis=-1)
    assert np.max(np.abs(resultant(rows) - phasors)) <= 1e-15
    for row, z in zip(rows, phasors):
        assert abs(resultant(row) - z) <= 1e-15


def _sincos_gap(x):
    # absolute error against np.sin / np.cos; 2.2e-16 was the worst seen
    s, c = sincos(x)
    return max(np.max(np.abs(s - np.sin(x))), np.max(np.abs(c - np.cos(x))))


@pytest.mark.parametrize("k", [1, 3, 6, 15, 300])
def test_sincos_is_sin_and_cos_within_the_bound(k):
    x = np.random.default_rng(k).uniform(-(10.0 ** k), 10.0 ** k, 200_000)
    assert _sincos_gap(x) <= SINCOS_BOUND


@pytest.mark.parametrize("k", [-1_000_001, -7, -4, -3, -2, -1, 1, 2, 3, 4, 7, 64, 1_000_001])
def test_sincos_near_the_multiples_of_half_pi(k):
    # the 101 floats within 50 ulp of k*pi/2, where t = tan(x/2) is near 0,
    # +-1 or +-inf and one of sin and cos is near zero
    centre = abs(k) * (np.pi / 2)
    bits = np.array([centre]).view(np.int64) + np.arange(-50, 51)
    x = np.copysign(bits.view(np.float64), k)
    assert _sincos_gap(x) <= SINCOS_BOUND


def test_sincos_keeps_the_sign_of_zero_and_is_exact_at_pi():
    s, c = sincos(np.array([0.0, -0.0]))
    assert _bits(s) == _bits([0.0, -0.0])
    assert _bits(c) == _bits([1.0, 1.0])
    x = np.array([np.pi, -np.pi])
    s, c = sincos(x)
    assert _bits(s) == _bits(np.sin(x)) and _bits(c) == _bits(np.cos(x))


def test_sincos_of_an_infinite_or_nan_angle_is_nan_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, c = sincos(np.array([np.inf, -np.inf, np.nan, 1.0]))
        scalar = sincos(np.inf)
    assert np.isnan(s[:3]).all() and np.isnan(c[:3]).all()
    assert _bits([s[3], c[3]]) == _bits(sincos(np.array([1.0])))
    assert np.isnan(scalar).all()


def test_sincos_shapes_and_rows():
    rng = np.random.default_rng(3)
    rows = rng.uniform(-50.0, 50.0, (3, 257))
    s, c = sincos(rows)
    assert s.shape == c.shape == (3, 257)
    # each element by itself: a row of a 2-D call is the 1-D call bit for bit,
    # which keeps resultant's rows equal to its 1-D calls
    for row, s_row, c_row in zip(rows, s, c):
        s1, c1 = sincos(row)
        assert _bits(s_row) == _bits(s1) and _bits(c_row) == _bits(c1)
        assert _bits(s_row[5]) == _bits(sincos(row[5])[0])
    s0, c0 = sincos(np.array(0.7))
    assert np.ndim(s0) == np.ndim(c0) == 0
    assert abs(s0 - np.sin(0.7)) <= SINCOS_BOUND and abs(c0 - np.cos(0.7)) <= SINCOS_BOUND
    assert sincos(np.array([]))[0].shape == (0,)


_SPECIAL = [0.0, -0.0, np.pi, -np.pi, np.inf, -np.inf, np.nan, 1.0, -2.5, 1e300]


@pytest.mark.parametrize("x", [
    np.array(_SPECIAL),
    np.random.default_rng(8).uniform(-1e3, 1e3, 1000),
    np.vstack([_SPECIAL, np.random.default_rng(9).uniform(-9.0, 9.0, (3, 10))]),
])
@pytest.mark.parametrize("into_x", [False, True])
def test_sincos_into_given_arrays_is_sincos_bit_for_bit(x, into_x):
    # out=(s, c) returns s and c themselves with the bits of the allocating
    # call, and s may be x itself, read before it is written
    expected_s, expected_c = sincos(x)
    s = x.copy() if into_x else np.full_like(x, 7.0)
    c = np.full_like(x, 7.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_s, got_c = sincos(s if into_x else x, out=(s, c))
    assert got_s is s and got_c is c
    assert _bits(s) == _bits(expected_s) and _bits(c) == _bits(expected_c)
