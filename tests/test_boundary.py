"""One rule for every numeric input, one writer for every CSV and JSON file."""

import csv
import json
from contextlib import nullcontext
from fractions import Fraction
from math import ceil, floor, inf, isfinite, nan, pi

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _oracles import check_real_abc
from ringtwist._boundary import check_int, check_real, write_csv, write_json
from ringtwist.dynamics import SimulationConfig, integrate_system
from ringtwist.graphs import GraphSpec
from ringtwist.spectrum import ModeParams


def graph(**kwargs):
    return GraphSpec(**{"n": 20, "p": 1.0, "kappa": 0.3, **kwargs})


def sparse_graph(**kwargs):
    return graph(**{"kind": "random_sparse", "gamma": 0.3, "seed": 1, **kwargs})


def config(**kwargs):
    return SimulationConfig(**{"graph": graph(), "q": 1, "ic_seed": 1, **kwargs})


# every float field: (constructor, field, lo, hi, ends, may it be None)
FLOAT_FIELDS = [
    (graph, "p", 0.0, 1.0, "(]", False),
    (graph, "kappa", 0.0, 0.5, "()", False),
    (graph, "gamma", 0.0, 0.5, "()", True),
    (sparse_graph, "gamma", 0.0, 0.5, "()", False),
    (config, "sigma", -inf, inf, "[]", False),
    (config, "omega", -inf, inf, "[]", True),
    (config, "t_end", 0.0, inf, "()", False),
    # DOP853 raises a smaller rel_tol to 100 machine epsilons
    (config, "rel_tol", 100 * np.finfo(float).eps, inf, "[)", False),
    (config, "abs_tol", 0.0, inf, "[)", False),
    (config, "sample_dt", 0.0, inf, "()", False),
    (config, "perturbation_amplitude", 0.0, inf, "[)", False),
    (config, "ic_mode1_amplitude", -inf, inf, "[]", False),
    (config, "ic_mode1_phase", -inf, inf, "[]", False),
    (ModeParams, "kappa", 0.0, 0.5, "(]", False),
    (ModeParams, "sigma", -pi / 2, pi / 2, "()", False),
    (ModeParams, "p", 0.0, 1.0, "(]", False),
]
IDS = [f"{make.__name__}.{name}" for make, name, *_ in FLOAT_FIELDS]

NOT_REALS = st.one_of(st.booleans(), st.text(), st.lists(st.floats(), max_size=2),
                      st.sampled_from([nan, inf, -inf]))


@pytest.mark.parametrize("make, name, lo, hi, ends, optional", FLOAT_FIELDS, ids=IDS)
@given(value=NOT_REALS)
@example(value=True)
@example(value=False)
@example(value="0.5")
@example(value=[0.5])
@example(value=nan)
@example(value=inf)
@example(value=-inf)
def test_float_fields_refuse_anything_but_a_finite_real(make, name, lo, hi, ends,
                                                        optional, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite real number"):
        make(**{name: value})


@pytest.mark.parametrize("make, name, lo, hi, ends, optional", FLOAT_FIELDS, ids=IDS)
def test_none_is_refused_unless_the_field_is_optional(make, name, lo, hi, ends,
                                                      optional):
    if optional:
        assert getattr(make(**{name: None}), name) is None
    else:
        with pytest.raises(ValueError, match=name):
            make(**{name: None})


@pytest.mark.parametrize("make, name, lo, hi, ends, optional", FLOAT_FIELDS, ids=IDS)
@given(data=st.data())
def test_numpy_scalars_in_range_are_accepted(make, name, lo, hi, ends, optional, data):
    x = data.draw(st.floats(lo, hi, exclude_min=ends[0] == "(",
                            exclude_max=ends[1] == ")", allow_nan=False,
                            allow_infinity=False))
    # a gamma off random_sparse is checked, then dropped
    kept = (make, name) != (graph, "gamma")
    assert getattr(make(**{name: np.float64(x)}), name) == (x if kept else None)
    ints = range(ceil(max(lo, -10)), floor(min(hi, 10)) + 1)
    k = data.draw(st.sampled_from([k for k in ints
                                   if (k != lo or ends[0] == "[")
                                   and (k != hi or ends[1] == "]")] or [None]))
    if k is not None:
        assert getattr(make(**{name: np.int64(k)}), name) == (k if kept else None)


def test_check_real_names_the_first_bad_array_element():
    check_real("kappa", np.array([0.1, 0.5]), 0.0, 0.5, "(]")
    with pytest.raises(ValueError, match=r"kappa must be .* in \(0, 0.5\], got 0.7"):
        check_real("kappa", np.array([0.1, 0.7, 0.0]), 0.0, 0.5, "(]")
    with pytest.raises(ValueError, match="got nan"):
        check_real("sigma", np.array([0.0, nan]))


@pytest.mark.parametrize("value", [10**400, -10**400, np.bool_(True), 1 + 0j])
def test_check_real_refuses_what_no_float_holds(value):
    with pytest.raises(ValueError, match="x must be a finite real number"):
        check_real("x", value)


def _refusal(check, value, lo, hi, ends):
    # the oracle meets a float32 scalar with a cast of float_info.max that
    # overflows to inf and warns; only its warning is silenced, so one from
    # check_real fails the test
    try:
        with np.errstate(over="ignore") if check is check_real_abc else nullcontext():
            check("x", value, lo, hi, ends)
    except ValueError as exc:
        return str(exc)
    return None


BRACKETS = [(lo, hi, ends) for lo, hi in [(0.0, 0.5), (-pi / 2, pi / 2), (0.0, 1.0),
                                          (0.0, inf), (-inf, inf)]
            for ends in ("[]", "(]", "[)", "()")]


def _edge_values(lo, hi):
    # each finite end, and one step inside and outside it, in every scalar
    # and array form a caller may pass
    steps = [x for end in (lo, hi) if isfinite(end)
             for x in (np.nextafter(end, -inf), end, np.nextafter(end, inf))]
    return [form(float(x)) for x in steps + [0.25]
            for form in (float, np.float64, np.float32, Fraction, np.array,
                         lambda v: np.array([0.25, v]))]


@pytest.mark.parametrize("make", [np.float16, np.float32])
def test_narrow_float_scalars_are_checked_without_a_warning(make):
    # the suite turns warnings into errors; float_info.max cast to these
    # types overflows to inf, so a check that makes that cast fails here
    assert ModeParams(q=1, kappa=make(0.2)).kappa == make(0.2)
    for lo, hi, ends in BRACKETS:
        check_real("x", make(0.25), lo, hi, ends)
    for value, lo, hi in [(make(0.75), 0.0, 0.5), (make(nan), -inf, inf)]:
        with pytest.raises(ValueError, match="x must be a finite real number"):
            check_real("x", value, lo, hi)


@pytest.mark.parametrize("make", [float, np.float16, np.float32, np.float64,
                                  np.longdouble])
def test_infinite_scalars_of_every_float_width_are_refused(make):
    # an infinite float16 or float32 is no more finite than a Python inf
    for sign in (1, -1):
        value = make(sign * inf)
        for lo, hi, ends in BRACKETS:
            with pytest.raises(ValueError,
                               match=r"x must be a finite real number.*got .*inf"):
                check_real("x", value, lo, hi, ends)
    for refuse in (lambda: config(t_end=make(inf)),
                   lambda: integrate_system(lambda t, u: -u, np.ones(2), make(inf))):
        with pytest.raises(ValueError, match="t_end must be a finite real number"):
            refuse()


@pytest.mark.parametrize("lo, hi, ends", BRACKETS)
def test_check_real_keeps_the_abc_rule_at_every_edge(lo, hi, ends):
    values = _edge_values(lo, hi) + [
        True, False, np.bool_(False), nan, inf, -inf, 10**400, -10**400, 0, 1,
        np.int64(1), Fraction(1, 3), 1 + 0j, "0.25", None, [0.25],
        np.array(nan), np.array([0.25, inf]), np.array([1, 2]), np.array([True])]
    for value in values:
        assert (_refusal(check_real, value, lo, hi, ends)
                == _refusal(check_real_abc, value, lo, hi, ends)), value


@pytest.mark.parametrize("lo, hi, ends", BRACKETS)
@given(value=st.one_of(st.floats(), st.integers(), st.fractions(),
                       st.floats(width=32).map(np.float32),
                       st.floats().map(np.float64)))
def test_check_real_keeps_the_abc_rule(lo, hi, ends, value):
    assert (_refusal(check_real, value, lo, hi, ends)
            == _refusal(check_real_abc, value, lo, hi, ends))


@pytest.mark.parametrize("value", [True, 1.0, "1", [1], None, np.array([1.0])])
def test_check_int_refuses_non_integers(value):
    with pytest.raises(ValueError, match="q must be an integer >= 0"):
        check_int("q", value, 0)


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"],
              [[1, np.float64(0.1), None], [np.int64(2), 1e-20, "x,y"]],
              comment="run 1")
    text = path.read_bytes().decode()
    assert text == '# run 1\na,b,c\n1,0.1,\n2,1e-20,"x,y"\n'
    rows = list(csv.reader(text.splitlines()[1:]))
    assert float(rows[2][1]) == 1e-20


def test_write_json_format(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"x": 0.1, "path": tmp_path})
    text = path.read_text()
    assert text.endswith("}\n") and text.startswith('{\n  "x": 0.1,')
    assert json.loads(text)["path"] == str(tmp_path)
