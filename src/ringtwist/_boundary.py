"""Input checks and output writers shared by every layer.

A parameter is accepted by one rule (check_int, check_seed, check_real),
and a number is written one way (write_csv, write_json), in every module.
"""

from __future__ import annotations

import csv
import json
from math import inf
from numbers import Integral, Real
from sys import float_info

import numpy as np


def check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise ValueError unless value is an integer (or integer ndarray) in [lo, hi]."""
    if isinstance(value, np.ndarray):
        ok = value.dtype.kind in "iu" and (
            value.size == 0 or (value.min() >= lo and (hi is None or value.max() <= hi)))
    else:
        ok = (isinstance(value, Integral) and not isinstance(value, bool)
              and lo <= value and (hi is None or value <= hi))
    if not ok:
        bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")


def check_seed(name: str, seed) -> None:
    """Raise ValueError unless seed is None or an integer in [0, 2**64)."""
    if seed is not None and not (isinstance(seed, Integral)
                                 and not isinstance(seed, bool) and 0 <= seed < 2**64):
        raise ValueError(
            f"{name} must be None or an integer in [0, 2**64), got {seed!r}")


def check_real(name: str, value, lo: float = -inf, hi: float = inf,
               ends: str = "[]") -> None:
    """Raise ValueError unless value is a finite real number in the interval.

    ends is "[]", "(]", "[)" or "()"; a round bracket excludes that bound.
    bool, str, list and None are refused.  An ndarray is checked element by
    element, and the first value outside the interval is named.  A float16 or
    float32 scalar must lie below inf, the value float_info.max rounds to in
    its type, so that no cast of float_info.max overflows.
    """
    def inside(v):
        return ((lo < v) if ends[0] == "(" else (lo <= v)) & (
            (v < hi) if ends[1] == ")" else (v <= hi))

    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        bad = ~(np.isfinite(value) & inside(value))
        if not bad.any():
            return
        value = value[bad].flat[0].item()
    elif ((type(value) is float
           or (isinstance(value, Real) and not isinstance(value, bool)))
          and (abs(value) < inf if isinstance(value, (np.float16, np.float32))
               else abs(value) <= float_info.max) and inside(value)):
        return  # nan fails both tests, and so does an int beyond the float range
    interval = "" if (lo, hi) == (-inf, inf) else f" in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValueError(f"{name} must be a finite real number{interval}, got {value!r}")


def write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write a CSV with LF line endings and floats in shortest round-trip form.

    csv writes None as an empty field and any other cell with str, quoting
    where needed; str of a Python float, or of a numpy float64, is its
    shortest round-trip form.  A comment becomes a leading "# comment" line.
    """
    with open(path, "w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, payload) -> None:
    """Write payload as JSON: indent 2, str() for other objects, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
