"""Correctness checks for the benchmark's outputs, with fixed tolerances.

Every check compares the program's output against something computed here
without ringtwist's code paths: a root-find on adaptive quadrature of the
defining integrals, a direct per-row sum, graph properties counted from the
CSR arrays, or the modulation and deviation recomputed with plain numpy.
Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
from math import cos, pi, sin, sqrt

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

KAPPA_TOL = 1e-9
NU1_TOL = 1e-9
SPECTRUM_TOL = 1e-9
RHS_TOL = 1e-12
ANALYSIS_TOL = 1e-9
# Every seed draws a new graph, so a z-bound is a false-alarm rate per run:
# 3 sigma would fail 0.27 % of correct graphs, 5 sigma fails 6e-7 of them
# and still rejects a 1 % bias in the edge probability on both random
# workloads (50 sigma dense, 12 sigma sparse).
DENSITY_SIGMAS = 5.0
BULK_DEVIATION_MAX = 0.3
MODULATION_R_MIN = 0.1
PSI_RATIO_RANGE = (0.8, 1.2)

_QUAD = dict(epsabs=1e-13, epsrel=1e-13, limit=200)


# -- references from quadrature ---------------------------------------------

def chi1_quad(kappa: float, ell: int, q: int) -> float:
    """cos-cos window overlap minus the window constant sin(2 pi q k)/(pi q)."""
    val, _ = quad(lambda y: cos(2 * pi * q * y) * cos(2 * pi * ell * y),
                  -kappa, kappa, **_QUAD)
    return val - sin(2 * pi * q * kappa) / (pi * q)


def chi2_quad(kappa: float, ell: int, q: int) -> float:
    """sin-sin window overlap."""
    val, _ = quad(lambda y: sin(2 * pi * q * y) * sin(2 * pi * ell * y),
                  -kappa, kappa, **_QUAD)
    return val


def kappa_crit_quad(q: int) -> float:
    """Smallest zero of chi1_quad(.; 1, q) in (0, 1/2), by scan and brentq."""
    grid = np.linspace(0.005, 0.4995, 199)
    prev = chi1_quad(grid[0], 1, q)
    for lo, hi in zip(grid[:-1], grid[1:]):
        val = chi1_quad(hi, 1, q)
        if prev * val < 0.0:
            return brentq(chi1_quad, lo, hi, args=(1, q), xtol=1e-15, rtol=1e-15)
        prev = val
    raise ValueError(f"no sign change of chi1(.; 1, {q}) on the scan grid")


def nu1_quad(q: int, p: float, sigma: float, kappa_crit: float) -> float:
    """Modulation frequency p*chi2(kappa_crit; 1, q)*sin(sigma)."""
    return p * chi2_quad(kappa_crit, 1, q) * sin(sigma)


def max_real_quad(q: int, kappa: float, sigma: float, p: float, ell_max: int) -> float:
    """Max over l = 1..ell_max of the real part of the quadrature eigenvalue.

    The real part of p*int cos(2 pi q z + sigma) e^{2 pi i l z} dz over the
    window, minus p*cos(sigma)*sin(2 pi q kappa)/(pi q).
    """
    best = -np.inf
    for ell in range(1, ell_max + 1):
        re, _ = quad(lambda z: cos(2 * pi * q * z + sigma) * cos(2 * pi * ell * z),
                     -kappa, kappa, **_QUAD)
        best = max(best, p * re - p * cos(sigma) * sin(2 * pi * q * kappa) / (pi * q))
    return best


class References:
    """Quadrature references, each computed once per run."""

    def __init__(self) -> None:
        self._kappa: dict[int, float] = {}

    def kappa_crit(self, q: int) -> float:
        if q not in self._kappa:
            self._kappa[q] = kappa_crit_quad(q)
        return self._kappa[q]


# -- closed forms ------------------------------------------------------------

def check_normal_forms(points, values, refs: References) -> list[str]:
    """kappa_crit and nu1 of each (q, sigma, p) point against quadrature."""
    failures = []
    for (q, sigma, p, _), (kappa_crit, nu1) in zip(points, values):
        ref_kappa = refs.kappa_crit(q)
        if not abs(kappa_crit - ref_kappa) <= KAPPA_TOL:
            failures.append(f"kappa_crit q={q}: {kappa_crit!r} vs quadrature {ref_kappa!r}")
        ref_nu1 = nu1_quad(q, p, sigma, ref_kappa)
        if not abs(nu1 - ref_nu1) <= NU1_TOL:
            failures.append(f"nu1 q={q} sigma={sigma:.4f}: {nu1!r} vs quadrature {ref_nu1!r}")
    return failures


def check_spectra(points, max_real_parts, ell_max: int) -> list[str]:
    """Max real parts of sampled spectra against quadrature eigenvalues."""
    failures = []
    for (q, kappa, sigma, p), value in zip(points, max_real_parts):
        ref = max_real_quad(q, kappa, sigma, p, ell_max)
        if not abs(value - ref) <= SPECTRUM_TOL:
            failures.append(
                f"max Re lambda q={q} kappa={kappa:.5f}: {value!r} vs quadrature {ref!r}")
    return failures


# -- graph and right-hand side -----------------------------------------------

def check_csr_graph(indptr, indices, data, n: int, halfwidth: int,
                    edge_probability: float) -> list[str]:
    """Symmetric, 0/1, inside the band, density near the binomial target."""
    indptr = np.asarray(indptr, dtype=np.int64)
    cols = np.asarray(indices, dtype=np.int64)
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    failures = []
    if not np.all(np.asarray(data) == 1.0):
        failures.append("adjacency has entries other than 1")
    keys = np.sort(rows * n + cols)
    if np.any(np.diff(keys) == 0):
        failures.append("adjacency stores an entry twice")
    if not np.array_equal(keys, np.sort(cols * n + rows)):
        failures.append("adjacency is not symmetric")
    dist = np.abs(rows - cols)
    if np.any(np.minimum(dist, n - dist) > halfwidth):
        failures.append(f"adjacency has entries outside the band of half-width {halfwidth}")
    diagonal = int(np.count_nonzero(rows == cols))
    pairs = diagonal + (len(cols) - diagonal) / 2
    universe = n * (halfwidth + 1)
    target = edge_probability
    spread = sqrt(target * (1.0 - target) / universe)
    z = (pairs / universe - target) / spread
    if not abs(z) <= DENSITY_SIGMAS:
        failures.append(f"band density {pairs / universe:.6g} is {z:+.2f} sigma "
                        f"from the target {target:.6g}")
    return failures


def check_rhs_rows(fast, u, rows, neighbors, omega: float, sigma: float,
                   prefactor: float) -> list[str]:
    """Fast RHS values against omega + prefactor * sum_j sin(u_j - u_k + sigma)."""
    failures = []
    for k in rows:
        direct = omega + prefactor * float(np.sum(np.sin(u[neighbors(k)] - u[k] + sigma)))
        if not abs(fast[k] - direct) <= RHS_TOL:
            failures.append(f"rhs row {k}: fast {float(fast[k])!r} vs direct {direct!r}")
    return failures


# -- analysis ----------------------------------------------------------------

def _wrap(x):
    w = np.mod(x + pi, 2.0 * pi) - pi
    return np.where(w <= -pi, w + 2.0 * pi, w)


def _deviation_chunks(phases, q: int, rows: int = 64):
    """Yield the wrapped deviation from the rotation-aligned q-twisted
    profile for consecutive blocks of rows."""
    n = phases.shape[1]
    profile = 2.0 * pi * q * np.arange(1, n + 1) / n
    for lo in range(0, phases.shape[0], rows):
        raw = phases[lo:lo + rows] - profile
        z = np.mean(np.exp(1j * raw), axis=1)
        theta = np.where(np.abs(z) >= 1e-12, np.angle(z), 0.0)
        yield _wrap(raw - theta[:, None])


def deviation_stats(phases, q: int):
    """Max and median absolute deviation of each row."""
    stats = [(np.max(a, axis=1), np.median(a, axis=1))
             for a in map(np.abs, _deviation_chunks(phases, q))]
    return (np.concatenate([s[0] for s in stats]),
            np.concatenate([s[1] for s in stats]))


def modulation(times, phases, q: int):
    """First-harmonic amplitude r per row and the fitted rate of its phase psi."""
    x = 2.0 * pi * np.arange(1, phases.shape[1] + 1) / phases.shape[1]
    c, s = [], []
    for v in _deviation_chunks(phases, q):
        c.append(np.mean(v * np.cos(x), axis=1))
        s.append(np.mean(v * np.sin(x), axis=1))
    c, s = np.concatenate(c), np.concatenate(s)
    psi = np.unwrap(np.arctan2(c, s))
    return 2.0 * np.hypot(c, s), float(np.polyfit(times, psi, 1)[0])


def winding(u, window: int) -> int:
    """Winding number of e^{iu} after a circular moving average of width window."""
    z = np.exp(1j * np.asarray(u, dtype=float))
    ext = np.concatenate([z[-window:], z, z[:window]])
    smooth = np.convolve(ext, np.ones(window) / window, mode="same")[window:-window]
    theta = np.angle(smooth)
    return int(np.round(np.sum(_wrap(np.diff(np.append(theta, theta[0])))) / (2.0 * pi)))


def check_analysis(r, psi_rate, deviation, own_r, own_psi_rate, own_deviation,
                   compare_rate: bool) -> list[str]:
    """The program's modulation and deviation series against the recomputation."""
    failures = []
    gap = float(np.max(np.abs(np.asarray(r) - own_r)))
    if not gap <= ANALYSIS_TOL:
        failures.append(f"modulation amplitude differs from recomputation by {gap:.3e}")
    if compare_rate and not abs(psi_rate - own_psi_rate) <= ANALYSIS_TOL:
        failures.append(f"psi_rate {psi_rate!r} vs recomputation {own_psi_rate!r}")
    gap = float(np.max(np.abs(np.asarray(deviation) - own_deviation)))
    if not gap <= ANALYSIS_TOL:
        failures.append(f"deviation series differs from recomputation by {gap:.3e}")
    return failures


def check_modulation_settles(r_late, psi_rate: float, nu1: float) -> list[str]:
    """Late-window r_min above 0.1 and |psi_rate|/|nu1| within [0.8, 1.2]."""
    failures = []
    r_min = float(np.min(r_late))
    if not r_min > MODULATION_R_MIN:
        failures.append(f"modulation collapsed: late r_min {r_min:.4f}")
    ratio = abs(psi_rate) / abs(nu1)
    lo, hi = PSI_RATIO_RANGE
    if not lo <= ratio <= hi:
        failures.append(f"|psi_rate|/nu1 = {ratio:.4f} outside [{lo}, {hi}]")
    return failures


def check_twist_persists(bulk_medians, wind: int, q: int) -> list[str]:
    """Bulk median deviation at most 0.3 and the smoothed winding equal to q."""
    failures = []
    worst = float(np.max(bulk_medians))
    if not worst <= BULK_DEVIATION_MAX:
        failures.append(f"bulk median deviation reached {worst:.4f}")
    if wind != q:
        failures.append(f"winding slipped from {q} to {wind}")
    return failures


# -- outputs -----------------------------------------------------------------

def check_files(files: dict, csv_rows: int, command: str) -> list[str]:
    """Every file the CLI command writes exists; CSV row count; JSON parses."""
    failures = []
    for role, path in files.items():
        try:
            with open(path) as fh:
                text = fh.read()
        except OSError as exc:
            failures.append(f"{role} not readable: {exc}")
            continue
        if path.endswith(".json"):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                failures.append(f"{role} is not JSON: {exc}")
                continue
            if role == "manifest" and payload.get("command") != command:
                failures.append(f"manifest command {payload.get('command')!r} != {command!r}")
        elif text.count("\n") != csv_rows:
            failures.append(f"{role} has {text.count(chr(10))} lines, expected {csv_rows}")
    return failures
