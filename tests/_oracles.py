"""Independent numerical oracles for the closed-form implementations.

Everything here recomputes quantities from their defining integrals or by
brute force, deliberately sharing no code path with the package: window
overlap factors and eigenvalues via adaptive quadrature of the
linearization operator, rotation-aligned distances via a dense angle grid,
the oscillator right-hand side via a literal double loop over neighbors and
as one plain expression over two separate real prefix sums (the package's
arithmetic before its sums were fused, so it must agree bit for bit; its
sin and cos come from the package's `circular.sincos` for that reason, or
from numpy's sin and cos to bound what the tangent form moves), the
continuum limit's right-hand side as an FFT multiplier written from its
equation, the band as a dense matrix, random graphs via one unchunked draw
of every in-band pair kept as edges whatever the probability, their files
byte by byte from the layout, sampled runs via scipy's own solve_ivp loop,
and the sample grid built whole before its end is fixed.  One exception is
the per-row modulation summaries: they align each stored row on its own
with the package's `_align` and project it one scalar at a time, so they
check that the package's one pass over the samples gives the same numbers
bit for bit.  The band's FFT right-hand side is a second: it reads the
package's ring symbol `_half_window(kappa, d, n)`, so it checks that symbol
against the prefix sums.  The input rule for a finite real is kept as first
written, through the numbers.Real ABC alone, so a faster rule can be
checked to accept and refuse the same values.
"""

from __future__ import annotations

import struct
from math import cos, inf, pi, sin
from numbers import Real
from sys import float_info

import numpy as np
from scipy import sparse
from scipy.integrate import quad, solve_ivp

from ringtwist.analysis import _align
from ringtwist.circular import sincos
from ringtwist.dynamics import twisted_profile
from ringtwist.spectrum import _half_window


def chi1_quad(kappa: float, ell: int, q: int) -> float:
    """chi1 from its defining integral: the cos-cos window overlap minus
    the window constant sin(2*pi*q*kappa)/(pi*q)."""
    val, _ = quad(lambda y: cos(2 * pi * q * y) * cos(2 * pi * ell * y),
                  -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val - sin(2 * pi * q * kappa) / (pi * q)


def chi2_quad(kappa: float, ell: int, q: int) -> float:
    """chi2 from its defining integral: the sin-sin window overlap."""
    val, _ = quad(lambda y: sin(2 * pi * q * y) * sin(2 * pi * ell * y),
                  -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    return val


def eigenvalue_quad(kappa: float, ell: int, q: int, sigma: float,
                    p: float) -> complex:
    """Mode-l eigenvalue by quadrature of the linearization operator.

    The linearization of the continuum phase model about the q-twisted
    state, applied to e^{2*pi*i*l*x} and evaluated at x = 0, is
    p * int_{-k}^{k} cos(2*pi*q*z + sigma) e^{2*pi*i*l*z} dz minus the
    window constant p*cos(sigma)*sin(2*pi*q*kappa)/(pi*q).  This is the
    "+" branch; its conjugate is the "-" branch.
    """
    re, _ = quad(lambda z: cos(2 * pi * q * z + sigma) * cos(2 * pi * ell * z),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda z: cos(2 * pi * q * z + sigma) * sin(2 * pi * ell * z),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    return p * complex(re, im) - p * cos(sigma) * sin(2 * pi * q * kappa) / (pi * q)


def eigenvalue_q0_quad(kappa: float, ell: int, sigma: float, p: float) -> complex:
    """Winding-free eigenvalue by quadrature of the same operator at q = 0,
    whose window constant is p*cos(sigma)*2*kappa."""
    re, _ = quad(lambda z: cos(sigma) * cos(2 * pi * ell * z),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    im, _ = quad(lambda z: cos(sigma) * sin(2 * pi * ell * z),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    return p * complex(re, im) - p * cos(sigma) * 2.0 * kappa


def a_coeffs_quad(q: int, j: int, kappa: float) -> tuple[float, float]:
    """Overlap coefficients from their defining product integrals."""
    a1, _ = quad(lambda y: -sin(2 * pi * q * y) * sin(2 * pi * j * y),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    a2, _ = quad(lambda y: -cos(2 * pi * q * y) * cos(2 * pi * j * y),
                 -kappa, kappa, epsabs=1e-13, epsrel=1e-13, limit=200)
    return a1, a2


def integrate_solve_ivp(rhs, y0: np.ndarray, times: np.ndarray, *, rel_tol: float,
                        abs_tol: float):
    """(times, states, nfev) from solve_ivp with DOP853, sampled at the given times."""
    sol = solve_ivp(rhs, (0.0, times[-1]), y0, method="DOP853", rtol=rel_tol,
                    atol=abs_tol, t_eval=times)
    assert sol.success, sol.message
    return sol.t, sol.y.T, sol.nfev


def sample_grid_as_first_written(t_end: float, sample_dt: float) -> np.ndarray:
    """The sample grid built as a whole array, then extended or ended at t_end."""
    grid = sample_dt * np.arange(int(np.floor(t_end / sample_dt + 1e-9)) + 1)
    if grid[-1] < t_end - 1e-9 * max(1.0, abs(t_end)):
        return np.append(grid, t_end)
    grid[-1] = t_end
    return grid


def dop853_accepted_steps(rhs, y0: np.ndarray, t_end: float, *, rel_tol: float,
                          abs_tol: float) -> int:
    """Accepted DOP853 steps: solve_ivp without t_eval keeps every step's end."""
    sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=rel_tol, atol=abs_tol)
    assert sol.success, sol.message
    return len(sol.t) - 1


def band_matrix(n: int, m: int, weight: float = 1.0) -> np.ndarray:
    """Dense circulant band: weight where the circular index distance is <= m."""
    d = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return np.where(np.minimum(d, n - d) <= m, weight, 0.0)


def distance_grid(a: np.ndarray, b: np.ndarray, coarse: int = 4096,
                  refine: int = 4096) -> float:
    """Rotation-aligned RMS distance by brute-force angle search.

    Minimizes sqrt(mean(wrap(a - b - theta)^2)) over a dense theta grid,
    then refines around the coarse minimum.
    """
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)

    def rms(thetas: np.ndarray) -> np.ndarray:
        res = diff[None, :] - thetas[:, None]
        res = np.mod(res + pi, 2 * pi) - pi
        return np.sqrt(np.mean(res * res, axis=1))

    thetas = np.linspace(-pi, pi, coarse, endpoint=False)
    vals = rms(thetas)
    best = thetas[int(np.argmin(vals))]
    step = 2 * pi / coarse
    fine = np.linspace(best - step, best + step, refine)
    return float(np.min(rms(fine)))


def rhs_naive(t: float, u: np.ndarray, coupling, omega: float,
              sigma: float) -> np.ndarray:
    """Literal double-loop right-hand side of the oscillator network.

    du_k/dt = omega + scale * sum_j w_kj * sin(u_j - u_k + sigma), summed
    over the band offsets -m..m (banded layout) or the CSR row (sparse
    layout), one term at a time.
    """
    n, w, scale = coupling.n, coupling.weight, coupling.spec.scale
    du = np.empty(n)
    if coupling.layout == "banded_uniform":
        m = coupling.halfwidth
        for k in range(n):
            acc = 0.0
            for d in range(-m, m + 1):
                j = (k + d) % n
                acc += w * np.sin(u[j] - u[k] + sigma)
            du[k] = omega + scale * acc
    else:
        csr = coupling.adjacency
        indptr, indices = csr.indptr, csr.indices
        for k in range(n):
            acc = 0.0
            for j in indices[indptr[k]:indptr[k + 1]]:
                acc += w * np.sin(u[j] - u[k] + sigma)
            du[k] = omega + scale * acc
    return du


def window_sums(values: np.ndarray, m: int) -> np.ndarray:
    """Circular sliding-window sum over offsets -m..m from one real prefix sum.

    The ring is padded with m ghost cells on each side, cumsum'd behind a
    leading zero, and each window is a difference of two prefix sums; at
    m = 0 the sum is a copy.
    """
    if m == 0:
        return values.copy()
    ext = np.concatenate([values[-m:], values, values[:m]])
    cum = np.concatenate([[0.0], np.cumsum(ext)])
    return cum[2 * m + 1:] - cum[: len(values)]


# the absolute error circular.sincos is held to against np_sincos
SINCOS_BOUND = 4.5e-16


def np_sincos(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin u and cos u from numpy's own sin and cos."""
    return np.sin(u), np.cos(u)


def rhs_two_sums(coupling, omega: float, sigma: float, trig=sincos):
    """The right-hand side as one plain expression, each coupling sum on its own.

    A @ sin u and A @ cos u are two window_sums calls (minus the stored holes
    H @ x on a holes-stored graph) or two matvecs over the stored edges, and
    W = weight * A on every route.  sin u and cos u come from trig, by
    default the package's circular.sincos, so the expression can be pinned
    bit for bit; trig=np_sincos gives the same expression on numpy's sin
    and cos.
    """
    m, stored = coupling.halfwidth, coupling.stored
    prefactor = coupling.spec.scale * coupling.weight
    cos_sigma, sin_sigma = cos(sigma), sin(sigma)

    def coupling_sum(x: np.ndarray) -> np.ndarray:
        if stored == "edges":
            return coupling.csr @ x
        if stored == "holes":
            return window_sums(x, m) - coupling.csr @ x
        return window_sums(x, m)

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        s, c = trig(u)
        ws, wc = coupling_sum(s), coupling_sum(c)
        return omega + prefactor * (
            (c * cos_sigma + s * sin_sigma) * ws - (s * cos_sigma - c * sin_sigma) * wc
        )

    return rhs


def rhs_ring_symbol(n: int, m: int, p: float, omega: float, sigma: float):
    """The band right-hand side as one Fourier multiplier on z = e^{iu}.

    The window sum over the offsets |j| <= m is a circular convolution, and
    the FFT of its indicator at mode d is the Dirichlet sum 2n*D(d), with
    D(d) = spectrum._half_window((m + 1/2)/n, d, n); so du/dt = omega +
    (p/n)*Im(e^{i*sigma}*conj(z)*ifft(fft(z)*2n*D)).  This shares the ring
    symbol with the package on purpose: it checks that symbol against the
    prefix-sum right-hand side.
    """
    symbol = 2 * n * _half_window((m + 0.5) / n, np.arange(n), n)
    lag = np.exp(1j * sigma)

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        z = np.exp(1j * u)
        return omega + p / n * np.imag(lag * np.conj(z) * np.fft.ifft(np.fft.fft(z) * symbol))

    return rhs


def rhs_continuum(n_grid: int, kappa: float, p: float, sigma: float):
    """The continuum limit's right-hand side on n_grid nodes x = k/n_grid, omega = 0.

    p * int_{|y - x| <= kappa} sin(u(y) - u(x) + sigma) dy is
    p*Im(e^{i*sigma}*conj(z)*ifft(fft(z)*K)) with z = e^{iu}: the window
    integral of e^{2*pi*i*j*y} is K(j) = sin(2*pi*j*kappa)/(pi*j), and
    K(0) = 2*kappa, at the grid's signed frequencies j.  Written from the
    equation alone, sharing nothing with the package.
    """
    j = np.fft.fftfreq(n_grid, 1.0 / n_grid)
    safe = np.where(j == 0, 1.0, j)
    symbol = np.where(j == 0, 2 * kappa, np.sin(2 * pi * safe * kappa) / (pi * safe))
    lag = np.exp(1j * sigma)

    def rhs(u: np.ndarray) -> np.ndarray:
        z = np.exp(1j * u)
        return p * np.imag(lag * np.conj(z) * np.fft.ifft(np.fft.fft(z) * symbol))

    return rhs


def sample_adjacency_one_shot(n: int, m: int, probability: float, seed: int):
    """Random band adjacency A from one (n, m+1) draw and a loop over offsets.

    Pair {k, (k+d) mod n}, d = 0..m, is an edge when draw[k, d] is below
    the probability; A is sampled directly whatever the probability, as a
    symmetric CSR with data 1.0 and int32 indices.
    """
    draws = np.random.default_rng(seed).random((n, m + 1)) < probability
    start = np.arange(n, dtype=np.int32)
    rows, cols = [start[draws[:, 0]]], [start[draws[:, 0]]]
    for d in range(1, m + 1):
        hit = start[draws[:, d]]
        other = (hit + d) % n
        rows.extend([hit, other])
        cols.extend([other, hit])
    row_idx, col_idx = np.concatenate(rows), np.concatenate(cols)
    return sparse.csr_array((np.ones(len(row_idx)), (row_idx, col_idx)),
                            shape=(n, n))


def realized_density(adjacency, m: int) -> float:
    """In-band pairs of a symmetric A over the n*(m+1) drawn, by a loop over entries."""
    n = adjacency.shape[0]
    coo = adjacency.tocoo()
    pairs = sum(1 for k, j in zip(coo.row.tolist(), coo.col.tolist()) if k <= j)
    return pairs / (n * (m + 1))


def graph_file_bytes(adjacency, spec) -> tuple[bytes, bytes]:
    """The v1 adjacency.bin and the pixels.csv of a graph: A for a random one, None for the band.

    The binary file is the header (magic, version 1, n, kind code, seed
    flag, seed or 0, halfwidth, weight, scale, nnz) and, for a random graph,
    A's row offsets and column indices as u64; the band's header has weight
    p and nnz 0 and nothing follows it.  The CSV lists A's entries row by
    row, 1-based, with weight 1.0, or the band's columns k + d mod n for
    d = -m..m, with weight p.
    """
    n, m = spec.n, spec.halfwidth
    kind_code = ("deterministic_dense", "random_dense", "random_sparse").index(spec.kind)
    if adjacency is None:
        w, nnz, arrays = spec.p, 0, b""
        entries = [(k, (k + d) % n) for k in range(n) for d in range(-m, m + 1)]
    else:
        csr = sparse.csr_array(adjacency)
        w, nnz = 1.0, csr.nnz
        arrays = csr.indptr.astype("<u8").tobytes() + csr.indices.astype("<u8").tobytes()
        rows = np.repeat(np.arange(n), np.diff(csr.indptr))
        entries = zip(rows.tolist(), csr.indices.tolist())
    has_seed = spec.seed is not None
    binary = (b"RTADJ\x00" + struct.pack("<HQBBQQddQ", 1, n, kind_code, has_seed,
                                         spec.seed if has_seed else 0, m, w, spec.scale,
                                         nnz) + arrays)
    pixels = "k,j,w\n" + "".join(f"{k + 1},{j + 1},{w!r}\n" for k, j in entries)
    return binary, pixels.encode()


def _mode1_per_row(row: np.ndarray, q: int) -> tuple[float, float, float, float, float]:
    # (drift, c, s, r, psi) of one row's aligned deviation from the q-twist
    n = len(row)
    theta, v = _align(row - twisted_profile(n, q))
    x = 2.0 * np.pi * np.arange(1, n + 1) / n
    c = float(np.mean(v * np.cos(x)))
    s = float(np.mean(v * np.sin(x)))
    return float(theta), c, s, 2.0 * float(np.hypot(c, s)), float(np.arctan2(c, s))


def deviation_series_per_row(trajectory) -> np.ndarray:
    """Max |deviation| from the aligned q-twist, one row at a time."""
    profile = twisted_profile(trajectory.n, trajectory.config.q)
    return np.array([np.max(np.abs(_align(row - profile)[1]))
                     for row in trajectory.phases])


def modulation_per_row(trajectory, t_min=None, t_max=None) -> dict:
    """Every ModulationEstimate field, each window row aligned and projected alone.

    The window is picked by an index array, psi and the drift are unwrapped
    and both rates are least-squares slopes, as estimate_modulation does.
    """
    times = trajectory.times
    lo = times[0] if t_min is None else t_min
    hi = times[-1] if t_max is None else t_max
    idx = np.nonzero((times >= lo - 1e-12) & (times <= hi + 1e-12))[0]
    drift, c, s, r, psi = (np.array(col) for col in zip(
        *[_mode1_per_row(trajectory.phases[i], trajectory.config.q) for i in idx]))
    drift, psi = np.unwrap(drift), np.unwrap(psi)
    return {"times": times[idx], "c": c, "s": s, "r": r, "psi": psi, "drift": drift,
            "omega_tilde": float(np.polyfit(times[idx], drift, 1)[0]),
            "psi_rate": float(np.polyfit(times[idx], psi, 1)[0])}


def sweep_row_per_row(trajectory, value, threshold: float) -> dict:
    """A finished run's sweep.csv row: the deviation series, then the final row aligned again."""
    dev = deviation_series_per_row(trajectory)
    escape_idx = np.nonzero(dev > threshold)[0]
    escaped = len(escape_idx) > 0
    return {
        "value": value,
        "status": "ok",
        "max_deviation": float(np.max(dev)),
        "final_deviation": float(dev[-1]),
        "final_r": _mode1_per_row(trajectory.phases[-1], trajectory.config.q)[3],
        "escaped": int(escaped),
        "escape_time": float(trajectory.times[escape_idx[0]]) if escaped else None,
    }


def check_real_abc(name: str, value, lo: float = -inf, hi: float = inf,
                   ends: str = "[]") -> None:
    """The finite-real interval rule with every scalar through the Real ABC."""
    def inside(v):
        return ((lo < v) if ends[0] == "(" else (lo <= v)) & (
            (v < hi) if ends[1] == ")" else (v <= hi))

    if isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        bad = ~(np.isfinite(value) & inside(value))
        if not bad.any():
            return
        value = value[bad].flat[0].item()
    elif (isinstance(value, Real) and not isinstance(value, bool)
          and abs(value) <= float_info.max and abs(value) != inf and inside(value)):
        return
    interval = "" if (lo, hi) == (-inf, inf) else f" in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
    raise ValueError(f"{name} must be a finite real number{interval}, got {value!r}")
