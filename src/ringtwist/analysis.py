"""Post-processing: twisted-state fits, modulation tracking, convergence.

All comparisons between phase configurations are made modulo a global
rotation (the dynamics is equivariant under adding a constant to every
phase), using the argument of the mean resultant of the pointwise
difference as the optimal alignment angle.  The slow modulation around a
twisted state is summarized by its first spatial harmonic: amplitude r
and phase psi of the best fit v ~ r * sin(2*pi*k/n + psi) to the aligned
deviation field.  Every per-sample summary (the deviation series, the
modulation estimate and the sweep's escape detection) reads one record,
made by the only loop over stored samples, which aligns each row once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._boundary import check_int, check_real, write_csv, write_json
from .circular import resultant, wrap_angle
from .dynamics import SimulationConfig, Trajectory, run_experiment, twisted_profile

__all__ = [
    "NoFitError",
    "TwistedFit",
    "fit_twisted",
    "deviation_field",
    "deviation_series",
    "ModulationEstimate",
    "estimate_modulation",
    "distance_mod_rotation",
    "convergence_study",
    "write_fit_json",
    "write_modulation_csv",
]

_DEGENERATE_RESULTANT = 1e-12

# psi is meaningless where the modulation amplitude is below this floor,
# so aliasing checks skip such samples
_PSI_AMPLITUDE_FLOOR = 1e-3


class NoFitError(RuntimeError):
    """Raised when an alignment or modulation estimate is ill-posed."""


def _align(v_raw: np.ndarray, strict: bool = False):
    """Rotation alignment of a phase difference, or of each row of a 2-D one.

    Returns (theta, residual): theta is the argument of the mean resultant
    along the last axis, 0 where its magnitude is below 1e-12, and the
    residual is v_raw - theta wrapped to (-pi, pi].  With strict=True a
    degenerate resultant raises NoFitError instead.
    """
    z = resultant(v_raw)
    degenerate = np.abs(z) < _DEGENERATE_RESULTANT
    if strict and np.any(degenerate):
        raise NoFitError(
            f"alignment undefined: resultant magnitude {np.min(np.abs(z)):.3e} < 1e-12"
        )
    theta = np.where(degenerate, 0.0, np.angle(z))
    return theta, wrap_angle(v_raw - theta[..., None])


@dataclass(frozen=True)
class TwistedFit:
    """Best rigid rotation of the q-twisted profile onto a phase snapshot."""

    q: int
    theta: float
    residual_max: float
    residual_l2: float


def fit_twisted(phases: np.ndarray, q: int) -> TwistedFit:
    """Fit u_k ~ 2*pi*q*k/n + theta and report wrapped residuals.

    theta is the alignment angle of u_k - 2*pi*q*k/n; residual_l2 is the
    sqrt of the mean squared wrapped residual (1/n-normalized).

    Raises
    ------
    NoFitError
        If the residual phases spread so evenly that the alignment angle
        is undefined (resultant magnitude below 1e-12).
    """
    phases = np.asarray(phases, dtype=float)
    theta, res = _align(phases - twisted_profile(len(phases), q), strict=True)
    return TwistedFit(
        q=q, theta=float(theta),
        residual_max=float(np.max(np.abs(res))),
        residual_l2=float(np.sqrt(np.mean(res**2))),
    )


def deviation_field(phases: np.ndarray, q: int) -> np.ndarray:
    """Wrapped deviation from the aligned q-twisted profile.

    Subtracts the twisted profile, removes the alignment offset, and
    wraps to (-pi, pi].  If the offset is degenerate it is taken as 0.
    """
    phases = np.asarray(phases, dtype=float)
    return _align(phases - twisted_profile(len(phases), q))[1]


def _deviation_record(trajectory: Trajectory,
                      rows: slice = slice(None)) -> np.ndarray:
    """Rows (drift, max |v|, c, s) for each sample of trajectory.phases[rows].

    v is the sample's aligned deviation from the q-twisted profile and
    drift its alignment angle; c = mean(v*cos x) and s = mean(v*sin x) on
    x = 2*pi*k/n give v ~ r * sin(x + psi) with r = 2*hypot(c, s) and
    psi = arctan2(c, s).
    """
    phases = trajectory.phases[rows]
    profile = twisted_profile(trajectory.n, trajectory.config.q)
    x = twisted_profile(trajectory.n, 1)
    cos_x, sin_x = np.cos(x), np.sin(x)
    record = np.empty((4, len(phases)))
    for i, row in enumerate(phases):
        theta, v = _align(row - profile)
        record[:, i] = theta, np.max(np.abs(v)), np.mean(v * cos_x), np.mean(v * sin_x)
    return record


def deviation_series(trajectory: Trajectory) -> np.ndarray:
    """Per-sample max absolute deviation from the aligned twisted profile."""
    return _deviation_record(trajectory)[1]


@dataclass(frozen=True)
class ModulationEstimate:
    """Windowed time series of the first-harmonic modulation.

    drift is the unwrapped alignment angle (global rotation) per sample;
    omega_tilde is its least-squares rate, the observed rotation speed of
    the whole pattern.  psi is the unwrapped modulation phase and
    psi_rate its least-squares rate, the observed modulation frequency.
    """

    times: np.ndarray
    c: np.ndarray
    s: np.ndarray
    r: np.ndarray
    psi: np.ndarray
    drift: np.ndarray
    omega_tilde: float
    psi_rate: float

    @property
    def r_final(self) -> float:
        return float(self.r[-1])

    @property
    def r_min(self) -> float:
        return float(np.min(self.r))

    @property
    def r_max(self) -> float:
        return float(np.max(self.r))


def _window(times: np.ndarray, t_min: float | None,
            t_max: float | None) -> slice:
    """Slice of the times in [t_min, t_max] (None: first/last time), 1e-12 slack.

    The package's one window rule: ValueError naming t_min or t_max for a
    window not finite, inverted or wholly outside [times[0], times[-1]], and
    NoFitError if fewer than two samples fall in the window.
    """
    lo = times[0] if t_min is None else t_min
    hi = times[-1] if t_max is None else t_max
    check_real("t_min", lo, hi=times[-1])
    check_real("t_max", hi, max(lo, times[0]))
    idx = np.nonzero((times >= lo - 1e-12) & (times <= hi + 1e-12))[0]
    if len(idx) < 2:
        raise NoFitError(f"need at least 2 samples in [{lo:g}, {hi:g}], found {len(idx)}")
    # times ascend, so the window is one run of rows: a slice reads the
    # phases as a view where the index array would copy them
    return slice(idx[0], idx[-1] + 1)


def estimate_modulation(trajectory: Trajectory, *, t_min: float | None = None,
                        t_max: float | None = None) -> ModulationEstimate:
    """Track the first-harmonic modulation over a time window.

    Per sample: subtract the q-twisted profile, take the alignment angle
    as the drift angle, wrap the recentered field, and project onto the
    first harmonic.  Drift and psi are unwrapped across samples before
    rate fits.

    Raises
    ------
    ValueError
        For a window that _window refuses, as ``ringtwist estimate`` does.
    NoFitError
        If fewer than two samples fall in the window, or psi advances by
        more than 0.9*pi between consecutive samples while the amplitude
        is meaningful (rate estimate would alias; decrease sample_dt).
    """
    window = _window(trajectory.times, t_min, t_max)
    drift_raw, _, c_arr, s_arr = _deviation_record(trajectory, window)
    r_arr = 2.0 * np.hypot(c_arr, s_arr)
    psi_raw = np.arctan2(c_arr, s_arr)
    steps = wrap_angle(np.diff(psi_raw))
    meaningful = (r_arr[1:] > _PSI_AMPLITUDE_FLOOR) & (r_arr[:-1] > _PSI_AMPLITUDE_FLOOR)
    if np.any(meaningful & (np.abs(steps) > 0.9 * np.pi)):
        raise NoFitError(
            "psi advances more than 0.9*pi per sample; decrease sample_dt"
        )
    t_sel = trajectory.times[window]
    psi = np.unwrap(psi_raw)
    drift = np.unwrap(drift_raw)
    omega_tilde = float(np.polyfit(t_sel, drift, 1)[0])
    psi_rate = float(np.polyfit(t_sel, psi, 1)[0])
    return ModulationEstimate(
        times=t_sel, c=c_arr, s=s_arr, r=r_arr, psi=psi, drift=drift,
        omega_tilde=omega_tilde, psi_rate=psi_rate,
    )


def distance_mod_rotation(a: np.ndarray, b: np.ndarray) -> float:
    """L2 distance between phase configurations modulo global rotation.

    The alignment angle is the argument of the mean resultant of the
    pointwise difference (0 if degenerate); the distance is the root mean
    squared wrapped residual, so identical configurations rotated by any
    constant are at distance 0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    res = _align(a - b)[1]
    return float(np.sqrt(np.mean(res**2)))


def convergence_study(config_template: SimulationConfig,
                      n_list: Sequence[int], reference_n: int) -> list[dict]:
    """Distance of coarse runs to a fine reference at the final time.

    Each resolution n is the template run by run_experiment on n nodes,
    noise-free and sampled only at t = 0 and t_end: it starts from the
    template's twisted profile plus its first-harmonic bump
    (ic_mode1_amplitude, ic_mode1_phase).  Final states are embedded onto
    the reference grid piecewise-constantly (reference_n must be a
    multiple of every n) and compared modulo rotation.

    Returns one row dict per coarse n: {"n", "error"}.
    """
    check_int("reference_n", reference_n, 1)
    if len(n_list) == 0:
        raise ValueError("n_list must name at least one resolution")
    for n in n_list:
        check_int("n", n, 1)
        if reference_n % n != 0:
            raise ValueError(f"reference_n={reference_n} is not a multiple of n={n}")

    def final_state(n: int) -> np.ndarray:
        config = replace(config_template, graph=replace(config_template.graph, n=n),
                         sample_dt=config_template.t_end,
                         perturbation_amplitude=0.0, ic_seed=None)
        return run_experiment(config).phases[-1]

    reference = final_state(reference_n)
    return [{"n": int(n), "error": distance_mod_rotation(
        np.repeat(final_state(n), reference_n // n), reference)} for n in n_list]


def write_fit_json(path, fit: TwistedFit) -> None:
    write_json(path, asdict(fit))


def write_modulation_csv(path, estimate: ModulationEstimate) -> None:
    """Columns t, c, s, r, psi, drift; floats in shortest round-trip form."""
    write_csv(path, ["t", "c", "s", "r", "psi", "drift"], np.column_stack([
        estimate.times, estimate.c, estimate.s, estimate.r, estimate.psi, estimate.drift]).tolist())
