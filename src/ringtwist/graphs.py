"""Ring-band graphon and its deterministic or random coupling matrices.

The coupling kernel is the circular band graphon on the unit interval:
W(x, y) = p exactly when the circular distance between x and y is at most
kappa (window half-width), else 0.  At resolution n it is realized as

* ``deterministic_dense`` - the circulant 0/1 band matrix times weight p,
  stored as (halfwidth, weight) only;
* ``random_dense`` - symmetric Bernoulli(p) edges inside the band;
* ``random_sparse`` - symmetric Bernoulli(n**(-gamma) * p) edges inside the
  band, with the thinning compensated by the dynamics prefactor.

Node k (1-based, k in [1..n]) sits at position x = k/n and owns the cell
I_k = ((k-1)/n, k/n]; band membership at finite n uses circular index
distance min(|k-j|, n-|k-j|) <= floor(n*kappa), ties included, and the
diagonal (a self-loop) is part of the band.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from math import floor, sqrt
from typing import BinaryIO

import numpy as np
from scipy import sparse as _sparse

__all__ = [
    "GraphSpec",
    "CouplingMatrix",
    "graphon_eval",
    "cell_average",
    "build_coupling",
    "graphon_l2_distance",
    "step_graphon_error",
    "empirical_band_density",
    "write_pixel_csv",
    "write_adjacency_binary",
    "read_adjacency_binary",
]

KINDS = ("deterministic_dense", "random_dense", "random_sparse")

_MAGIC = b"RTADJ\x00"
_VERSION = 1
_HEADER_BYTES = 58  # magic, version, then n .. nnz as packed by the writer
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}

# Values per row chunk when sampling a graph or deriving its band holes.
_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class GraphSpec:
    """Parameters of a band-graphon realization.

    Attributes
    ----------
    n : int
        Node count (positive).
    p : float
        Coupling weight / edge probability in (0, 1].
    kappa : float
        Window half-width in (0, 1/2).
    kind : str
        One of "deterministic_dense", "random_dense", "random_sparse".
    gamma : float or None
        Sparsity exponent in (0, 1/2); required for random_sparse only.
    seed : int or None
        RNG seed in [0, 2**64); mandatory for the random kinds (no silent
        entropy), ignored for deterministic_dense.
    """

    n: int
    p: float
    kappa: float
    kind: str = "deterministic_dense"
    gamma: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p!r}")
        if not 0.0 < self.kappa < 0.5:
            raise ValueError(f"kappa must lie in (0, 1/2), got {self.kappa!r}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "random_sparse":
            if self.gamma is None or not 0.0 < self.gamma < 0.5:
                raise ValueError(
                    f"random_sparse needs gamma in (0, 1/2), got {self.gamma!r}"
                )
            if self.edge_probability > 1.0:
                raise ValueError(
                    f"thinned edge probability n**(-gamma)*p = "
                    f"{self.edge_probability!r} exceeds 1"
                )
        if self.kind != "deterministic_dense" and self.seed is None:
            raise ValueError(f"{self.kind} requires an explicit seed")
        if self.seed is not None and not (
                isinstance(self.seed, (int, np.integer))
                and not isinstance(self.seed, bool) and 0 <= self.seed < 2**64):
            raise ValueError(
                f"seed must be None or an integer in [0, 2**64), got {self.seed!r}")

    @property
    def halfwidth(self) -> int:
        """Band half-width in index units, floor(n*kappa)."""
        return floor(self.n * self.kappa)

    @property
    def edge_probability(self) -> float:
        """Bernoulli probability inside the band (1 for deterministic)."""
        if self.kind == "random_dense":
            return self.p
        if self.kind == "random_sparse":
            return float(self.n) ** (-self.gamma) * self.p
        return 1.0

    @property
    def scale(self) -> float:
        """Dynamics prefactor 1/(n*alpha_n): 1/n dense, n**(gamma-1) sparse."""
        if self.kind == "random_sparse":
            return float(self.n) ** (self.gamma - 1.0)
        return 1.0 / self.n


@dataclass(frozen=True)
class CouplingMatrix:
    """Realized n x n coupling structure.

    banded_uniform stores only (halfwidth, weight) - the matrix is the
    circulant band pattern, no O(n^2) memory.  sparse_binary stores a
    symmetric CSR 0/1 adjacency restricted to the band (diagonal allowed).
    ``scale`` is the dynamics prefactor 1/(n*alpha_n).
    """

    layout: str
    n: int
    scale: float
    halfwidth: int
    weight: float = 1.0
    adjacency: object | None = None
    kind: str = "deterministic_dense"
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.layout not in ("banded_uniform", "sparse_binary"):
            raise ValueError(f"unknown layout {self.layout!r}")
        if self.layout == "sparse_binary" and self.adjacency is None:
            raise ValueError("sparse_binary layout requires an adjacency")
        if not 0 <= 2 * self.halfwidth < self.n:
            raise ValueError(
                f"halfwidth must satisfy 0 <= 2*halfwidth < n = {self.n}, "
                f"got {self.halfwidth!r}"
            )

    @property
    def nnz(self) -> int:
        """Stored nonzero count (symmetric entries counted twice)."""
        if self.layout == "banded_uniform":
            return self.n * (2 * self.halfwidth + 1)
        return int(self.adjacency.nnz)

    def to_dense(self) -> np.ndarray:
        """Dense weight matrix; intended for small-n tests only."""
        if self.layout == "banded_uniform":
            w = np.zeros((self.n, self.n))
            idx = np.arange(self.n)
            for d in range(-self.halfwidth, self.halfwidth + 1):
                w[idx, (idx + d) % self.n] = self.weight
            return w
        return self.adjacency.toarray().astype(float)


def graphon_eval(x, y, p: float, kappa: float):
    """Band graphon value: p when circ-dist(x, y) <= kappa, else 0.

    Total on the unit square (positions outside [0, 1] are reduced mod 1);
    accepts scalars or broadcastable arrays.
    """
    d = np.abs(np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), 1.0))
    inside = (d <= kappa) | (d >= 1.0 - kappa)
    out = np.where(inside, float(p), 0.0)
    if np.ndim(out) == 0:
        return float(out)
    return out


def _tri_cdf(t: float, z0: float, n: int) -> float:
    # CDF of the unit-mass triangular bump centered at z0 with half-width 1/n
    # (the distribution of x - y over a cell pair).
    u = (t - z0) * n
    if u <= -1.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    if u <= 0.0:
        return 0.5 * (1.0 + u) ** 2
    return 1.0 - 0.5 * (1.0 - u) ** 2


def _band_fraction(z0: float, n: int, kappa: float) -> float:
    """Mass of the triangular offset bump inside the circular band.

    The band in offset coordinates is the disjoint union of [m - kappa,
    m + kappa] over integers m (disjoint because kappa < 1/2), so the
    overlap is an exact sum of CDF differences - piecewise quadratic, no
    quadrature.
    """
    lo = z0 - 1.0 / n
    hi = z0 + 1.0 / n
    total = 0.0
    for m in range(floor(lo - kappa), floor(hi + kappa) + 2):
        total += _tri_cdf(m + kappa, z0, n) - _tri_cdf(m - kappa, z0, n)
    return total


def cell_average(k: int, j: int, spec: GraphSpec) -> float:
    """Exact graphon average over the cell I_k x I_j, scaled by n^2.

    For the band graphon this is p times the fraction of the cell inside
    the band, computed from the closed-form triangular offset marginal.

    Parameters
    ----------
    k, j : int
        1-based node indices in [1..n].

    Raises
    ------
    IndexError
        If an index is outside [1..n].
    """
    if not 1 <= k <= spec.n or not 1 <= j <= spec.n:
        raise IndexError(f"node indices ({k}, {j}) out of range [1..{spec.n}]")
    return spec.p * _band_fraction((k - j) / spec.n, spec.n, spec.kappa)


def _sample_band_pairs(rng: np.random.Generator, n: int, m: int,
                       probability: float) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric (row, col) int32 pairs of a random in-band graph.

    Pair {k, (k+d) mod n} is drawn when the uniform at row k, column d of a
    row-major (n, m+1) draw is below the probability.  The draw is taken in
    row chunks of about _CHUNK_VALUES, which reads the same stream, and
    only the hits are kept, so memory follows the edge count.
    """
    step = max(1, _CHUNK_VALUES // (m + 1))
    starts, offsets = [], []
    for lo in range(0, n, step):
        draws = rng.random((min(step, n - lo), m + 1)) < probability
        hits = np.flatnonzero(draws).astype(np.int32)
        start, offset = np.divmod(hits, m + 1)
        starts.append(start + lo)
        offsets.append(offset)
    start, offset = np.concatenate(starts), np.concatenate(offsets)
    other = (start + offset) % n
    off_diagonal = offset > 0
    return (np.concatenate([start, other[off_diagonal]]),
            np.concatenate([other, start[off_diagonal]]))


def build_coupling(spec: GraphSpec) -> CouplingMatrix:
    """Realize a GraphSpec as a coupling matrix.

    Deterministic specs produce the circulant band layout with weight p.
    Random specs sample each in-band unordered pair {k, (k+d) mod n},
    d = 0..halfwidth, independently with ``spec.edge_probability`` and
    symmetrize.  The uniforms are streamed in row chunks, so a seed gives
    the same graph as one (n, halfwidth+1) draw would; indices are int32.
    """
    n, m = spec.n, spec.halfwidth
    if spec.kind == "deterministic_dense":
        return CouplingMatrix(
            layout="banded_uniform", n=n, scale=spec.scale, halfwidth=m,
            weight=spec.p, kind=spec.kind, seed=spec.seed,
        )
    row_idx, col_idx = _sample_band_pairs(
        np.random.default_rng(spec.seed), n, m, spec.edge_probability
    )
    adjacency = _sparse.csr_array(
        (np.ones(len(row_idx)), (row_idx, col_idx)), shape=(n, n)
    )
    return CouplingMatrix(
        layout="sparse_binary", n=n, scale=spec.scale, halfwidth=m,
        weight=1.0, adjacency=adjacency, kind=spec.kind, seed=spec.seed,
    )


def _band_holes(adjacency, m: int):
    """H = band - A: the in-band entries missing from A, as a sorted CSR.

    Built in row chunks of about _CHUNK_VALUES band entries, with int32
    indices when A has them.  Each chunk subtracts A's rows from the
    band's, so the band's window sums minus H @ x give A @ x whatever A
    stores, out-of-band entries included.
    """
    n = adjacency.shape[0]
    width = 2 * m + 1
    step = max(1, _CHUNK_VALUES // width)
    j = np.arange(width, dtype=np.int32)
    chunks = []
    for lo in range(0, n, step):
        rows = np.arange(lo, min(n, lo + step), dtype=np.int32)[:, None]
        # row k's band columns (k + j - m) mod n, written in ascending order
        first = (rows - m) % n
        wrapped = np.maximum(first + width - n, 0)
        cols = np.where(j < wrapped, j, first + j - wrapped)
        band = _sparse.csr_array(
            (np.ones(cols.size), cols.ravel(),
             np.arange(0, cols.size + 1, width, dtype=np.int32)),
            shape=(len(rows), n),
        )
        chunks.append(band - adjacency[lo:lo + len(rows)])
    return _sparse.vstack(chunks, format="csr")


def graphon_l2_distance(spec_a: GraphSpec, spec_b: GraphSpec,
                        resolution: int | None = None) -> float:
    """L2 distance between the band graphons of two specs.

    With ``resolution=None`` the exact band formula is used: the band of
    half-width kappa has area 2*kappa, the narrower band is contained in
    the wider one, so distance^2 = (p_a - p_b)^2 * 2*min(kappa) +
    p_wider^2 * 2*|kappa_a - kappa_b|.  An integer ``resolution >= 2``
    selects midpoint-rule cross-validation instead.

    Note the graphon of a spec depends only on (p, kappa): the sparse
    kind's thinning is a sampling device, not part of the kernel.
    """
    if resolution is None:
        ka, kb = spec_a.kappa, spec_b.kappa
        pa, pb = spec_a.p, spec_b.p
        k_min = min(ka, kb)
        p_wide = pa if ka >= kb else pb
        d2 = (pa - pb) ** 2 * 2.0 * k_min + p_wide**2 * 2.0 * abs(ka - kb)
        return sqrt(d2)
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution!r}")
    mids = (np.arange(resolution) + 0.5) / resolution
    xx, yy = np.meshgrid(mids, mids, indexing="ij")
    wa = graphon_eval(xx, yy, spec_a.p, spec_a.kappa)
    wb = graphon_eval(xx, yy, spec_b.p, spec_b.kappa)
    return float(np.sqrt(np.mean((wa - wb) ** 2)))


def step_graphon_error(spec: GraphSpec) -> float:
    """L2 error between the band graphon and its n x n cell-average step.

    Within a cell the graphon takes only the values {0, p}, so the squared
    error against the cell mean p*f is p^2 * f * (1 - f) per unit cell
    area, with f the in-band fraction.  Cells depend on the index offset
    only, giving an exact O(n) sum; only band-straddling offsets
    contribute.
    """
    n, kappa, p = spec.n, spec.kappa, spec.p
    total = 0.0
    for o in range(n):
        f = _band_fraction(o / n, n, kappa)
        total += f * (1.0 - f)
    return p * sqrt(total / n)


def empirical_band_density(coupling: CouplingMatrix) -> float:
    """Fraction of realized in-band Bernoulli draws (1.0 for deterministic).

    The sampling universe is n*(halfwidth+1) unordered in-band pairs
    (diagonal included); symmetric off-diagonal entries count once.
    """
    n, m = coupling.n, coupling.halfwidth
    universe = n * (m + 1)
    if coupling.layout == "banded_uniform":
        return 1.0
    adj = coupling.adjacency
    diag = int(_sparse.csr_array(adj).diagonal().sum())
    realized = diag + (int(adj.nnz) - diag) // 2
    return realized / universe


def write_pixel_csv(path, coupling: CouplingMatrix) -> None:
    """Write the nonzero pixel map as (k, j, w) rows, 1-based indices."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "j", "w"])
        if coupling.layout == "banded_uniform":
            n, m, w = coupling.n, coupling.halfwidth, coupling.weight
            for k in range(n):
                for d in range(-m, m + 1):
                    writer.writerow([k + 1, (k + d) % n + 1, repr(w)])
        else:
            coo = coupling.adjacency.tocoo()
            for r, c in zip(coo.row, coo.col):
                writer.writerow([int(r) + 1, int(c) + 1, repr(1.0)])


def _write_u64(fh: BinaryIO, *values: int) -> None:
    fh.write(struct.pack("<" + "Q" * len(values), *values))


def write_adjacency_binary(path, coupling: CouplingMatrix) -> None:
    """Write a compact little-endian adjacency dump.

    Layout (all little-endian):
      magic 6s "RTADJ\\0" | version u16 | n u64 | kind u8 | has_seed u8 |
      seed u64 | halfwidth u64 | weight f64 | scale f64 | nnz u64 |
      [sparse only: row offsets (n+1) x u64, then column indices nnz x u64].
    banded_uniform (kind deterministic_dense) stores no index arrays (nnz
    field 0); the pattern is implied by (n, halfwidth).  The random kinds
    always carry both arrays, even when the graph has no edges.
    """
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<H", _VERSION))
        kind_code = _KIND_CODES[coupling.kind]
        has_seed = coupling.seed is not None
        fh.write(struct.pack("<QBB", coupling.n, kind_code, int(has_seed)))
        _write_u64(fh, coupling.seed if has_seed else 0, coupling.halfwidth)
        fh.write(struct.pack("<dd", coupling.weight, coupling.scale))
        if coupling.layout == "banded_uniform":
            _write_u64(fh, 0)
        else:
            csr = _sparse.csr_array(coupling.adjacency)
            _write_u64(fh, int(csr.nnz))
            fh.write(np.asarray(csr.indptr, dtype="<u8").tobytes())
            fh.write(np.asarray(csr.indices, dtype="<u8").tobytes())


def read_adjacency_binary(path) -> CouplingMatrix:
    """Read a dump produced by write_adjacency_binary.

    The layout follows the stored kind: deterministic_dense reads back as
    banded_uniform, the random kinds as sparse_binary with int32 indices,
    as build_coupling makes them.

    Raises
    ------
    ValueError
        On a bad magic or version, an unknown kind code, a file whose
        length differs from the one its header implies (truncated or
        trailing bytes), or index arrays that do not describe an n x n CSR.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:6]
    if magic != _MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    if len(raw) < _HEADER_BYTES:
        raise ValueError(
            f"{path}: header needs {_HEADER_BYTES} bytes, found {len(raw)}"
        )
    (version,) = struct.unpack_from("<H", raw, 6)
    if version != _VERSION:
        raise ValueError(f"unsupported version {version}")
    n, kind_code, has_seed, seed, halfwidth, weight, scale, nnz = struct.unpack_from(
        "<QBBQQddQ", raw, 8
    )
    if kind_code not in _CODE_KINDS:
        raise ValueError(f"{path}: kind code {kind_code} out of range "
                         f"(0..{len(KINDS) - 1})")
    kind = _CODE_KINDS[kind_code]
    banded = kind == "deterministic_dense"
    expected = _HEADER_BYTES + (0 if banded else 8 * (n + 1 + nnz))
    if len(raw) != expected:
        raise ValueError(
            f"{path}: expected {expected} bytes for n={n}, nnz={nnz}, "
            f"found {len(raw)}"
        )
    seed = int(seed) if has_seed else None
    if banded:
        return CouplingMatrix(
            layout="banded_uniform", n=int(n), scale=scale,
            halfwidth=int(halfwidth), weight=weight, kind=kind, seed=seed,
        )
    indptr = np.frombuffer(raw, dtype="<u8", count=n + 1, offset=_HEADER_BYTES)
    indices = np.frombuffer(raw, dtype="<u8", count=nnz,
                            offset=_HEADER_BYTES + 8 * (n + 1))
    if (indptr[0] != 0 or indptr[-1] != nnz or np.any(indptr[1:] < indptr[:-1])
            or (nnz and indices.max() >= n)):
        raise ValueError(f"{path}: row offsets or column indices out of range")
    adjacency = _sparse.csr_array(
        (np.ones(nnz), indices.astype(np.int32), indptr.astype(np.int32)),
        shape=(int(n), int(n)),
    )
    return CouplingMatrix(
        layout="sparse_binary", n=int(n), scale=scale,
        halfwidth=int(halfwidth), weight=weight, adjacency=adjacency,
        kind=kind, seed=seed,
    )
