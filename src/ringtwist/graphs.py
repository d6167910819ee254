"""Ring-band graphon and its deterministic or random coupling matrices.

The coupling kernel is the circular band graphon on the unit interval:
W(x, y) = p exactly when the circular distance between x and y is at most
kappa (window half-width), else 0.  At resolution n it is realized as

* ``deterministic_dense`` - the circulant 0/1 band matrix times weight p,
  which stores nothing beyond its GraphSpec;
* ``random_dense`` - symmetric Bernoulli(p) edges inside the band;
* ``random_sparse`` - symmetric Bernoulli(n**(-gamma) * p) edges inside the
  band, with the thinning compensated by the dynamics prefactor.

W = weight * A for a 0/1 pattern A: weight, the value of every stored edge,
is p on the band and 1.0 on the random kinds, which carry p in their edges.

A GraphSpec is the whole identity of a graph: (W, n, p, kappa, gamma, seed),
with a gamma off random_sparse and a seed on deterministic_dense checked,
then dropped.  It also names the side a random graph stores, the one
expected to be smaller: its holes H = band - A at edge probability >= 1/2,
its edges A below.  A CouplingMatrix draws that side from the seed, and
draws A from it too, when a writer asks; no side is converted to the other.

Node k (1-based, k in [1..n]) sits at position x = k/n and owns the cell
I_k = ((k-1)/n, k/n]; band membership at finite n uses circular index
distance min(|k-j|, n-|k-j|) <= floor(n*kappa), ties included, and the
diagonal (a self-loop) is part of the band.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields
from functools import cached_property
from math import floor, sqrt
from typing import Callable

import numpy as np
from scipy import sparse as _sparse

from ._boundary import check_int, check_real, check_seed, write_csv

__all__ = [
    "GraphSpec",
    "CouplingMatrix",
    "build_coupling",
    "step_graphon_error",
    "empirical_band_density",
    "write_pixel_csv",
    "write_adjacency_binary",
]

# a dump stores a kind as its index here, so kinds are only ever appended
KINDS = ("deterministic_dense", "random_dense", "random_sparse")

_MAGIC = b"RTADJ\x00"
_VERSION = 1
# magic, version, n, kind code, seed flag, seed, halfwidth, weight, scale, nnz
_HEADER = struct.Struct("<6sHQBBQQddQ")

# Values per chunk when sampling a graph or writing A's indices, and pixels per
# block of rows when listing them.
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
        Sparsity exponent in (0, 1/2); required for random_sparse, checked
        and then dropped to None for the other kinds.
    seed : int or None
        RNG seed in [0, 2**64); mandatory for the random kinds (no silent
        entropy), checked and then dropped to None for deterministic_dense.

    Dropping them makes two specs of one graph compare equal.
    """

    n: int
    p: float
    kappa: float
    kind: str = "deterministic_dense"
    gamma: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        check_int("n", self.n, 1)
        check_real("p", self.p, 0.0, 1.0, "(]")
        check_real("kappa", self.kappa, 0.0, 0.5, "()")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.gamma is not None or self.kind == "random_sparse":
            check_real("gamma", self.gamma, 0.0, 0.5, "()")
        if self.kind != "deterministic_dense" and self.seed is None:
            raise ValueError(f"{self.kind} requires an explicit seed")
        check_seed("seed", self.seed)
        if self.kind != "random_sparse":
            object.__setattr__(self, "gamma", None)
        if self.kind == "deterministic_dense":
            object.__setattr__(self, "seed", None)

    @property
    def stored(self) -> str:
        """What a coupling keeps: "band", or "holes" (H = band - A) at edge
        probability >= 1/2 and "edges" (A) below, the side expected to be smaller."""
        if self.kind == "deterministic_dense":
            return "band"
        return "holes" if self.edge_probability >= 0.5 else "edges"

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
    def weight(self) -> float:
        """Value of every stored edge: p on the band, 1.0 on the random kinds."""
        return self.p if self.kind == "deterministic_dense" else 1.0

    @property
    def scale(self) -> float:
        """Dynamics prefactor 1/(n*alpha_n): 1/n dense, n**(gamma-1) sparse."""
        if self.kind == "random_sparse":
            return float(self.n) ** (self.gamma - 1.0)
        return 1.0 / self.n


@dataclass(frozen=True)
class CouplingMatrix:
    """Realized n x n coupling structure of one GraphSpec.

    ``spec`` is the one argument: ``n``, ``halfwidth``, ``weight`` and
    ``stored`` read it, and two couplings of one spec are one graph.  A
    deterministic_dense graph stores nothing more - the matrix is the
    circulant band pattern, no O(n^2) memory.  A random graph draws
    ``spec.stored`` from ``spec.seed`` into ``csr``, one symmetric CSR:
    its holes H = band - A or its edges A.  ``adjacency`` gives A for
    every random graph: the stored edges, or A drawn from the same seed
    on first access and cached.
    """

    spec: GraphSpec
    csr: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        csr = None if self.stored == "band" else _draw(self.spec, self.stored)
        object.__setattr__(self, "csr", csr)

    @property
    def n(self) -> int:
        """Node count, spec.n."""
        return self.spec.n

    @property
    def halfwidth(self) -> int:
        """Band half-width in index units, spec.halfwidth."""
        return self.spec.halfwidth

    @property
    def weight(self) -> float:
        """Value of every stored edge, spec.weight."""
        return self.spec.weight

    @property
    def layout(self) -> str:
        """banded_uniform for deterministic_dense, else sparse_binary."""
        return "banded_uniform" if self.stored == "band" else "sparse_binary"

    @property
    def stored(self) -> str:
        """What the matrix keeps, spec.stored: "band", "edges" (A) or "holes" (H)."""
        return self.spec.stored

    @property
    def stored_nnz(self) -> int:
        """Entries of the stored CSR (0 for the band, which stores none)."""
        return 0 if self.csr is None else int(self.csr.nnz)

    @property
    def nnz(self) -> int:
        """Nonzero count of A, symmetric entries twice: A's, or the band's minus H's."""
        band = self.n * (2 * self.halfwidth + 1)
        return self.stored_nnz if self.stored == "edges" else band - self.stored_nnz

    @cached_property
    def adjacency(self):
        """A, a CSR with data 1.0 (None for the band), drawn once from the seed if H is stored."""
        if self.stored == "holes":
            return _draw(self.spec, "edges")
        return self.csr

    def coupling_sums(self) -> Callable[[np.ndarray, np.ndarray], tuple]:
        """A map (s, c) -> (A @ s, A @ c) for the 0/1 pattern A of W = weight * A.

        The route follows what the matrix stores: O(n) window sums for the
        band, window sums minus H @ x for holes H, the CSR matvec for edges;
        A is never built.  The window-sum routes return buffers that their
        next call overwrites, so build one map per thread.
        """
        if self.stored == "edges":
            edges = self.csr
            return lambda s, c: (edges @ s, edges @ c)
        window = _window_sums(self.n, self.halfwidth)
        if self.stored == "band":
            return window
        holes = self.csr

        def minus_holes(s: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            ws, wc = window(s, c)
            return np.subtract(ws, holes @ s, out=ws), np.subtract(wc, holes @ c, out=wc)

        return minus_holes


def _window_sums(n: int, m: int) -> Callable[[np.ndarray, np.ndarray], tuple]:
    """A map (s, c) -> circular window sums of s and c over offsets -m..m.

    One complex prefix sum gives both: c + i*s fills the middle of a reused
    workspace of length n + 2m + 1, the m ghost cells on each side repeat
    the opposite end of the ring, and an in-place cumsum runs over all but
    the leading zero.  Complex addition adds real and imaginary parts
    apart, in order, so each sum is bit for bit a real prefix-sum
    difference.  At m = 0 the sum is the identity and the map copies.  The
    returned arrays are the map's own buffers, overwritten by its next call.
    """
    ws, wc = np.empty(n), np.empty(n)
    z = np.zeros(n + 2 * m + 1, dtype=complex)
    middle, run = z[m + 1:n + m + 1], z[1:]

    def sums(s: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if m == 0:
            np.copyto(ws, s)
            np.copyto(wc, c)
            return ws, wc
        middle.real, middle.imag = c, s
        z[1:m + 1] = z[n + 1:n + m + 1]
        z[n + m + 1:] = z[m + 1:2 * m + 1]
        np.cumsum(run, out=run)
        np.subtract(z.imag[2 * m + 1:], z.imag[:n], out=ws)
        np.subtract(z.real[2 * m + 1:], z.real[:n], out=wc)
        return ws, wc

    return sums


def _check_coupling(coupling: CouplingMatrix, spec: GraphSpec) -> None:
    """Raise ValueError unless coupling realizes spec, naming every field that differs."""
    if coupling.spec != spec:
        differ = [f"{f.name} {getattr(coupling.spec, f.name)!r} "
                  f"(graph {getattr(spec, f.name)!r})" for f in fields(spec)
                  if getattr(coupling.spec, f.name) != getattr(spec, f.name)]
        raise ValueError("coupling realizes another graph: " + ", ".join(differ))


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


def _sample_band_pairs(spec: GraphSpec, side: str) -> tuple[np.ndarray, np.ndarray]:
    """The (row, col) int32 pairs of one side, "edges" or "holes", of a random graph.

    Each in-band unordered pair {k, (k+d) mod n}, d = 0..halfwidth, is an
    edge when the uniform at row k, column d of a row-major (n, halfwidth+1)
    draw from spec.seed is below spec.edge_probability, and a hole
    otherwise, so both sides of one seed describe one graph.  A pair of the
    side is returned once, as (k, (k+d) mod n).  The draw is taken in row
    chunks of about _CHUNK_VALUES, which reads the same stream, so memory
    follows the side's pair count.
    """
    n, m, probability = spec.n, spec.halfwidth, spec.edge_probability
    rng, holes = np.random.default_rng(spec.seed), side == "holes"
    step = max(1, _CHUNK_VALUES // (m + 1))
    starts, others = [], []
    for lo in range(0, n, step):
        draws = rng.random((min(step, n - lo), m + 1))
        kept = draws >= probability if holes else draws < probability
        start, offset = np.divmod(np.flatnonzero(kept).astype(np.int32), m + 1)
        starts.append(start + lo)
        others.append((start + lo + offset) % n)
    return np.concatenate(starts), np.concatenate(others)


def _draw(spec: GraphSpec, side: str):
    """One side, "edges" (A) or "holes" (H), of a random graph as a sorted int32 CSR."""
    rows, cols = _sample_band_pairs(spec, side)
    half = _sparse.csr_array((np.ones(rows.size), (rows, cols)), shape=(spec.n, spec.n))
    del rows, cols  # freed before the sum
    # half holds each drawn pair once, so only a kept diagonal entry is summed twice
    csr = half + half.T
    csr.data[:] = 1.0
    return csr


def build_coupling(spec: GraphSpec) -> CouplingMatrix:
    """Realize a GraphSpec as a coupling matrix: CouplingMatrix(spec).

    Deterministic specs produce the circulant band layout with weight p.
    Random specs draw the side ``spec.stored`` names (see _sample_band_pairs),
    so the build never holds A when it stores H.
    """
    return CouplingMatrix(spec)


def step_graphon_error(spec: GraphSpec) -> float:
    """L2 error between the band graphon and its n x n cell-average step.

    Within a cell the graphon takes only the values {0, p}, so the squared
    error against the cell mean p*f is p^2 * f * (1 - f) per unit cell
    area, with f the in-band fraction.  Cells depend on the index offset
    only, and f * (1 - f) is exactly 0 except for offsets whose cells
    straddle a band edge e in {kappa, 1 - kappa}: those lie in
    floor(n*e) - 1 .. floor(n*e) + 2, summed in ascending order.
    """
    n, kappa, p = spec.n, spec.kappa, spec.p
    total = 0.0
    for o in sorted({o for e in (kappa, 1.0 - kappa)
                     for o in range(floor(n * e) - 1, floor(n * e) + 3) if 0 <= o < n}):
        f = _band_fraction(o / n, n, kappa)
        total += f * (1.0 - f)
    return p * sqrt(total / n)


def empirical_band_density(coupling: CouplingMatrix) -> float:
    """Fraction of realized in-band Bernoulli draws (1.0 for deterministic).

    The sampling universe is n*(halfwidth+1) unordered in-band pairs
    (diagonal included); symmetric off-diagonal entries count once.  The
    count is read from the stored side, A or H, without building the other;
    the band is the graph whose holes are empty, so every draw is realized.
    """
    n, m = coupling.spec.n, coupling.spec.halfwidth
    diag = 0 if coupling.csr is None else int(coupling.csr.diagonal().sum())
    if coupling.stored != "edges":
        diag = n - diag  # the diagonal is in the band
    return (diag + (coupling.nnz - diag) // 2) / (n * (m + 1))


def write_pixel_csv(path, coupling: CouplingMatrix) -> None:
    """Write the nonzero pixel map as (k, j, w) rows, 1-based indices, w the weight.

    One walk over A's rows, about _CHUNK_VALUES pixels a block: a band row k
    lists the columns (k + d) mod n for d = -m..m, a random row its columns in
    ``adjacency``, the one copy of A held.
    """
    csr, m, n, w = coupling.adjacency, coupling.halfwidth, coupling.n, coupling.weight
    d, step = np.arange(-m, m + 1), max(1, _CHUNK_VALUES // (2 * m + 1))

    def block(lo, hi):
        k = np.arange(lo, hi)
        if csr is None:
            return np.repeat(k, d.size), (k[:, None] + d).ravel() % n
        ptr = csr.indptr[lo:hi + 1]
        return np.repeat(k, np.diff(ptr)), csr.indices[ptr[0]:ptr[-1]]

    blocks = (block(lo, min(lo + step, n)) for lo in range(0, n, step))
    write_csv(path, ["k", "j", "w"], ((k, j, w) for ks, js in blocks
                                      for k, j in zip((ks + 1).tolist(), (js + 1).tolist())))


def write_adjacency_binary(path, coupling: CouplingMatrix) -> None:
    """Write a compact little-endian dump of a coupling's spec and adjacency.

    Layout (all little-endian; the 58-byte header is the one struct _HEADER):
      magic 6s "RTADJ\\0" | version u16 | n u64 | kind u8 | has_seed u8 |
      seed u64 | halfwidth u64 | weight f64 | scale f64 | nnz u64 |
      [sparse only: row offsets (n+1) x u64, then column indices nnz x u64].
    banded_uniform (kind deterministic_dense) stores no index arrays (nnz
    field 0); the pattern is implied by (n, halfwidth).  The random kinds
    always carry both arrays of A, even when the graph has no edges or
    stores its holes (A is then drawn, and cached, by ``adjacency``).
    """
    spec, csr = coupling.spec, coupling.adjacency
    has_seed = spec.seed is not None
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(
            _MAGIC, _VERSION, spec.n, KINDS.index(spec.kind), int(has_seed),
            spec.seed if has_seed else 0, spec.halfwidth, spec.weight,
            spec.scale, 0 if csr is None else int(csr.nnz)))
        if csr is not None:
            # converted a chunk at a time, so no u8 copy of A's indices is held
            for array in (csr.indptr, csr.indices):
                for lo in range(0, array.size, _CHUNK_VALUES):
                    fh.write(array[lo:lo + _CHUNK_VALUES].astype("<u8"))
