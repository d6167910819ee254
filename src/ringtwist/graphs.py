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
draws A from it too, when ``adjacency`` is read; no side is converted to the other.
The spec owns the realized window too: kappa_eff = (m + 1/2)/n for m =
floor(n*kappa), and its symbol, the Fourier multiplier of the mean coupling.

Node k (1-based, k in [1..n]) sits at position x = k/n and owns the cell
I_k = ((k-1)/n, k/n]; band membership at finite n uses circular index
distance min(|k-j|, n-|k-j|) <= floor(n*kappa), ties included, and the
diagonal (a self-loop) is part of the band.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from math import floor
from typing import Callable

import numpy as np
from scipy import sparse as _sparse

from ._boundary import check_int, check_real, check_seed
from .spectrum import _window_integrals

__all__ = [
    "GraphSpec",
    "CouplingMatrix",
    "build_coupling",
    "empirical_band_density",
]

KINDS = ("deterministic_dense", "random_dense", "random_sparse")

# Values per chunk when sampling a graph.
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

    Dropping them makes two specs of one graph compare equal.  The realized
    window is kappa_eff, and ``symbol`` is the multiplier the mean coupling
    applies to a Fourier mode, which sets the rotation speed of a run.
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
    def kappa_eff(self) -> float:
        """Realized window half-width (halfwidth + 1/2)/n, the 2m + 1 offsets over 2n."""
        return (self.halfwidth + 0.5) / self.n

    def symbol(self, ell):
        """The mean coupling's multiplier of mode(s) ell over p, the ring's window
        integral at kappa_eff: sum of cos(2*pi*ell*d/n) over |d| <= halfwidth, over n.
        Modes past n/2 alias, ell and n - ell with one symbol: each mode is taken
        into one period first, so an aliased one meets the sums as its alias does."""
        return _window_integrals(self.kappa_eff, ell, 0, self.n)[0]

    @property
    def edge_probability(self) -> float:
        """Bernoulli probability inside the band: 1 on the deterministic band, else
        n**(-gamma)*p; random_dense is that rule at gamma = 0, where n**-0.0 is 1."""
        if self.kind == "deterministic_dense":
            return 1.0
        return float(self.n) ** -(self.gamma or 0.0) * self.p

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
    every random graph, for checks and library users: the stored edges,
    or A drawn from the same seed on first access and cached.
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
    the opposite end of the ring, and an in-place prefix sum (the
    np.add.accumulate that np.cumsum calls) runs over all but the leading
    zero.  Complex addition adds real and imaginary parts apart, in order,
    so each sum is bit for bit a real prefix-sum difference.  At m = 0 the sum is the identity and the map copies.  The
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
        np.add.accumulate(run, out=run)
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

