"""Band graphon and its coupling-matrix realizations."""

import hashlib
import tracemalloc
from dataclasses import replace
from math import pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from _oracles import (
    band_matrix,
    realized_density,
    sample_adjacency_one_shot,
)
from ringtwist import graphs
from ringtwist.graphs import (
    CouplingMatrix,
    GraphSpec,
    build_coupling,
    empirical_band_density,
)
from ringtwist.spectrum import _window_integrals


def dense_spec(n=200, p=0.5, kappa=0.31, seed=3):
    return GraphSpec(n=n, p=p, kappa=kappa, kind="random_dense", seed=seed)


def sparse_spec(n=500, p=1.0, kappa=0.31, gamma=0.3, seed=5):
    return GraphSpec(n=n, p=p, kappa=kappa, kind="random_sparse",
                     gamma=gamma, seed=seed)


class TestGraphSpec:
    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "p": 1.0, "kappa": 0.31},
        {"n": 10, "p": 0.0, "kappa": 0.31},
        {"n": 10, "p": 1.5, "kappa": 0.31},
        {"n": 10, "p": 1.0, "kappa": 0.0},
        {"n": 10, "p": 1.0, "kappa": 0.5},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "banded"},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_sparse", "seed": 1},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_sparse",
         "gamma": 0.6, "seed": 1},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense"},
        {"n": 10, "p": 1.0, "kappa": 0.31, "seed": -1},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense", "seed": 2**64},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense", "seed": 1.5},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense", "seed": "7"},
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense", "seed": True},
        {"n": True, "p": 1.0, "kappa": 0.31},   # bool is an int, but not a size
        # a field the kind ignores is checked before it is dropped
        {"n": 10, "p": 1.0, "kappa": 0.31, "kind": "random_dense", "gamma": 0.6,
         "seed": 1},
        {"n": 10, "p": 1.0, "kappa": 0.31, "gamma": 0.0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GraphSpec(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("n", 1.5), ("n", 0), ("n", True), ("seed", -1), ("seed", "x"), ("seed", 2**64),
        ("seed", 1.0)])
    def test_refusal_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            GraphSpec(**{"n": 10, "p": 1.0, "kappa": 0.3, field: value})

    def test_seed_range_is_accepted_to_its_edges(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert GraphSpec(n=10, p=0.5, kappa=0.31, kind="random_dense",
                             seed=seed).seed == seed

    @pytest.mark.parametrize("kind, ignored", [
        ("random_dense", {"gamma": 0.3}), ("deterministic_dense", {"gamma": 0.3}),
        ("deterministic_dense", {"seed": 5}),
        ("deterministic_dense", {"gamma": 0.3, "seed": 5})])
    def test_fields_the_kind_ignores_are_dropped(self, kind, ignored):
        # two specs of one graph are equal, so a coupling of either runs as the other
        plain = GraphSpec(n=40, p=0.5, kappa=0.3, kind=kind,
                          seed=None if kind == "deterministic_dense" else 1)
        given = GraphSpec(**{**vars(plain), **ignored})
        assert given == plain
        assert (given.gamma, given.seed) == (None, plain.seed)

    @pytest.mark.parametrize("spec, stored", [
        (GraphSpec(n=40, p=0.3, kappa=0.3), "band"),
        (dense_spec(p=0.49), "edges"),
        (dense_spec(p=0.5), "holes"),   # the tie goes to H
        (dense_spec(p=0.9), "holes"),
        (sparse_spec(n=500, p=1.0, gamma=0.1), "holes"),   # 500**-0.1 = 0.54
        (sparse_spec(n=500, p=1.0, gamma=0.3), "edges"),
    ])
    def test_stored_side_follows_the_edge_probability(self, spec, stored):
        assert spec.stored == stored

    @pytest.mark.parametrize("n, kappa, expected", [
        (10, 0.31, 3), (1000, 0.31, 310), (50, 0.31, 15), (100, 0.16, 16),
    ])
    def test_halfwidth(self, n, kappa, expected):
        assert GraphSpec(n=n, p=1.0, kappa=kappa).halfwidth == expected

    def test_edge_probability_and_scale(self):
        det = GraphSpec(n=100, p=0.7, kappa=0.31)
        assert det.edge_probability == 1.0
        assert det.scale == pytest.approx(0.01, abs=0)
        assert det.weight == 0.7

        dense = dense_spec(n=100, p=0.5)
        assert dense.edge_probability == 0.5
        assert dense.scale == pytest.approx(0.01, abs=0)
        assert dense.weight == 1.0

        sp = sparse_spec(n=2000)
        assert sp.edge_probability == pytest.approx(2000.0 ** -0.3, abs=1e-15)
        assert sp.scale == pytest.approx(2000.0 ** -0.7, abs=1e-15)
        assert sp.weight == 1.0

        # bit for bit: 1 on the band, p for random_dense (the sparse rule at
        # gamma = 0) and n**(-gamma)*p for random_sparse
        for n in (1, 7, 1000, 10**5):
            for p in (0.3, 0.7, 1.0):
                for kappa in (0.001, 0.31, 0.49):
                    det = GraphSpec(n=n, p=p, kappa=kappa)
                    assert det.edge_probability.hex() == (1.0).hex()
                    dense = dense_spec(n=n, p=p, kappa=kappa)
                    assert dense.edge_probability.hex() == p.hex()
                    for gamma in (0.1, 0.3, 0.45):
                        sp = sparse_spec(n=n, p=p, kappa=kappa, gamma=gamma)
                        assert sp.edge_probability.hex() == (float(n) ** (-gamma) * p).hex()

    @pytest.mark.parametrize("n", [1, 7, 1000, 10**5])
    @pytest.mark.parametrize("kind", graphs.KINDS)
    def test_the_symbol_gives_the_rotation_speed_bit_for_bit(self, kind, n):
        # p*sin(sigma)*symbol(q) has the bits of the speed as the run layer
        # once formed it, from the window integral at (m + 1/2)/n with the
        # lag q as its third argument, where symbol passes q as its second
        for kappa in (0.005, 0.168, 0.31, 0.4919):
            spec = GraphSpec(n=n, p=0.7, kappa=kappa, kind=kind, gamma=0.45, seed=1)
            kappa_eff = (spec.halfwidth + 0.5) / n
            assert spec.kappa_eff == kappa_eff
            assert spec.symbol(0) == (2 * spec.halfwidth + 1) / n
            for q in range(17):
                for sigma in (0.5, -1.3, pi / 3):
                    by_hand = float(_window_integrals(kappa_eff, 0, q, n)[0])
                    assert (spec.p * sin(sigma) * float(spec.symbol(q))
                            == spec.p * sin(sigma) * by_hand)


def weight_matrix(coupling):
    """The dense W = weight * A of a coupling: A from ``adjacency`` for a random
    graph, and from the coupling sums of the unit vectors for the band."""
    if coupling.adjacency is not None:
        return coupling.weight * coupling.adjacency.toarray()
    sums = coupling.coupling_sums()
    columns = [sums(unit, unit)[0].copy() for unit in np.eye(coupling.n)]
    return coupling.weight * np.column_stack(columns)


class TestDeterministicCoupling:
    def test_small_band_neighbor_count(self):
        # n=10, kappa=0.31: halfwidth 3, so 7 in-window neighbors per node
        coupling = build_coupling(GraphSpec(n=10, p=1.0, kappa=0.31))
        assert coupling.layout == "banded_uniform"
        assert coupling.halfwidth == 3
        dense = weight_matrix(coupling)
        assert np.array_equal(dense, band_matrix(10, 3))
        assert np.array_equal(dense.sum(axis=1), np.full(10, 7.0))
        assert np.array_equal(np.diag(dense), np.ones(10))

    def test_circulant_and_symmetric(self):
        coupling = build_coupling(GraphSpec(n=12, p=0.6, kappa=0.2))
        dense = weight_matrix(coupling)
        assert np.array_equal(dense, band_matrix(12, 2, 0.6))
        assert np.array_equal(dense, dense.T)
        for k in range(12):
            assert np.array_equal(dense[k], np.roll(dense[0], k))
        assert set(np.unique(dense)) == {0.0, 0.6}

    def test_band_weight_is_p_on_every_in_window_pixel(self):
        # n=10, kappa=0.31: 10 * 7 in-window pixels, each of weight p
        coupling = build_coupling(GraphSpec(n=10, p=0.8, kappa=0.31))
        dense = weight_matrix(coupling)
        assert np.array_equal(dense, band_matrix(10, 3) * 0.8)
        assert np.count_nonzero(dense) == coupling.nnz == 10 * 7
        assert np.array_equal(np.count_nonzero(dense, axis=1), np.full(10, 7))
        assert set(dense[dense != 0.0]) == {0.8}

    @pytest.mark.parametrize("n, kappa", [
        (10, 0.31), (37, 0.05), (200, 0.49),
        (5, 0.01),       # halfwidth 0: the sums copy their input
    ])
    def test_band_matches_the_double_loop(self, n, kappa):
        # W[k, (k + d) mod n] = p for d = -m..m, written as a double loop
        coupling = build_coupling(GraphSpec(n=n, p=0.8, kappa=kappa))
        m = coupling.halfwidth
        expected = np.zeros((n, n))
        for k in range(n):
            for d in range(-m, m + 1):
                expected[k, (k + d) % n] = 0.8
        assert np.array_equal(weight_matrix(coupling), expected)

    def test_nnz_and_scale(self):
        coupling = build_coupling(GraphSpec(n=100, p=1.0, kappa=0.31))
        assert coupling.nnz == 100 * (2 * 31 + 1)
        assert coupling.spec.scale == pytest.approx(0.01, abs=0)


class TestRandomCoupling:
    def test_dense_structure(self):
        coupling = build_coupling(dense_spec())
        dense = coupling.adjacency.toarray()
        assert np.array_equal(dense, dense.T)
        assert set(np.unique(dense)) <= {0.0, 1.0}
        assert np.all(dense[band_matrix(200, dense_spec().halfwidth) == 0.0] == 0.0)

    def test_reproducible_and_seed_sensitive(self):
        a = build_coupling(dense_spec(seed=3)).adjacency.toarray()
        b = build_coupling(dense_spec(seed=3)).adjacency.toarray()
        c = build_coupling(dense_spec(seed=4)).adjacency.toarray()
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("spec", [dense_spec(), sparse_spec()])
    def test_density_within_three_sigma(self, spec):
        coupling = build_coupling(spec)
        target = spec.edge_probability
        universe = spec.n * (spec.halfwidth + 1)
        sigma = sqrt(target * (1.0 - target) / universe)
        density = empirical_band_density(coupling)
        assert abs(density - target) <= 3.0 * sigma

    @pytest.mark.parametrize("spec, chunk_values", [
        (sparse_spec(n=5000, kappa=0.31, gamma=0.45, seed=1), None),
        (dense_spec(n=200, p=0.9, seed=2), 1000),   # 15 rows a chunk, 200 = 13*15 + 5
        (dense_spec(n=203, p=0.3, seed=3), 400),    # 6 rows a chunk, 203 = 33*6 + 5
        (sparse_spec(n=500, seed=4), 777),
        (sparse_spec(n=500, seed=5), 64),           # one row of 156 draws > 64
        (dense_spec(n=61, p=0.9, kappa=0.49, seed=6), 1),
    ])
    def test_streaming_sampler_matches_one_shot(self, spec, chunk_values, monkeypatch):
        if chunk_values is not None:
            monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        adjacency = build_coupling(spec).adjacency
        oracle = sample_adjacency_one_shot(spec.n, spec.halfwidth,
                                           spec.edge_probability, spec.seed)
        assert np.array_equal(adjacency.indptr, oracle.indptr)
        assert np.array_equal(adjacency.indices, oracle.indices)
        assert adjacency.indices.dtype == adjacency.indptr.dtype == np.int32

    @pytest.mark.parametrize("chunk_values", [1, 100, 1 << 16])
    def test_band_holes_are_band_minus_adjacency(self, chunk_values, monkeypatch):
        # the drawn holes are band - A of the one-shot A, bit for bit as a
        # CSR of that dense difference
        monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        spec = dense_spec(n=53, p=0.8, seed=4)
        oracle = sample_adjacency_one_shot(53, 16, 0.8, spec.seed)
        holes = sparse.csr_array(band_matrix(53, 16) - oracle.toarray())
        stored = build_coupling(spec).csr
        assert stored.indices.dtype == stored.indptr.dtype == np.int32
        assert stored.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(stored, name), getattr(holes, name))
            assert getattr(stored, name).dtype == getattr(holes, name).dtype

    def test_sampler_memory_stays_near_the_graph_size(self):
        # one float64 (n, halfwidth+1) draw array peaked at 1064 MiB here
        spec = sparse_spec(n=20_000, kappa=0.31, gamma=0.45, seed=1)
        tracemalloc.start()
        try:
            build_coupling(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20

    def test_a_holes_build_holds_no_copy_of_a(self):
        # p = 0.9 stores H: the build's peak stays under A's own int32
        # indices, 2,236,244 B for n = 1000
        spec = dense_spec(n=1000, p=0.9, seed=1)
        tracemalloc.start()
        try:
            coupling = build_coupling(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coupling.stored == "holes"
        assert peak < coupling.adjacency.indices.nbytes

    def test_the_holes_coupling_sums_never_build_a(self):
        # window sums minus H @ x: A is neither drawn nor cached
        coupling = build_coupling(dense_spec(n=1000, p=0.9, seed=1))
        x = np.linspace(0.0, 1.0, coupling.n)
        tracemalloc.start()
        try:
            coupling.coupling_sums()(x, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "adjacency" not in vars(coupling)
        assert peak < coupling.adjacency.indices.nbytes

    def test_sparse_scale_compensates_thinning(self):
        spec = sparse_spec(n=500)
        coupling = build_coupling(spec)
        assert coupling.layout == "sparse_binary"
        assert coupling.spec.scale == pytest.approx(500.0 ** -0.7, abs=1e-15)

    def test_deterministic_density_is_one(self):
        assert empirical_band_density(
            build_coupling(GraphSpec(n=50, p=0.9, kappa=0.2))) == 1.0


STORED_SIDE_CASES = [
    (dense_spec(p=0.3, seed=1), None),
    (dense_spec(p=0.5, seed=2), None),
    (dense_spec(p=0.51, seed=3), None),
    (dense_spec(p=0.9, seed=4), None),
    (dense_spec(p=1.0, seed=5), None),                   # no holes at all
    (dense_spec(n=60, p=0.9, kappa=0.01, seed=6), None),  # halfwidth 0
    (dense_spec(n=60, p=0.3, kappa=0.01, seed=6), None),
    # n = 30 near 1/2: realized density on the far side of 1/2 from p, and
    # exactly 1/2; the stored side follows p alone
    (dense_spec(n=30, p=0.5, kappa=0.3, seed=1), None),   # 0.51
    (dense_spec(n=30, p=0.51, kappa=0.3, seed=0), None),  # 0.457
    (dense_spec(n=30, p=0.5, kappa=0.3, seed=24), None),  # 0.5
    (dense_spec(n=30, p=0.51, kappa=0.3, seed=60), None),  # 0.5
    (dense_spec(n=203, p=0.9, seed=7), 400),              # 203 = 33*6 + 5 rows
    (dense_spec(n=61, p=0.51, kappa=0.49, seed=8), 1),
    (dense_spec(n=61, p=0.9, kappa=0.49, seed=9), 1),
    # 2m + 1 = n: every pair of the ring is in the band, drawn once
    (dense_spec(n=61, p=0.9, kappa=0.4919, seed=10), None),
    (dense_spec(n=61, p=0.3, kappa=0.4919, seed=11), None),
]


class TestStoredSide:
    """A random graph keeps the side its spec names, H from edge probability
    1/2 on and A below, and every reading of it is the A sampled directly."""

    @pytest.mark.parametrize("spec, chunk_values", STORED_SIDE_CASES)
    def test_every_reading_is_the_directly_sampled_graph(self, spec, chunk_values,
                                                         monkeypatch):
        if chunk_values is not None:
            monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        oracle = sample_adjacency_one_shot(spec.n, spec.halfwidth, spec.p, spec.seed)
        coupling = build_coupling(spec)
        # the side the right-hand side reads
        assert coupling.stored == spec.stored == ("holes" if spec.p >= 0.5 else "edges")
        assert "adjacency" not in vars(coupling)  # A is not built with the graph
        assert coupling.nnz == oracle.nnz
        assert empirical_band_density(coupling) == realized_density(oracle, spec.halfwidth)
        for name in ("indptr", "indices", "data"):
            built, expected = getattr(coupling.adjacency, name), getattr(oracle, name)
            assert built.dtype == expected.dtype, name
            assert np.array_equal(built, expected), name

    @pytest.mark.parametrize("spec, chunk_values", STORED_SIDE_CASES)
    def test_the_build_draws_the_stored_side_without_a_band_complement(
            self, spec, chunk_values, monkeypatch):
        # the side is drawn from the seed, never converted from the other one
        if chunk_values is not None:
            monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        coupling = build_coupling(spec)
        assert coupling.stored == spec.stored
        oracle = sample_adjacency_one_shot(spec.n, spec.halfwidth, spec.p,
                                           spec.seed).toarray()
        band = band_matrix(spec.n, spec.halfwidth)
        assert np.array_equal(coupling.csr.toarray(),
                              band - oracle if spec.stored == "holes" else oracle)


def sha256(*arrays):
    return hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()


class TestFixedSeed:
    """A fixed seed keeps drawing the same graph, bit for bit."""

    def test_the_band_is_its_spec(self):
        coupling = build_coupling(GraphSpec(n=200, p=0.7, kappa=0.31))
        assert coupling.stored == "band" and coupling.adjacency is None
        assert (coupling.n, coupling.halfwidth, coupling.weight, coupling.stored_nnz) == (
            200, 62, 0.7, 0)

    @pytest.mark.parametrize("spec, stored, adjacency_digest, stored_digest", [
        (dense_spec(p=0.9, seed=11), "holes",
         "ada473361beaff8677ccc839a3178282f3ac5e4bb816cb1daccb1f044dbb3c18",
         "151d933de265e5149286f5fb4084ac2342f5c6749513512f67dfafda02ee7b6e"),
        (sparse_spec(n=200, gamma=0.4, seed=12), "edges",
         "58b5c9f52d826491fafc7726ecea40175dba123929875604b3a349331ba026fb",
         "55a81cabf5c30f4b4ccf914c5d9d680d9e8ae7cea113e3f5e9ac9d67c8f4834c"),
    ], ids=["dense-holes", "sparse-edges"])
    def test_random_graphs_are_frozen(self, spec, stored, adjacency_digest, stored_digest):
        # sha256 of A's row offsets and column indices as <i4, and of the
        # stored CSR's offsets, indices (<i4) and data (<f8)
        coupling = build_coupling(spec)
        assert coupling.stored == stored
        a, csr = coupling.adjacency, coupling.csr
        assert sha256(a.indptr.astype("<i4"), a.indices.astype("<i4")) == adjacency_digest
        assert sha256(csr.indptr.astype("<i4"), csr.indices.astype("<i4"),
                      csr.data.astype("<f8")) == stored_digest

    @given(kind=st.sampled_from(graphs.KINDS), n=st.integers(1, 60),
           kappa=st.floats(0.001, 0.499),
           p=st.one_of(st.just(1e-9), st.floats(0.05, 1.0)),
           seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    def test_every_graph_follows_the_layout(self, kind, n, kappa, p, seed):
        # every kind, edgeless random graphs (p = 1e-9) and bands without a
        # seed included
        if kind != "deterministic_dense" and seed is None:
            seed = 0
        spec = GraphSpec(n=n, p=p, kappa=kappa, kind=kind, seed=seed,
                         gamma=0.3 if kind == "random_sparse" else None)
        assert_follows_the_layout(spec)

    @pytest.mark.parametrize("spec", [
        GraphSpec(n=100, p=0.7, kappa=0.31),                     # band, no seed
        GraphSpec(n=7, p=1.0, kappa=0.2, seed=2**64 - 1),        # band, seed dropped
        dense_spec(n=120, seed=9),                                # stores A
        dense_spec(n=120, p=0.9, seed=9),                         # stores H
        sparse_spec(n=150),
        GraphSpec(n=5, p=1e-9, kappa=0.4, kind="random_dense", seed=3),   # no edges
        GraphSpec(n=5, p=1e-9, kappa=0.4, kind="random_sparse", gamma=0.3, seed=0),
        GraphSpec(n=1, p=0.5, kappa=0.3, kind="random_dense", seed=1),    # one node
    ])
    def test_pinned_graphs_follow_the_layout(self, spec):
        assert_follows_the_layout(spec)


def assert_follows_the_layout(spec):
    # A of build_coupling(spec) is the one-shot sample, dtypes included; the
    # band stores no A, and its W is the dense band times p
    coupling = build_coupling(spec)
    if spec.kind == "deterministic_dense":
        assert coupling.adjacency is None
        assert np.array_equal(weight_matrix(coupling),
                              band_matrix(spec.n, spec.halfwidth, spec.p))
        return
    oracle = sample_adjacency_one_shot(spec.n, spec.halfwidth, spec.edge_probability,
                                       spec.seed)
    for name in ("indptr", "indices", "data"):
        built, expected = getattr(coupling.adjacency, name), getattr(oracle, name)
        assert built.dtype == expected.dtype, name
        assert np.array_equal(built, expected), name


def test_a_single_node_band():
    single = CouplingMatrix(GraphSpec(n=1, p=1.0, kappa=0.3))
    assert (single.nnz, single.layout, single.stored) == (1, "banded_uniform", "band")


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_every_edge_of_a_random_graph_has_weight_one(p):
    # W = weight * A on every route: a random graph's A has data 1.0 and its
    # weight is 1.0, on either stored side
    coupling = build_coupling(dense_spec(n=60, p=p))
    assert coupling.stored == ("holes" if p >= 0.5 else "edges")
    assert coupling.adjacency.nnz == coupling.nnz
    assert set(coupling.adjacency.data.tolist()) == {1.0}
    assert coupling.weight == 1.0


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_the_coupling_sums_of_a_random_graph_read_its_pixels(p):
    # the right-hand side's route, edges A @ x or window sums minus H @ x,
    # maps the unit vectors onto A's columns: nnz pixels of weight 1.0
    coupling = build_coupling(dense_spec(n=60, p=p))
    sums = coupling.coupling_sums()
    dense = np.column_stack([sums(unit, unit)[0].copy() for unit in np.eye(coupling.n)])
    assert np.array_equal(dense, coupling.adjacency.toarray())
    assert np.count_nonzero(dense) == coupling.nnz


@pytest.mark.parametrize("spec", [
    GraphSpec(n=50, p=0.7, kappa=0.31), dense_spec(p=0.3), dense_spec(p=0.9), sparse_spec()])
def test_a_coupling_reads_the_spec_it_was_built_from(spec):
    # n, halfwidth and weight read the spec the coupling was built from
    coupling = build_coupling(spec)
    assert coupling.spec is spec
    assert (coupling.n, coupling.halfwidth, coupling.weight) == (
        spec.n, spec.halfwidth, spec.weight)


@pytest.mark.parametrize("name", ["n", "halfwidth", "weight"])
def test_spec_facts_cannot_be_set_apart_from_the_spec(name):
    # a coupling of another size or weight is the coupling of another spec:
    # neither assignment nor dataclasses.replace changes one fact alone
    coupling = build_coupling(dense_spec(n=60, p=0.9))
    with pytest.raises(AttributeError):
        setattr(coupling, name, 0.5)
    with pytest.raises(TypeError):
        replace(coupling, **{name: 0.5})
    assert getattr(coupling, name) == getattr(coupling.spec, name)
