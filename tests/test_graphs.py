"""Band graphon, coupling-matrix realizations, and their file formats."""

import csv
import hashlib
import tracemalloc
from dataclasses import replace
from math import floor, sqrt

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import sparse

from _oracles import (
    band_matrix,
    band_fraction_quad,
    graph_file_bytes,
    realized_density,
    sample_adjacency_one_shot,
    step_graphon_error_loop,
)
from ringtwist import graphs
from ringtwist.graphs import (
    CouplingMatrix,
    GraphSpec,
    _band_fraction,
    build_coupling,
    empirical_band_density,
    step_graphon_error,
    write_adjacency_binary,
    write_pixel_csv,
)


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


class TestCellAverage:
    # _band_fraction((k - j)/n, n, kappa) is the band's share of cell I_k x I_j
    def test_interior_and_exterior_cells(self):
        assert _band_fraction(0 / 10, 10, 0.31) == pytest.approx(1.0, abs=1e-15)
        assert _band_fraction(-2 / 10, 10, 0.31) == pytest.approx(1.0, abs=1e-15)
        assert _band_fraction(-5 / 10, 10, 0.31) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k, j", [(1, 4), (1, 5), (2, 9), (10, 3), (1, 8)])
    def test_straddling_cells_match_quadrature(self, k, j):
        oracle = band_fraction_quad((k - j) / 10, 10, 0.31)
        assert _band_fraction((k - j) / 10, 10, 0.31) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric_in_arguments(self):
        for k, j in [(1, 5), (2, 17), (9, 3)]:
            assert _band_fraction((k - j) / 17, 17, 0.23) == pytest.approx(
                _band_fraction((j - k) / 17, 17, 0.23), abs=1e-15)


def pixel_matrix(coupling, path):
    """The dense weight matrix read back from the pixel CSV of a coupling."""
    write_pixel_csv(path, coupling)
    dense = np.zeros((coupling.n, coupling.n))
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            dense[int(row["k"]) - 1, int(row["j"]) - 1] = float(row["w"])
    return dense


class TestDeterministicCoupling:
    def test_small_band_neighbor_count(self, tmp_path):
        # n=10, kappa=0.31: halfwidth 3, so 7 in-window neighbors per node
        coupling = build_coupling(GraphSpec(n=10, p=1.0, kappa=0.31))
        assert coupling.layout == "banded_uniform"
        assert coupling.halfwidth == 3
        dense = pixel_matrix(coupling, tmp_path / "pixels.csv")
        assert np.array_equal(dense, band_matrix(10, 3))
        assert np.array_equal(dense.sum(axis=1), np.full(10, 7.0))
        assert np.array_equal(np.diag(dense), np.ones(10))

    def test_circulant_and_symmetric(self, tmp_path):
        coupling = build_coupling(GraphSpec(n=12, p=0.6, kappa=0.2))
        dense = pixel_matrix(coupling, tmp_path / "pixels.csv")
        assert np.array_equal(dense, band_matrix(12, 2, 0.6))
        assert np.array_equal(dense, dense.T)
        for k in range(12):
            assert np.array_equal(dense[k], np.roll(dense[0], k))
        assert set(np.unique(dense)) == {0.0, 0.6}

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
                                                         monkeypatch, tmp_path):
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

        binary, pixels = graph_file_bytes(oracle, spec)
        write_adjacency_binary(tmp_path / "adj.bin", coupling)
        write_pixel_csv(tmp_path / "pixels.csv", coupling)
        assert (tmp_path / "adj.bin").read_bytes() == binary
        assert (tmp_path / "pixels.csv").read_bytes() == pixels

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


class TestStepApproximation:
    def test_frozen_value_at_aligned_width(self):
        # n*kappa integer: only the two boundary offsets straddle, each
        # half-covered, so error = p*sqrt(2*(1/4)/n)
        spec = GraphSpec(n=100, p=0.5, kappa=0.31)
        assert step_graphon_error(spec) == pytest.approx(
            0.5 * sqrt(0.5 / 100.0), abs=1e-15)

    def test_matches_quadrature_route(self):
        spec = GraphSpec(n=40, p=0.7, kappa=0.27)
        total = sum(
            (f := band_fraction_quad(o / 40, 40, 0.27)) * (1.0 - f)
            for o in range(40)
        )
        assert step_graphon_error(spec) == pytest.approx(
            0.7 * sqrt(total / 40), abs=1e-9)

    @given(n=st.integers(1, 3000), kappa=st.floats(1e-6, 0.5, exclude_max=True),
           aligned=st.booleans())
    def test_matches_the_full_offset_loop_bit_for_bit(self, n, kappa, aligned):
        # only offsets whose cells straddle a band edge add a nonzero term;
        # aligned widths kappa = m/n put the edge on a cell boundary
        if aligned:
            kappa = max(1, min(floor(n * kappa), (n - 1) // 2)) / n
            assume(kappa < 0.5)
        spec = GraphSpec(n=n, p=0.7, kappa=kappa)
        assert step_graphon_error(spec) == step_graphon_error_loop(spec)

    def test_error_decreases_with_resolution(self):
        errors = [
            step_graphon_error(GraphSpec(n=n, p=0.5, kappa=0.31))
            for n in (50, 100, 200, 400)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))


class TestFileFormats:
    def test_pixel_csv_banded(self, tmp_path):
        coupling = build_coupling(GraphSpec(n=10, p=0.8, kappa=0.31))
        path = tmp_path / "pixels.csv"
        write_pixel_csv(path, coupling)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 10 * 7
        ks = {int(r["k"]) for r in rows}
        assert ks == set(range(1, 11))
        assert all(float(r["w"]) == 0.8 for r in rows)

    @pytest.mark.parametrize("n, kappa, chunk_values", [
        (10, 0.31, 1), (10, 0.31, 1 << 16), (37, 0.05, 7), (200, 0.49, 100)])
    def test_pixel_csv_banded_matches_the_double_loop(self, tmp_path, monkeypatch,
                                                      n, kappa, chunk_values):
        # the row order of the loop the array build replaced, chunk by chunk
        monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        coupling = build_coupling(GraphSpec(n=n, p=0.8, kappa=kappa))
        path = tmp_path / "pixels.csv"
        write_pixel_csv(path, coupling)
        m = coupling.halfwidth
        expected = [["k", "j", "w"]] + [[str(k + 1), str((k + d) % n + 1), "0.8"]
                                        for k in range(n) for d in range(-m, m + 1)]
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == expected

    def test_pixel_csv_sparse_row_count(self, tmp_path):
        coupling = build_coupling(dense_spec(n=60))
        path = tmp_path / "pixels.csv"
        write_pixel_csv(path, coupling)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == coupling.nnz

    @pytest.mark.parametrize("spec, stored, digest", [
        (GraphSpec(n=200, p=0.7, kappa=0.31), "band",
         "9cf645a4eda43a2c46554b84efa4ca423dc1f0425755161e7a35c2fbe545c7f7"),
        (dense_spec(p=0.9, seed=11), "holes",
         "08137716596aa88fba3fb7b3b91a6e609f6944eb79544663d8439d42f1b3c8ae"),
        (sparse_spec(n=200, gamma=0.4, seed=12), "edges",
         "5837805e4b8536f110164cbbba4a4e6fa2a781c16009ec14ea567916fe9991fa"),
    ])
    def test_binary_bytes_are_frozen(self, spec, stored, digest, tmp_path):
        # sha256 of the version-1 files as the writer made them when it packed
        # the header field by field: the one header struct writes the same bytes
        coupling = build_coupling(spec)
        assert coupling.stored == stored
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, coupling)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @given(kind=st.sampled_from(graphs.KINDS), n=st.integers(1, 60),
           kappa=st.floats(0.001, 0.499),
           p=st.one_of(st.just(1e-9), st.floats(0.05, 1.0)),
           seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    def test_binary_and_pixels_follow_the_layout(self, kind, n, kappa, p, seed,
                                                 tmp_path_factory):
        # every kind, edgeless random graphs (p = 1e-9) and bands without a
        # seed included: the writers' bytes are the layout's, field by field
        if kind != "deterministic_dense" and seed is None:
            seed = 0
        spec = GraphSpec(n=n, p=p, kappa=kappa, kind=kind, seed=seed,
                         gamma=0.3 if kind == "random_sparse" else None)
        assert_files_follow_the_layout(spec, tmp_path_factory.mktemp("bin"))

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
    def test_pinned_graphs_follow_the_layout(self, spec, tmp_path):
        assert_files_follow_the_layout(spec, tmp_path)

    def test_binary_writer_holds_no_u8_copy_of_the_indices(self, tmp_path):
        # A of n = 1000, p = 0.9 has 559,061 indices, 4.3 MiB as u8; a
        # whole-array u8 copy and its bytes would peak at twice that
        coupling = build_coupling(dense_spec(n=1000, p=0.9, seed=1))
        u8_bytes = coupling.adjacency.indices.size * 8
        tracemalloc.start()
        try:
            write_adjacency_binary(tmp_path / "adj.bin", coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < u8_bytes
        assert (tmp_path / "adj.bin").stat().st_size == (
            graphs._HEADER.size + 8 * (coupling.n + 1) + u8_bytes)

    def test_pixel_writer_holds_no_copy_of_the_adjacency(self, tmp_path, monkeypatch):
        # the writer walks A's rows in blocks of about _CHUNK_VALUES pixels: a
        # COO copy of A (int32 rows and columns, float64 data) would peak above
        # A's own indices, 805,012 B here
        monkeypatch.setattr(graphs, "_CHUNK_VALUES", 2**10)
        coupling = build_coupling(dense_spec(n=600, p=0.9, seed=1))
        indices = coupling.adjacency.indices.nbytes
        tracemalloc.start()
        try:
            write_pixel_csv(tmp_path / "pixels.csv", coupling)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < indices


def assert_files_follow_the_layout(spec, path):
    # adjacency.bin and pixels.csv of build_coupling(spec), byte for byte
    # against the oracle fed the one-shot sample
    oracle = None if spec.kind == "deterministic_dense" else sample_adjacency_one_shot(
        spec.n, spec.halfwidth, spec.edge_probability, spec.seed)
    binary, pixels = graph_file_bytes(oracle, spec)
    coupling = build_coupling(spec)
    write_adjacency_binary(path / "adj.bin", coupling)
    write_pixel_csv(path / "pixels.csv", coupling)
    assert (path / "adj.bin").read_bytes() == binary
    assert (path / "pixels.csv").read_bytes() == pixels


def test_a_single_node_band():
    single = CouplingMatrix(GraphSpec(n=1, p=1.0, kappa=0.3))
    assert (single.nnz, single.layout, single.stored) == (1, "banded_uniform", "band")


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_pixels_carry_the_weight_of_every_stored_edge(p, tmp_path):
    # W = weight * A on every route: a random graph's pixels carry its weight
    # as the band's do, 1.0 on either stored side
    coupling = build_coupling(dense_spec(n=60, p=p))
    path = tmp_path / "pixels.csv"
    write_pixel_csv(path, coupling)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == coupling.nnz
    assert {row["w"] for row in rows} == {"1.0"}


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
