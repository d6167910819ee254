"""Band graphon, coupling-matrix realizations, and their file formats."""

import csv
import tracemalloc
from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _oracles import band_fraction_quad, sample_adjacency_one_shot
from ringtwist import graphs
from ringtwist.graphs import (
    CouplingMatrix,
    GraphSpec,
    build_coupling,
    cell_average,
    empirical_band_density,
    graphon_eval,
    graphon_l2_distance,
    read_adjacency_binary,
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
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GraphSpec(**kwargs)

    def test_seed_range_is_accepted_to_its_edges(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert GraphSpec(n=10, p=0.5, kappa=0.31, kind="random_dense",
                             seed=seed).seed == seed

    @pytest.mark.parametrize("n, kappa, expected", [
        (10, 0.31, 3), (1000, 0.31, 310), (50, 0.31, 15), (100, 0.16, 16),
    ])
    def test_halfwidth(self, n, kappa, expected):
        assert GraphSpec(n=n, p=1.0, kappa=kappa).halfwidth == expected

    def test_edge_probability_and_scale(self):
        det = GraphSpec(n=100, p=0.7, kappa=0.31)
        assert det.edge_probability == 1.0
        assert det.scale == pytest.approx(0.01, abs=0)

        dense = dense_spec(n=100, p=0.5)
        assert dense.edge_probability == 0.5
        assert dense.scale == pytest.approx(0.01, abs=0)

        sp = sparse_spec(n=2000)
        assert sp.edge_probability == pytest.approx(2000.0 ** -0.3, abs=1e-15)
        assert sp.scale == pytest.approx(2000.0 ** -0.7, abs=1e-15)


class TestGraphonEval:
    def test_symmetry_on_grid(self):
        x = np.linspace(0.0, 1.0, 23)
        xx, yy = np.meshgrid(x, x)
        w = graphon_eval(xx, yy, 0.5, 0.31)
        assert np.array_equal(w, w.T)

    @pytest.mark.parametrize("x, y, expected", [
        (0.0, 0.31, 0.5),        # boundary included
        (0.0, 0.3100001, 0.0),   # just outside
        (0.05, 0.95, 0.5),       # wraps around the circle, distance 0.1
        (0.0, 0.5, 0.0),         # antipodal point outside the band
        (0.2, 0.2, 0.5),         # diagonal inside
        (1.25, 0.99, 0.5),       # positions reduced mod 1, distance 0.26
    ])
    def test_pointwise(self, x, y, expected):
        assert graphon_eval(x, y, 0.5, 0.31) == expected
        assert isinstance(graphon_eval(x, y, 0.5, 0.31), float)

    def test_broadcasting(self):
        out = graphon_eval(np.zeros(4), np.array([0.0, 0.2, 0.4, 0.9]), 1.0, 0.31)
        assert out.shape == (4,)
        assert out.tolist() == [1.0, 1.0, 0.0, 1.0]


class TestCellAverage:
    def test_interior_and_exterior_cells(self):
        spec = GraphSpec(n=10, p=0.8, kappa=0.31)
        assert cell_average(1, 1, spec) == pytest.approx(0.8, abs=1e-15)
        assert cell_average(1, 3, spec) == pytest.approx(0.8, abs=1e-15)
        assert cell_average(1, 6, spec) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("k, j", [(1, 4), (1, 5), (2, 9), (10, 3), (1, 8)])
    def test_straddling_cells_match_quadrature(self, k, j):
        spec = GraphSpec(n=10, p=0.8, kappa=0.31)
        oracle = spec.p * band_fraction_quad((k - j) / spec.n, spec.n, spec.kappa)
        assert cell_average(k, j, spec) == pytest.approx(oracle, abs=1e-9)

    def test_symmetric_in_arguments(self):
        spec = GraphSpec(n=17, p=1.0, kappa=0.23)
        for k, j in [(1, 5), (2, 17), (9, 3)]:
            assert cell_average(k, j, spec) == pytest.approx(
                cell_average(j, k, spec), abs=1e-15)

    @pytest.mark.parametrize("k, j", [(0, 1), (1, 0), (11, 1), (1, 11)])
    def test_index_out_of_range(self, k, j):
        with pytest.raises(IndexError):
            cell_average(k, j, GraphSpec(n=10, p=1.0, kappa=0.31))


class TestDeterministicCoupling:
    def test_small_band_neighbor_count(self):
        # n=10, kappa=0.31: halfwidth 3, so 7 in-window neighbors per node
        coupling = build_coupling(GraphSpec(n=10, p=1.0, kappa=0.31))
        assert coupling.layout == "banded_uniform"
        assert coupling.halfwidth == 3
        dense = coupling.to_dense()
        assert np.array_equal(dense.sum(axis=1), np.full(10, 7.0))
        assert np.array_equal(np.diag(dense), np.ones(10))

    def test_circulant_and_symmetric(self):
        coupling = build_coupling(GraphSpec(n=12, p=0.6, kappa=0.2))
        dense = coupling.to_dense()
        assert np.array_equal(dense, dense.T)
        for k in range(12):
            assert np.array_equal(dense[k], np.roll(dense[0], k))
        assert set(np.unique(dense)) == {0.0, 0.6}

    def test_nnz_and_scale(self):
        coupling = build_coupling(GraphSpec(n=100, p=1.0, kappa=0.31))
        assert coupling.nnz == 100 * (2 * 31 + 1)
        assert coupling.scale == pytest.approx(0.01, abs=0)


class TestRandomCoupling:
    def test_dense_structure(self):
        coupling = build_coupling(dense_spec())
        dense = coupling.to_dense()
        assert np.array_equal(dense, dense.T)
        assert set(np.unique(dense)) <= {0.0, 1.0}
        band = build_coupling(
            GraphSpec(n=200, p=1.0, kappa=0.31)).to_dense()
        assert np.all(dense[band == 0.0] == 0.0)

    def test_reproducible_and_seed_sensitive(self):
        a = build_coupling(dense_spec(seed=3)).to_dense()
        b = build_coupling(dense_spec(seed=3)).to_dense()
        c = build_coupling(dense_spec(seed=4)).to_dense()
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
        monkeypatch.setattr(graphs, "_CHUNK_VALUES", chunk_values)
        coupling = build_coupling(dense_spec(n=53, p=0.8, seed=4))
        holes = graphs._band_holes(coupling.adjacency, coupling.halfwidth)
        band = build_coupling(GraphSpec(n=53, p=1.0, kappa=0.31)).to_dense()
        assert np.array_equal(holes.toarray(), band - coupling.to_dense())
        assert holes.indices.dtype == holes.indptr.dtype == np.int32
        assert holes.has_sorted_indices

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
        assert coupling.scale == pytest.approx(500.0 ** -0.7, abs=1e-15)

    def test_deterministic_density_is_one(self):
        assert empirical_band_density(
            build_coupling(GraphSpec(n=50, p=0.9, kappa=0.2))) == 1.0


class TestGraphonDistance:
    def test_identical_specs(self):
        spec = GraphSpec(n=100, p=0.5, kappa=0.31)
        assert graphon_l2_distance(spec, spec) == 0.0

    def test_width_contrast(self):
        # symmetric difference of the bands has measure 2*0.01
        a = GraphSpec(n=100, p=1.0, kappa=0.31)
        b = GraphSpec(n=100, p=1.0, kappa=0.30)
        assert graphon_l2_distance(a, b) == pytest.approx(sqrt(0.02), abs=1e-15)

    def test_weight_contrast(self):
        # common band of measure 2*0.25, weight gap 0.5
        a = GraphSpec(n=100, p=1.0, kappa=0.25)
        b = GraphSpec(n=100, p=0.5, kappa=0.25)
        assert graphon_l2_distance(a, b) == pytest.approx(sqrt(0.125), abs=1e-15)

    def test_mixed_contrast(self):
        a = GraphSpec(n=100, p=0.8, kappa=0.2)
        b = GraphSpec(n=100, p=0.4, kappa=0.3)
        expected = sqrt(0.4 ** 2 * 2 * 0.2 + 0.4 ** 2 * 2 * 0.1)
        assert graphon_l2_distance(a, b) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("pa, ka, pb, kb", [
        (1.0, 0.31, 1.0, 0.30),
        (1.0, 0.25, 0.5, 0.25),
        (0.8, 0.2, 0.4, 0.3),
    ])
    def test_exact_formula_against_midpoint_rule(self, pa, ka, pb, kb):
        a = GraphSpec(n=100, p=pa, kappa=ka)
        b = GraphSpec(n=100, p=pb, kappa=kb)
        exact = graphon_l2_distance(a, b)
        grid = graphon_l2_distance(a, b, resolution=2000)
        assert abs(exact - grid) < 0.01

    def test_resolution_validation(self):
        spec = GraphSpec(n=100, p=1.0, kappa=0.31)
        with pytest.raises(ValueError):
            graphon_l2_distance(spec, spec, resolution=1)

    def test_sparse_kind_shares_the_kernel(self):
        # thinning is a sampling device; the limiting kernel has weight p
        a = GraphSpec(n=100, p=1.0, kappa=0.31)
        b = sparse_spec(n=100, kappa=0.31)
        assert graphon_l2_distance(a, b) == 0.0


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

    def test_pixel_csv_sparse_row_count(self, tmp_path):
        coupling = build_coupling(dense_spec(n=60))
        path = tmp_path / "pixels.csv"
        write_pixel_csv(path, coupling)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == coupling.nnz

    def test_binary_round_trip_banded(self, tmp_path):
        coupling = build_coupling(GraphSpec(n=100, p=0.7, kappa=0.31))
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, coupling)
        back = read_adjacency_binary(path)
        assert back.layout == "banded_uniform"
        assert back.n == 100
        assert back.halfwidth == 31
        assert back.weight == 0.7
        assert back.scale == coupling.scale
        assert back.seed is None
        assert back.kind == "deterministic_dense"

    @pytest.mark.parametrize("spec", [dense_spec(n=120, seed=9), sparse_spec(n=150)])
    def test_binary_round_trip_random(self, spec, tmp_path):
        coupling = build_coupling(spec)
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, coupling)
        back = read_adjacency_binary(path)
        assert back.layout == "sparse_binary"
        assert back.seed == spec.seed
        assert back.kind == spec.kind
        assert back.nnz == coupling.nnz
        assert np.array_equal(back.to_dense(), coupling.to_dense())

    def test_binary_round_trip_edgeless_random(self, tmp_path):
        # an edgeless random graph used to read back as the full band
        spec = GraphSpec(n=5, p=1e-9, kappa=0.4, kind="random_dense", seed=3)
        coupling = build_coupling(spec)
        assert coupling.nnz == 0
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, coupling)
        back = read_adjacency_binary(path)
        assert back.layout == "sparse_binary"
        assert back.kind == "random_dense"
        assert back.nnz == 0
        assert np.array_equal(back.to_dense(), np.zeros((5, 5)))

    @given(kind=st.sampled_from(graphs.KINDS), n=st.integers(1, 60),
           kappa=st.floats(0.001, 0.499),
           p=st.one_of(st.just(1e-9), st.floats(0.05, 1.0)),
           seed=st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    def test_binary_round_trip_property(self, kind, n, kappa, p, seed,
                                        tmp_path_factory):
        # every kind, edgeless random graphs (p = 1e-9) included
        if kind != "deterministic_dense" and seed is None:
            seed = 0
        spec = GraphSpec(n=n, p=p, kappa=kappa, kind=kind, seed=seed,
                         gamma=0.3 if kind == "random_sparse" else None)
        coupling = build_coupling(spec)
        path = tmp_path_factory.mktemp("bin") / "adj.bin"
        write_adjacency_binary(path, coupling)
        back = read_adjacency_binary(path)
        for name in ("layout", "n", "scale", "halfwidth", "weight", "kind", "seed",
                     "nnz"):
            assert getattr(back, name) == getattr(coupling, name), name
        assert np.array_equal(back.to_dense(), coupling.to_dense())

    def test_binary_round_trip_keeps_dtypes(self, tmp_path):
        coupling = build_coupling(dense_spec(n=120, p=0.9, seed=9))
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, coupling)
        back = read_adjacency_binary(path).adjacency
        built = coupling.adjacency
        for name in ("indptr", "indices", "data"):
            assert getattr(back, name).dtype == getattr(built, name).dtype
            assert np.array_equal(getattr(back, name), getattr(built, name))

    @pytest.mark.parametrize("spec, change", [
        (dense_spec(n=40, seed=2), -8),
        (dense_spec(n=40, seed=2), -1),
        (dense_spec(n=40, seed=2), 1),
        (dense_spec(n=40, seed=2), 8),
        (GraphSpec(n=10, p=1.0, kappa=0.31), 8),   # banded: header only
    ])
    def test_wrong_length_rejected(self, spec, change, tmp_path):
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, build_coupling(spec))
        data = path.read_bytes()
        size = len(data)
        path.write_bytes(data[:size + change] if change < 0
                         else data + b"\0" * change)
        with pytest.raises(ValueError,
                           match=f"expected {size} bytes.*found {size + change}"):
            read_adjacency_binary(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, build_coupling(dense_spec(n=40, seed=2)))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ValueError, match="header needs 58 bytes, found 20"):
            read_adjacency_binary(path)

    @pytest.mark.parametrize("offset, value", [
        (26, 20),    # halfwidth 20 on n = 40: the band would wrap onto itself
        (-8, 40),    # last column index equal to n
        (58, 1),     # first row offset not 0
        (16, 7),     # kind code 7 names no kind
    ])
    def test_inconsistent_contents_rejected(self, offset, value, tmp_path):
        path = tmp_path / "adj.bin"
        write_adjacency_binary(path, build_coupling(dense_spec(n=40, seed=2)))
        data = bytearray(path.read_bytes())
        at = offset % len(data)
        data[at:at + 8] = value.to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="halfwidth|out of range"):
            read_adjacency_binary(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "adj.bin"
        coupling = build_coupling(GraphSpec(n=10, p=1.0, kappa=0.31))
        write_adjacency_binary(path, coupling)
        data = bytearray(path.read_bytes())
        data[:6] = b"NOTADJ"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="magic"):
            read_adjacency_binary(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "adj.bin"
        coupling = build_coupling(GraphSpec(n=10, p=1.0, kappa=0.31))
        write_adjacency_binary(path, coupling)
        data = bytearray(path.read_bytes())
        data[6:8] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="version"):
            read_adjacency_binary(path)


def test_coupling_matrix_validation():
    with pytest.raises(ValueError):
        CouplingMatrix(layout="dense", n=10, scale=0.1, halfwidth=3)
    with pytest.raises(ValueError):
        CouplingMatrix(layout="sparse_binary", n=10, scale=0.1, halfwidth=3)
    with pytest.raises(ValueError, match="halfwidth"):
        CouplingMatrix(layout="banded_uniform", n=10, scale=0.1, halfwidth=5)
    assert CouplingMatrix(layout="banded_uniform", n=1, scale=1.0, halfwidth=0).nnz == 1
