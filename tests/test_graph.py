import numpy as np
import pytest

from fairsmooth import (
    FairMetricSpec,
    average_degree,
    build_similarity_graph,
    degrees,
    graph_from_annotations,
    read_edge_list,
    write_edge_list,
)
from fairsmooth.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    ParseError,
    SelfLoop,
)
from fairsmooth.graph import MAX_NODES, WEIGHT_FLOOR, SimilarityGraph
from fairsmooth.metric import pairwise_fair_distances

EUCLID = FairMetricSpec("euclidean")


def triangle():
    return graph_from_annotations([(0, 1), (0, 2), (1, 2)], n=3)


class TestBuildSimilarityGraph:
    def test_identical_points_weight_one(self):
        g = build_similarity_graph(np.zeros((2, 2)), EUCLID, theta=3.0, tau=1.0)
        assert g.edges == [(0, 1, 1.0)]

    def test_unit_distance_weight(self):
        X = np.array([[0.0], [1.0]])
        g = build_similarity_graph(X, EUCLID, theta=1.0, tau=2.0)
        assert g.num_edges == 1
        assert g.edges[0][2] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_threshold_excludes_far_pair(self):
        X = np.array([[0.0], [3.0]])
        g = build_similarity_graph(X, EUCLID, theta=1.0, tau=2.0)
        assert g.num_edges == 0

    def test_tie_at_tau_included(self):
        X = np.array([[0.0], [2.0]])
        g = build_similarity_graph(X, EUCLID, theta=0.1, tau=2.0)
        assert g.num_edges == 1

    def test_invalid_theta_tau(self):
        X = np.zeros((2, 1))
        with pytest.raises(InvalidParameter):
            build_similarity_graph(X, EUCLID, theta=0.0, tau=1.0)
        with pytest.raises(InvalidParameter):
            build_similarity_graph(X, EUCLID, theta=1.0, tau=-1.0)

    def test_tiny_weights_dropped(self):
        # exp(-1 * 40^2) is far below the representable-influence floor
        X = np.array([[0.0], [40.0]])
        g = build_similarity_graph(X, EUCLID, theta=1.0, tau=np.inf)
        assert g.num_edges == 0

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(15, 2))
        g_small = build_similarity_graph(X, EUCLID, theta=0.5, tau=1.0)
        g_large = build_similarity_graph(X, EUCLID, theta=0.5, tau=2.5)
        small = {(i, j): w for i, j, w in g_small.edges}
        large = {(i, j): w for i, j, w in g_large.edges}
        assert set(small) <= set(large)
        for key, w in small.items():
            assert large[key] == w

    def test_weights_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(20, 3))
        g = build_similarity_graph(X, EUCLID, theta=0.3, tau=np.inf)
        assert np.all(g.weights > 0)
        assert np.all(g.weights <= 1.0)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 2))
        perm = rng.permutation(8)
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        gp = build_similarity_graph(X[perm], EUCLID, theta=0.5, tau=np.inf)
        inv = np.argsort(perm)
        relabeled = {
            (min(inv[i], inv[j]), max(inv[i], inv[j])): w for i, j, w in g.edges
        }
        for i, j, w in gp.edges:
            assert relabeled[(i, j)] == pytest.approx(w, abs=1e-12)

    def test_matches_all_pairs_selection(self):
        # reference: every upper-triangle pair, filtered by tau, then by the floor
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 3))
        theta, tau = 0.7, 1.6
        dist = pairwise_fair_distances(EUCLID, X)
        iu, ju = np.triu_indices(40, k=1)
        d = dist[iu, ju]
        keep = d <= tau
        iu, ju, d = iu[keep], ju[keep], d[keep]
        w = np.exp(-theta * d * d)
        keep = w >= WEIGHT_FLOOR
        g = build_similarity_graph(X, EUCLID, theta=theta, tau=tau)
        assert 0 < g.num_edges < 40 * 39 // 2
        assert np.array_equal(g.rows, iu[keep])
        assert np.array_equal(g.cols, ju[keep])
        assert np.array_equal(g.weights, w[keep])

    def test_sensitive_variants_get_weight_one(self):
        # the cli_pipeline benchmark's inputs at seed 0: 500 groups of five
        # variants that differ only in the sensitive coordinate 0, which the
        # metric projects out, so every within-group distance is exactly 0
        groups, variants, cube = 500, 5, 2.775
        rng = np.random.default_rng(0)
        X = np.empty((groups * variants, 5))
        X[:, 1:] = np.repeat(rng.uniform(0.0, cube, size=(groups, 4)), variants, axis=0)
        X[:, 0] = rng.uniform(-1.0, 1.0, size=groups * variants)
        metric = FairMetricSpec("projection_complement", basis=np.eye(5)[:1])
        g = build_similarity_graph(X, metric, theta=1.0, tau=1.0)
        same = g.rows // variants == g.cols // variants
        assert np.count_nonzero(same) == groups * variants * (variants - 1) // 2
        assert np.all(g.weights[same] == 1.0)

    def test_projection_spec_used_as_built(self):
        # the sensitive coordinate 0 is projected out with no call besides
        # the constructor; the unprojected spec used to keep no edge here
        metric = FairMetricSpec("projection_complement", basis=[[1, 0]])
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        g = build_similarity_graph(X, metric, theta=1.0, tau=0.5)
        assert g.edges == [(0, 1, 1.0)]

    def test_edges_sorted(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(10, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        pairs = [(i, j) for i, j, _ in g.edges]
        assert pairs == sorted(pairs)
        assert all(i < j for i, j in pairs)


class TestAnnotationGraph:
    def test_empty(self):
        g = graph_from_annotations([], n=3)
        assert g.num_edges == 0 and g.n == 3

    def test_unordered_dedup(self):
        g = graph_from_annotations([(0, 1), (1, 0)], n=2)
        assert g.edges == [(0, 1, 1.0)]

    def test_two_edges(self):
        g = graph_from_annotations([(0, 1), (2, 3)], n=4)
        assert g.num_edges == 2

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop):
            graph_from_annotations([(1, 1)], n=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRange):
            graph_from_annotations([(0, 5)], n=3)

    def test_repeated_pair_keeps_weight_one(self):
        g = graph_from_annotations([(2, 0), (0, 1), (0, 2), (2, 0)], n=3)
        assert g.edges == [(0, 1, 1.0), (0, 2, 1.0)]

    def test_pairs_must_be_index_pairs(self):
        with pytest.raises(InvalidParameter, match="index pairs"):
            graph_from_annotations([(0, 1, 2)], n=3)


class TestCanonicalForm:
    """SimilarityGraph puts its edges in documented form when it is built."""

    def test_reversed_unsorted_and_repeated_pairs(self):
        g = SimilarityGraph(n=5, rows=[3, 0, 2, 0, 1, 2], cols=[1, 2, 0, 3, 0, 0],
                            weights=[0.5, 0.25, 2.0, 1.0, 0.75, 0.125])
        # the three copies of (0, 2) are summed in input order
        assert g.edges == [(0, 1, 0.75), (0, 2, 2.375), (0, 3, 1.0), (1, 3, 0.5)]
        for a, dtype in ((g.rows, np.int64), (g.cols, np.int64), (g.weights, np.float64)):
            assert a.dtype == dtype and a.flags.c_contiguous and not a.flags.writeable

    def test_matches_lexsort_reference(self):
        rng = np.random.default_rng(12)
        rows, cols = rng.integers(0, 30, 2000), rng.integers(0, 30, 2000)
        keep = rows != cols
        rows, cols, weights = rows[keep], cols[keep], rng.exponential(size=keep.sum())
        g = SimilarityGraph(n=30, rows=rows, cols=cols, weights=weights)
        # reference: a stable lexicographic sort, then the copies of a pair summed in input order
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        order = np.lexsort((hi, lo))
        lo, hi, w = lo[order], hi[order], weights[order]
        first = np.flatnonzero(np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])])
        assert np.array_equal(g.rows, lo[first]) and np.array_equal(g.cols, hi[first])
        assert g.weights.tobytes() == np.add.reduceat(w, first).tobytes()

    def test_unique_unsorted_keys_skip_the_stable_sort(self, monkeypatch):
        rng = np.random.default_rng(13)
        i, j = np.triu_indices(40, 1)
        order = rng.permutation(i.size)
        flip = rng.uniform(size=i.size) < 0.5
        rows, cols = np.where(flip, j, i)[order], np.where(flip, i, j)[order]
        weights = rng.exponential(size=i.size)
        in_order = weights[np.argsort(order)]
        kinds = []
        argsort = np.argsort

        def default_sort_only(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            if kinds[-1] == "stable":
                raise AssertionError("unique keys reached the stable sort")
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", default_sort_only)
        g = SimilarityGraph(n=40, rows=rows, cols=cols, weights=weights)
        assert kinds == [None]
        assert np.array_equal(g.rows, i) and np.array_equal(g.cols, j)
        assert g.weights.tobytes() == in_order.tobytes()

    def test_repeated_keys_take_the_stable_sort(self, monkeypatch):
        kinds = []
        argsort = np.argsort

        def recording(a, *args, **kwargs):
            kinds.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", recording)
        g = SimilarityGraph(n=4, rows=[2, 0, 1, 0], cols=[3, 1, 0, 2], weights=[0.5, 0.25, 0.125, 1.0])
        assert kinds == [None, "stable"]
        assert g.edges == [(0, 1, 0.375), (0, 2, 1.0), (2, 3, 0.5)]

    def test_canonical_arrays_kept_without_a_copy(self):
        rows, cols, weights = np.array([0, 0, 2]), np.array([1, 3, 3]), np.array([0.5, 0.0, 1.0])
        g = SimilarityGraph(n=4, rows=rows, cols=cols, weights=weights)
        for ours, given in ((g.rows, rows), (g.cols, cols), (g.weights, weights)):
            assert np.shares_memory(ours, given) and not ours.flags.writeable
            assert given.flags.writeable

    def test_edges_cannot_be_changed_in_place(self):
        g = graph_from_annotations([(0, 1)], n=2)
        with pytest.raises(ValueError):
            g.weights[0] = 2.0

    def test_empty(self):
        g = SimilarityGraph(n=3, rows=[], cols=[], weights=[])
        assert g.num_edges == 0 and g.rows.dtype == np.int64 and g.weights.dtype == np.float64

    @pytest.mark.parametrize("pair", [(2, 2), (0, 0)])
    def test_self_loop_rejected(self, pair):
        with pytest.raises(SelfLoop, match=rf"^pair \({pair[0]}, {pair[1]}\) is a self-loop$"):
            SimilarityGraph(n=3, rows=[0, pair[0]], cols=[1, pair[1]], weights=[1.0, 1.0])

    @pytest.mark.parametrize("pair", [(0, 3), (3, 0), (-1, 1), (1, -1)])
    def test_index_out_of_range_rejected(self, pair):
        match = rf"^pair \({pair[0]}, {pair[1]}\) out of range for n=3$"
        with pytest.raises(IndexOutOfRange, match=match):
            SimilarityGraph(n=3, rows=[0, pair[0]], cols=[1, pair[1]], weights=[1.0, 1.0])

    def test_first_bad_pair_is_reported(self):
        with pytest.raises(IndexOutOfRange, match=r"pair \(0, 5\)"):
            SimilarityGraph(n=3, rows=[0, 1], cols=[5, 1], weights=[1.0, 1.0])
        with pytest.raises(SelfLoop, match=r"pair \(1, 1\)"):
            SimilarityGraph(n=3, rows=[1, 0], cols=[1, 5], weights=[1.0, 1.0])

    def test_non_integer_indices_rejected(self):
        with pytest.raises(InvalidParameter, match="edge indices must be integers"):
            SimilarityGraph(n=3, rows=np.array([0.0]), cols=np.array([1.0]), weights=[1.0])

    def test_arrays_of_different_lengths_rejected(self):
        with pytest.raises(DimensionMismatch):
            SimilarityGraph(n=3, rows=[0, 1], cols=[1, 2], weights=[1.0])

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameter, match="^n must be >= 0, got -1$"):
            SimilarityGraph(n=-1, rows=[], cols=[], weights=[])
        assert SimilarityGraph(n=0, rows=[], cols=[], weights=[]).n == 0

    def test_n_whose_sort_key_overflows_rejected(self):
        # rows * n + cols is the sort key, so n * n must fit in int64
        with pytest.raises(InvalidParameter, match=f"^n must be <= {MAX_NODES}, got {MAX_NODES + 1}$"):
            SimilarityGraph(n=MAX_NODES + 1, rows=[], cols=[], weights=[])
        g = SimilarityGraph(n=MAX_NODES, rows=[MAX_NODES - 1, 0], cols=[MAX_NODES - 2, 1], weights=[1.0, 2.0])
        assert g.edges == [(0, 1, 2.0), (MAX_NODES - 2, MAX_NODES - 1, 1.0)]

    @pytest.mark.parametrize("weight", [np.nan, np.inf, -np.inf, -0.5])
    def test_bad_weight_rejected(self, weight):
        # a NaN weight used to reach the solver and fail there with a bare ValueError
        with pytest.raises(InvalidParameter, match=r"^pair \(2, 1\) has weight"):
            SimilarityGraph(n=3, rows=[0, 2], cols=[1, 1], weights=[0.0, weight])


class TestDegrees:
    def test_no_edges(self):
        g = graph_from_annotations([], n=4)
        assert np.array_equal(degrees(g), np.zeros(4))

    def test_single_weighted_edge(self):
        g = build_similarity_graph(
            np.array([[0.0], [0.832554611157698]]), EUCLID, theta=1.0, tau=2.0
        )
        # the chosen distance gives weight 0.5
        assert g.edges[0][2] == pytest.approx(0.5, abs=1e-12)

    def test_single_edge_degree_vector(self):
        g = graph_from_annotations([(0, 1)], n=3)
        assert np.allclose(degrees(g), [1.0, 1.0, 0.0])

    def test_triangle(self):
        assert np.allclose(degrees(triangle()), [2.0, 2.0, 2.0])

    def test_average_degree(self):
        assert average_degree(graph_from_annotations([], n=3)) == 0.0
        assert average_degree(graph_from_annotations([(0, 1)], n=2)) == 1.0
        assert average_degree(triangle()) == pytest.approx(2.0)


class TestEdgeListIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(12, 2))
        g = build_similarity_graph(X, EUCLID, theta=0.5, tau=np.inf)
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        g2 = read_edge_list(path)
        assert g2.n == g.n
        assert np.array_equal(g2.rows, g.rows)
        assert np.array_equal(g2.cols, g.cols)
        assert np.array_equal(g2.weights, g.weights)

    def test_header_records_isolated_nodes(self, tmp_path):
        g = graph_from_annotations([(0, 1)], n=5)
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)
        assert read_edge_list(path).n == 5

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t1.0\n")
        with pytest.raises(ParseError):
            read_edge_list(path)

    def test_malformed_line_reports_lineno(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=2\n0\t1\n")
        with pytest.raises(ParseError, match=":2"):
            read_edge_list(path)

    def test_bad_row_after_line_two_reports_its_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=4\n0\t1\t0.5\n\n1\t2\t0.5\n2\tx\t0.5\n")
        with pytest.raises(ParseError, match=":5:"):
            read_edge_list(path)

    def test_wrong_column_count_reports_its_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=4\n0\t1\t0.5\n1\t2\t0.5\t7\n")
        with pytest.raises(ParseError, match=":3:"):
            read_edge_list(path)

    @pytest.mark.parametrize("edge", ["1\t1\t0.5", "2\t1\t0.5"])
    def test_i_not_below_j_rejected(self, tmp_path, edge):
        path = tmp_path / "edges.tsv"
        path.write_text(f"# n=3\n0\t1\t0.5\n{edge}\n")
        with pytest.raises(ParseError, match=":3: edges must have i < j"):
            read_edge_list(path)

    @pytest.mark.parametrize("weight", ["0", "-0.5", "-0", "nan", "inf"])
    def test_nonpositive_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "edges.tsv"
        path.write_text(f"# n=3\n\n0\t1\t0.5\n1\t2\t{weight}\n")
        with pytest.raises(ParseError, match=":4: weight must be positive"):
            read_edge_list(path)

    @pytest.mark.parametrize("edge", ["0\t1.5\t0.5", "0.0\t1\t0.5", "0\t1e0\t0.5"])
    def test_non_integer_index_rejected(self, tmp_path, edge):
        path = tmp_path / "edges.tsv"
        path.write_text(f"# n=3\n{edge}\n")
        with pytest.raises(ParseError, match=":2"):
            read_edge_list(path)

    @pytest.mark.parametrize("edge", ["1\t3\t0.5", "-1\t1\t0.5"])
    def test_index_outside_range_rejected(self, tmp_path, edge):
        path = tmp_path / "edges.tsv"
        path.write_text(f"# n=3\n0\t1\t0.5\n{edge}\n")
        with pytest.raises(IndexOutOfRange):
            read_edge_list(path)

    def test_malformed_header_reports_its_line(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("0\t1\t0.5\n# nodes\n")
        with pytest.raises(ParseError, match=":2: malformed header"):
            read_edge_list(path)

    def test_every_hash_line_is_a_header(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=2\n0\t1\t0.5\n  # n=6\n1\t5\t0.25\n")
        g = read_edge_list(path)
        assert g.n == 6
        assert g.edges == [(0, 1, 0.5), (1, 5, 0.25)]

    def test_hash_inside_a_data_line_rejected(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=3\n0\t1\t0.5\n1\t2\t0.5 # note\n")
        with pytest.raises(ParseError, match=":3:"):
            read_edge_list(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("\n# n=3\n\n0\t1\t0.5\n   \n\r\n1\t2\t0.25\n\n")
        g = read_edge_list(path)
        assert g.n == 3
        assert g.edges == [(0, 1, 0.5), (1, 2, 0.25)]

    def test_negative_n_header_rejected(self, tmp_path):
        # read as a graph with n = -1, whose Laplacian failed with a bare ValueError
        path = tmp_path / "edges.tsv"
        path.write_text("# n=-1\n")
        with pytest.raises(InvalidParameter, match="n must be >= 0"):
            read_edge_list(path)

    def test_header_only_is_empty_graph(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=4\n")
        g = read_edge_list(path)
        assert g.n == 4 and g.num_edges == 0
        assert g.rows.dtype == np.int64 and g.weights.dtype == float

    def test_one_edge_file(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=2\n0\t1\t0.75\n")
        g = read_edge_list(path)
        assert g.edges == [(0, 1, 0.75)]

    def test_rows_are_sorted_on_read(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("# n=4\n2\t3\t0.5\n0\t2\t0.25\n0\t1\t0.125\n")
        g = read_edge_list(path)
        assert g.edges == [(0, 1, 0.125), (0, 2, 0.25), (2, 3, 0.5)]

    def test_in_order_file_read_without_sorting(self, tmp_path, monkeypatch):
        g = build_similarity_graph(np.random.default_rng(9).uniform(size=(80, 2)), EUCLID, theta=1.0, tau=0.3)
        path = tmp_path / "edges.tsv"
        write_edge_list(g, path)

        def no_sort(*args, **kwargs):
            raise AssertionError("edges already in order were sorted")

        monkeypatch.setattr(np, "argsort", no_sort)
        g2 = read_edge_list(path)
        assert g2.n == g.n and g2.num_edges > 100
        for ours, ref in ((g2.rows, g.rows), (g2.cols, g.cols), (g2.weights, g.weights)):
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
            assert ours.flags.c_contiguous

    def test_shuffled_file_read_in_order(self, tmp_path):
        g = build_similarity_graph(np.random.default_rng(10).uniform(size=(80, 2)), EUCLID, theta=1.0, tau=0.3)
        order = np.random.default_rng(11).permutation(g.num_edges)
        path = tmp_path / "edges.tsv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# n={g.n}\n")
            fh.writelines(f"{i}\t{j}\t{w!r}\n" for i, j, w in (g.edges[k] for k in order))
        g2 = read_edge_list(path)
        assert g2.edges == g.edges
