import numpy as np
import pytest

from fairsmooth import (
    GroupedPredictions,
    accuracy,
    balanced_accuracy,
    prediction_consistency,
    violation_histogram,
)
from fairsmooth.errors import (
    EmptyGroup,
    EmptyPairs,
    IndexOutOfRange,
    InvalidParameter,
    NoLabels,
)
from fairsmooth.evalmetrics import predicted_classes


class TestPredictedClasses:
    def test_argmax_for_multiclass(self):
        out = predicted_classes(np.array([[0.1, 0.9], [0.8, 0.2]]))
        assert list(out) == [1, 0]

    def test_argmax_tie_breaks_low(self):
        out = predicted_classes(np.array([[0.5, 0.5, 0.0]]))
        assert list(out) == [0]

    def test_threshold_for_single_column(self):
        out = predicted_classes(np.array([0.4, 0.5, 0.9]))
        assert list(out) == [0, 1, 1]


class TestPredictionConsistency:
    def test_singleton_groups(self):
        g = GroupedPredictions(
            outputs=np.array([0.1, 0.9]),
            group_of=np.array(["a", "b"]),
            is_original=np.array([True, True]),
        )
        assert prediction_consistency(g) == 1.0

    def test_one_flipped_member(self):
        g = GroupedPredictions(
            outputs=np.array([0.1, 0.2, 0.9, 0.2]),
            group_of=np.array(["a", "a", "b", "b"]),
            is_original=np.array([True, False, True, False]),
        )
        assert prediction_consistency(g) == 0.5

    def test_duplicate_rows_consistent(self):
        g = GroupedPredictions(
            outputs=np.array([[0.2, 0.8], [0.2, 0.8]]),
            group_of=np.array([0, 0]),
            is_original=np.array([True, False]),
        )
        assert prediction_consistency(g) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(50)
        outputs = rng.normal(size=(12, 3))
        groups = np.repeat(np.arange(4), 3)
        original = np.tile([True, False, False], 4)
        g1 = GroupedPredictions(outputs, groups, original)
        g2 = GroupedPredictions(np.exp(outputs), groups, original)
        assert prediction_consistency(g1) == prediction_consistency(g2)

    def test_requires_exactly_one_original(self):
        with pytest.raises(EmptyGroup):
            GroupedPredictions(
                outputs=np.array([0.1, 0.2]),
                group_of=np.array(["a", "a"]),
                is_original=np.array([False, False]),
            )


    def test_names_first_group_without_one_original(self):
        with pytest.raises(EmptyGroup, match="'b'.* has 2 originals"):
            GroupedPredictions(
                outputs=np.zeros(5),
                group_of=np.array(["c", "b", "a", "b", "c"]),
                is_original=np.array([False, True, True, True, False]),
            )

    def test_matches_per_group_loop(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            sizes = rng.integers(1, 5, size=int(rng.integers(1, 30)))
            group_of = np.repeat(np.array([f"g{k}" for k in range(len(sizes))]), sizes)
            perm = rng.permutation(len(group_of))
            group_of = group_of[perm]
            first = np.unique(group_of, return_index=True)[1]
            is_original = np.zeros(len(group_of), dtype=bool)
            is_original[first] = True
            outputs = rng.uniform(size=(len(group_of), 2))
            g = GroupedPredictions(outputs, group_of, is_original)
            preds = predicted_classes(outputs)
            consistent = [
                np.all(preds[group_of == gid] == preds[(group_of == gid) & is_original][0])
                for gid in np.unique(group_of)
            ]
            assert prediction_consistency(g) == sum(consistent) / len(consistent)


class TestScalarMetrics:
    def test_accuracy(self):
        out = np.array([[0.9, 0.1], [0.2, 0.8], [0.7, 0.3]])
        assert accuracy(out, [0, 1, 1]) == pytest.approx(2.0 / 3.0)

    def test_accuracy_empty_labels(self):
        with pytest.raises(NoLabels):
            accuracy(np.array([0.5]), [])

    def test_balanced_accuracy_perfect(self):
        out = np.array([[0.9, 0.1], [0.1, 0.9]])
        assert balanced_accuracy(out, [0, 1]) == 1.0

    def test_balanced_accuracy_one_class_wrong(self):
        # class 0 all right, class 1 all wrong -> mean(1, 0) = 0.5
        out = np.array([[0.9, 0.1], [0.9, 0.1], [0.8, 0.2]])
        assert balanced_accuracy(out, [0, 0, 1]) == pytest.approx(0.5)

    def test_balanced_accuracy_single_class(self):
        out = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert balanced_accuracy(out, [0, 0]) == pytest.approx(0.5)


class TestArgumentChecks:
    """Labels are integers and thresholds finite; each case below used to
    give a number or a bare NumPy error."""

    Y = np.array([[0.1, 0.5], [0.4, 0.2], [0.8, 0.9]])

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda y: accuracy(y, [0, 1, np.nan]), InvalidParameter, "label nan is not an integer"),
            # 0.7 was truncated to class 0, which made this a perfect score
            (lambda y: balanced_accuracy(np.array([0.9, 0.1]), [1.0, 0.7]), InvalidParameter,
             "label 0.7 is not an integer"),
            (lambda y: accuracy(y[:, :1], [0, 1, 1], threshold=np.nan), InvalidParameter, "threshold must be finite"),
            (lambda y: prediction_consistency(
                GroupedPredictions(y, [0, 1, 2], [True] * 3), threshold=np.inf
            ), InvalidParameter, "threshold must be finite"),
        ],
    )
    def test_rejected(self, call, error, message):
        with pytest.raises(error, match=f"^{message}"):
            call(self.Y)

    def test_integral_floats_accepted(self):
        assert balanced_accuracy(self.Y, [1.0, 0.0, 1.0]) == balanced_accuracy(self.Y, [1, 0, 1])


class TestViolationHistogram:
    def test_all_distances_zero_one_bin(self):
        # every pair at distance 0: one degenerate bin, violated by any gap
        hist = violation_histogram(np.array([0.1, 0.9, 0.9]), [(0, 1, 0.0), (1, 2, 0.0)], lipschitz=1.0)
        assert hist == [(0.0, 0.0, 2, 1)]

    def test_constant_outputs_no_violations(self):
        f = np.full(3, 1.0)
        pairs = [(0, 1, 0.5), (1, 2, 1.0)]
        hist = violation_histogram(f, pairs, lipschitz=1.0, num_bins=2)
        assert all(v == 0 for _, _, _, v in hist)

    def test_single_violating_pair(self):
        hist = violation_histogram(
            np.array([0.0, 3.0]), [(0, 1, 1.0)], lipschitz=2.25, num_bins=1
        )
        assert hist == [(0.0, 1.0, 1, 1)]

    def test_huge_lipschitz_no_violations(self):
        hist = violation_histogram(
            np.array([0.0, 100.0]), [(0, 1, 1.0)], lipschitz=1e9, num_bins=1
        )
        assert hist[0][3] == 0

    def test_totals_conserved(self):
        rng = np.random.default_rng(51)
        f = rng.normal(size=10)
        pairs = [
            (i, j, float(rng.uniform(0.0, 2.0)))
            for i in range(10)
            for j in range(i + 1, 10)
        ]
        hist = violation_histogram(f, pairs, lipschitz=0.5, num_bins=7)
        assert sum(t for _, _, t, _ in hist) == len(pairs)
        assert all(v <= t for _, _, t, v in hist)
        assert hist[0][0] == 0.0
        assert hist[-1][1] == pytest.approx(max(d for _, _, d in pairs))

    def test_zero_distance_lands_in_first_bin(self):
        hist = violation_histogram(
            np.array([0.0, 1.0, 0.0]), [(0, 1, 0.0), (0, 2, 2.0)],
            lipschitz=1.0, num_bins=2,
        )
        assert hist[0][2] == 1  # the d=0 pair
        assert hist[0][3] == 1  # any gap over a zero bound violates

    def test_array_and_triples_agree(self):
        rng = np.random.default_rng(53)
        f = rng.normal(size=(12, 2))
        iu, ju = np.triu_indices(12, k=1)
        d = rng.uniform(0.0, 3.0, size=iu.size)
        triples = list(zip(iu.tolist(), ju.tolist(), d.tolist()))
        array = np.column_stack([iu, ju, d])
        expected = violation_histogram(f, triples, lipschitz=0.7, num_bins=5)
        assert violation_histogram(f, array, lipschitz=0.7, num_bins=5) == expected
        assert sum(t for _, _, t, _ in expected) == iu.size

    def test_empty_array_rejected(self):
        with pytest.raises(EmptyPairs):
            violation_histogram(np.array([0.0]), np.empty((0, 3)), lipschitz=1.0)

    def test_empty_pairs_rejected(self):
        with pytest.raises(EmptyPairs):
            violation_histogram(np.array([0.0]), [], lipschitz=1.0)

    @pytest.mark.parametrize(
        "pair, error",
        [
            ((0, 2, 1.0), IndexOutOfRange),  # index n
            ((-1, 1, 1.0), IndexOutOfRange),  # used to wrap to the last row
            ((0, 1, np.nan), InvalidParameter),  # used to make every bin edge NaN
            ((0, 1, -1.0), InvalidParameter),  # used to fall out of every bin
            ((1, 1, 1.0), InvalidParameter),
        ],
    )
    def test_invalid_pair_rejected(self, pair, error):
        with pytest.raises(error):
            violation_histogram(np.array([0.0, 1.0]), [(0, 1, 1.0), pair], lipschitz=1.0)

    def test_invalid_parameters(self):
        # an infinite bound made a zero-distance pair's bound NaN, never violated
        for lipschitz in (0.0, np.inf, True):
            with pytest.raises(InvalidParameter):
                violation_histogram(np.array([0.0, 1.0]), [(0, 1, 0.0)], lipschitz=lipschitz)
        # a fractional bin count ended in a bare TypeError; True made one bin
        for num_bins in (0, 2.5, True):
            with pytest.raises(InvalidParameter):
                violation_histogram(
                    np.array([0.0, 1.0]), [(0, 1, 1.0)], lipschitz=1.0, num_bins=num_bins
                )

