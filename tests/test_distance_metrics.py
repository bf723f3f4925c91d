"""Unit tests for repro.distance.metrics."""

import numpy as np
import pytest

from repro.distance import (
    CHEBYSHEV,
    EUCLIDEAN,
    HAMMING,
    MANHATTAN,
    HammingMetric,
    Metric,
    MinkowskiMetric,
    available_metrics,
    get_metric,
)

ALL_METRICS = [EUCLIDEAN, MANHATTAN, CHEBYSHEV, MinkowskiMetric(3), HAMMING]


class TestDistanceValues:
    def test_euclidean_known_value(self):
        assert EUCLIDEAN.distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_manhattan_known_value(self):
        assert MANHATTAN.distance([0, 0], [3, 4]) == pytest.approx(7.0)

    def test_chebyshev_known_value(self):
        assert CHEBYSHEV.distance([0, 0], [3, 4]) == pytest.approx(4.0)

    def test_minkowski_p2_matches_euclidean(self):
        m = MinkowskiMetric(2)
        a, b = np.array([0.1, 0.9, 0.4]), np.array([0.7, 0.3, 0.2])
        assert m.distance(a, b) == pytest.approx(EUCLIDEAN.distance(a, b))

    def test_minkowski_p1_matches_manhattan(self):
        m = MinkowskiMetric(1)
        a, b = np.array([0.1, 0.9]), np.array([0.7, 0.3])
        assert m.distance(a, b) == pytest.approx(MANHATTAN.distance(a, b))

    def test_minkowski_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="metric"):
            MinkowskiMetric(0.5)

    def test_hamming_counts_differing_coordinates(self):
        assert HAMMING.distance([1, 2, 3, 4], [1, 0, 3, 9]) == 2.0

    def test_hamming_identical_rows(self):
        assert HAMMING.distance([5, 5, 5], [5, 5, 5]) == 0.0


class TestMetricAxioms:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_identity_and_symmetry(self, metric, rng):
        if isinstance(metric, HammingMetric):
            pts = rng.integers(0, 5, size=(10, 4))
        else:
            pts = rng.random((10, 4))
        for i in range(len(pts)):
            assert metric.distance(pts[i], pts[i]) == pytest.approx(0.0)
            for j in range(i + 1, len(pts)):
                d_ij = metric.distance(pts[i], pts[j])
                assert d_ij >= 0.0
                assert d_ij == pytest.approx(metric.distance(pts[j], pts[i]))

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_triangle_inequality(self, metric, rng):
        if isinstance(metric, HammingMetric):
            pts = rng.integers(0, 5, size=(12, 4))
        else:
            pts = rng.random((12, 4))
        for i in range(len(pts)):
            for j in range(len(pts)):
                for k in range(len(pts)):
                    assert metric.distance(pts[i], pts[k]) <= (
                        metric.distance(pts[i], pts[j])
                        + metric.distance(pts[j], pts[k])
                        + 1e-9
                    )


class TestVectorisedForms:
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_to_point_matches_scalar(self, metric, rng):
        if isinstance(metric, HammingMetric):
            pts = rng.integers(0, 5, size=(15, 3))
        else:
            pts = rng.random((15, 3))
        target = pts[4]
        vector = metric.to_point(pts, target)
        for i, point in enumerate(pts):
            assert vector[i] == pytest.approx(metric.distance(point, target))

    @pytest.mark.parametrize("dim", [2, 8, 17])
    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_to_point_is_bit_identical_to_paired_and_pairwise(self, metric, dim, rng):
        """Per-query scans (``to_point``), batched closest-black updates
        (``paired``) and adjacency builds (``pairwise``) must agree to
        the bit, or exact radius ties resolve differently per path."""
        if isinstance(metric, HammingMetric):
            pts = rng.integers(0, 5, size=(40, dim))
        else:
            pts = rng.random((40, dim))
        target = pts[7]
        vector = metric.to_point(pts, target)
        np.testing.assert_array_equal(
            vector, metric.paired(pts, np.repeat(target[None], 40, axis=0))
        )
        np.testing.assert_array_equal(vector, metric.pairwise(pts, pts[7:8])[:, 0])

    @pytest.mark.parametrize("metric", ALL_METRICS, ids=lambda m: m.name)
    def test_pairwise_matches_scalar(self, metric, rng):
        if isinstance(metric, HammingMetric):
            pts = rng.integers(0, 5, size=(8, 3))
        else:
            pts = rng.random((8, 3))
        matrix = metric.pairwise(pts)
        assert matrix.shape == (8, 8)
        for i in range(8):
            for j in range(8):
                assert matrix[i, j] == pytest.approx(
                    metric.distance(pts[i], pts[j]), abs=1e-7
                )

    def test_pairwise_two_operands(self, rng):
        a, b = rng.random((5, 2)), rng.random((7, 2))
        matrix = EUCLIDEAN.pairwise(a, b)
        assert matrix.shape == (5, 7)
        assert matrix[2, 3] == pytest.approx(EUCLIDEAN.distance(a[2], b[3]))

    def test_euclidean_pairwise_numerically_safe(self):
        # Nearly-identical points must not produce NaN from negative sq.
        pts = np.array([[0.3, 0.3], [0.3, 0.3 + 1e-12]])
        matrix = EUCLIDEAN.pairwise(pts)
        assert np.all(np.isfinite(matrix))


class TestRegistry:
    def test_get_metric_by_name(self):
        assert get_metric("euclidean") is EUCLIDEAN
        assert get_metric("L2") is EUCLIDEAN
        assert get_metric("manhattan") is MANHATTAN
        assert get_metric("hamming") is HAMMING

    def test_get_metric_passthrough(self):
        assert get_metric(MANHATTAN) is MANHATTAN

    def test_get_metric_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("cosine")

    def test_available_metrics_listed(self):
        names = available_metrics()
        assert "euclidean" in names and "hamming" in names

    def test_equality_and_hash(self):
        assert MinkowskiMetric(3) == MinkowskiMetric(3)
        assert MinkowskiMetric(3) != MinkowskiMetric(4)
        assert hash(MinkowskiMetric(3)) == hash(MinkowskiMetric(3))
        assert EUCLIDEAN == get_metric("l2")
