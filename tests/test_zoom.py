"""Tests for zooming-in/out and local zoom (Section 3, Section 5.2)."""

import numpy as np
import pytest

from repro.core import (
    Color,
    greedy_disc,
    local_zoom,
    recompute_closest_black,
    verify_disc,
    zoom_in,
    zoom_out,
)
from repro.distance import EUCLIDEAN
from repro.index import BruteForceIndex
from repro.mtree import MTreeIndex


@pytest.fixture
def solved(medium_uniform):
    """A Greedy-DisC solution at r=0.2 with exact closest-black data."""
    index = MTreeIndex(medium_uniform, EUCLIDEAN, capacity=6)
    result = greedy_disc(index, 0.2, track_closest_black=True)
    return index, result


class TestZoomIn:
    @pytest.mark.parametrize("greedy", [False, True])
    def test_output_is_disc_diverse(self, medium_uniform, solved, greedy):
        index, previous = solved
        adapted = zoom_in(index, previous, 0.1, greedy=greedy)
        report = verify_disc(medium_uniform, EUCLIDEAN, adapted.selected, 0.1)
        assert report.is_disc_diverse, str(report)

    @pytest.mark.parametrize("greedy", [False, True])
    def test_lemma5_superset(self, solved, greedy):
        """Lemma 5(i): S_r ⊆ S_{r'}."""
        index, previous = solved
        adapted = zoom_in(index, previous, 0.1, greedy=greedy)
        assert set(previous.selected) <= set(adapted.selected)

    def test_lemma5_size_bound(self, solved):
        """Lemma 5(ii): |S_{r'}| <= NI_{r',r} * |S_r|."""
        from repro.core.bounds import lemma4_independent_annulus

        index, previous = solved
        adapted = zoom_in(index, previous, 0.1, greedy=True)
        bound = lemma4_independent_annulus(EUCLIDEAN, 0.1, 0.2)
        assert adapted.size <= bound * previous.size

    def test_rejects_non_smaller_radius(self, solved):
        index, previous = solved
        with pytest.raises(ValueError, match="smaller"):
            zoom_in(index, previous, 0.3)

    def test_works_from_pruned_run(self, medium_uniform):
        """A pruned construction leaves inexact closest-black distances;
        zoom_in must recompute and still emit a valid subset."""
        index = MTreeIndex(medium_uniform, EUCLIDEAN, capacity=6)
        previous = greedy_disc(index, 0.2, prune=True, track_closest_black=True)
        assert previous.meta["closest_black_exact"] is False
        adapted = zoom_in(index, previous, 0.1, greedy=True)
        report = verify_disc(medium_uniform, EUCLIDEAN, adapted.selected, 0.1)
        assert report.is_disc_diverse

    def test_works_without_closest_black(self, medium_uniform):
        index = BruteForceIndex(medium_uniform, EUCLIDEAN)
        previous = greedy_disc(index, 0.2)
        assert previous.closest_black is None
        adapted = zoom_in(index, previous, 0.1)
        report = verify_disc(medium_uniform, EUCLIDEAN, adapted.selected, 0.1)
        assert report.is_disc_diverse

    def test_result_closest_black_is_exact(self, medium_uniform, solved):
        index, previous = solved
        adapted = zoom_in(index, previous, 0.1, greedy=True)
        expected = recompute_closest_black(index, adapted.selected, 0.1).distances
        assert np.allclose(adapted.closest_black, expected)

    @pytest.mark.parametrize("greedy", [False, True])
    def test_final_coloring_is_black_selection_grey_rest(self, solved, greedy):
        """The zoomed coloring blackens exactly the selection (previous
        blacks included) and leaves every other object grey."""
        index, previous = solved
        adapted = zoom_in(index, previous, 0.1, greedy=greedy)
        codes = adapted.coloring.codes_view()
        blacks = np.flatnonzero(codes == int(Color.BLACK))
        assert blacks.tolist() == sorted(adapted.selected)
        assert np.all(np.delete(codes, blacks) == int(Color.GREY))

    def test_chained_zoom_in(self, medium_uniform, solved):
        index, previous = solved
        mid = zoom_in(index, previous, 0.12, greedy=True)
        fine = zoom_in(index, mid, 0.06, greedy=True)
        assert set(mid.selected) <= set(fine.selected)
        report = verify_disc(medium_uniform, EUCLIDEAN, fine.selected, 0.06)
        assert report.is_disc_diverse


class TestZoomOut:
    @pytest.mark.parametrize("variant", [None, "a", "b", "c"])
    def test_output_is_disc_diverse(self, medium_uniform, solved, variant):
        index, previous = solved
        adapted = zoom_out(index, previous, 0.35, greedy_variant=variant)
        report = verify_disc(medium_uniform, EUCLIDEAN, adapted.selected, 0.35)
        assert report.is_disc_diverse, (variant, str(report))

    @pytest.mark.parametrize("variant", [None, "a", "b", "c"])
    def test_keeps_some_previous_objects(self, solved, variant):
        """Zoom-out's purpose: the new solution overlaps the old one
        (Figure 16) — at minimum the first re-selected red is shared."""
        index, previous = solved
        adapted = zoom_out(index, previous, 0.3, greedy_variant=variant)
        assert set(adapted.selected) & set(previous.selected)

    def test_variant_b_maximises_retention(self, solved):
        """Variant (b) selects reds with *fewest* red neighbors, aiming
        to maximise S_r ∩ S_r' (Section 3.2); retention must be at least
        that of the arbitrary variant on this workload."""
        index, previous = solved
        keep_b = len(
            set(zoom_out(index, previous, 0.3, greedy_variant="b").selected)
            & set(previous.selected)
        )
        keep_arbitrary = len(
            set(zoom_out(index, previous, 0.3, greedy_variant=None).selected)
            & set(previous.selected)
        )
        assert keep_b >= keep_arbitrary - 1  # allow a tie-break wobble

    def test_smaller_than_previous(self, solved):
        index, previous = solved
        adapted = zoom_out(index, previous, 0.4, greedy_variant="a")
        assert adapted.size < previous.size

    def test_rejects_non_larger_radius(self, solved):
        index, previous = solved
        with pytest.raises(ValueError, match="larger"):
            zoom_out(index, previous, 0.1)

    def test_rejects_unknown_variant(self, solved):
        index, previous = solved
        with pytest.raises(ValueError, match="greedy_variant"):
            zoom_out(index, previous, 0.4, greedy_variant="z")

    def test_lemma6_replacements_bounded(self, solved):
        """Lemma 6(ii): each removed object admits at most B-1 additions."""
        from repro.core.bounds import max_independent_neighbors

        index, previous = solved
        adapted = zoom_out(index, previous, 0.3, greedy_variant="a")
        removed = len(set(previous.selected) - set(adapted.selected))
        added = len(set(adapted.selected) - set(previous.selected))
        bound = max_independent_neighbors(EUCLIDEAN, 2)
        assert added <= max(removed, 1) * (bound - 1) + bound


class TestLocalZoom:
    def test_local_zoom_in_keeps_outside_solution(self, medium_uniform, solved):
        index, previous = solved
        center = previous.selected[0]
        result = local_zoom(index, previous, center, 0.08)
        # Everything outside the area is untouched.
        for black in result.meta["outside"]:
            assert black in previous.selected
        assert center in result.selected

    def test_local_zoom_in_adds_detail_inside(self, solved):
        index, previous = solved
        center = previous.selected[0]
        result = local_zoom(index, previous, center, 0.05)
        assert len(result.meta["inside"]) >= 1
        assert result.meta["area_size"] >= 1

    def test_local_zoom_out_direction(self, solved):
        index, previous = solved
        center = previous.selected[0]
        result = local_zoom(index, previous, center, 0.4)
        assert result.algorithm.startswith("Local-")
        assert center in result.selected or result.meta["inside"]

    def test_rejects_unselected_center(self, solved):
        index, previous = solved
        non_black = next(
            i for i in range(index.n) if i not in set(previous.selected)
        )
        with pytest.raises(ValueError, match="selected object"):
            local_zoom(index, previous, non_black, 0.05)


class TestRecomputeClosestBlack:
    def test_matches_vectorised_oracle(self, medium_uniform, solved):
        from repro.core.result import closest_black_distances

        index, previous = solved
        tracker = recompute_closest_black(index, previous.selected, 0.2)
        oracle = closest_black_distances(index, previous.selected)
        assert np.allclose(tracker.distances, oracle)
