"""Timed-abort regression tests for cooperative cancellation checkpoints.

The serving layer's deadline contract (PR 6) relies on long loops
checkpointing often enough that an expired budget frees the executor
slot promptly.  These tests pin the two paths the supervisor leans on
hardest — the blocked-adjacency builder and the zoom-out red pass —
with a deterministic stand-in for "the deadline expired mid-operation":
a token that raises at the k-th cooperative checkpoint.  Sweeping k
from the first to the last checkpoint proves every checkpoint site is
a live abort point (including the blocked side pass and the red-pass
while loop, which only checkpoint *after* earlier stages have already
had their turn).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cancellation import (
    CancellationToken,
    OperationCancelled,
    cancellation_scope,
)
from repro.cancellation import CHECKPOINT_EVERY
from repro.core import greedy_disc, zoom_out
from repro.core._common import attach_fresh_coloring
from repro.core.coloring import Color
from repro.core.greedy import greedy_cover
from repro.datasets import clustered_dataset
from repro.distance import EUCLIDEAN
from repro.graph.blocked import build_blocked_grid
from repro.index import GridIndex


class _CountingToken(CancellationToken):
    """Counts checkpoint visits without ever aborting."""

    def __init__(self) -> None:
        super().__init__(None)
        self.calls = 0

    def checkpoint(self) -> None:
        self.calls += 1
        super().checkpoint()


class _BudgetToken(CancellationToken):
    """Aborts at the k-th checkpoint — a deadline expiring mid-flight."""

    def __init__(self, k: int) -> None:
        super().__init__(None, source="client")
        self.k = int(k)
        self.calls = 0

    def checkpoint(self) -> None:
        self.calls += 1
        if self.calls >= self.k:
            raise OperationCancelled("deadline exceeded", source=self.source)


def _blob(n: int = 400, seed: int = 7) -> np.ndarray:
    """One tight cluster: every cell pair is dense, so blocks form."""
    rng = np.random.default_rng(seed)
    return np.clip(rng.normal(loc=(0.5, 0.5), scale=0.05, size=(n, 2)), 0.0, 1.0)


class TestBlockedBuilderCancellation:
    RADIUS = 0.25

    def _build(self):
        return build_blocked_grid(
            _blob(), EUCLIDEAN, self.RADIUS, min_block_pairs=1
        )

    def test_control_build_forms_blocks(self):
        out = self._build()
        # The block-side pass must actually run for the sweep below to
        # exercise its checkpoint.
        assert out.side_is_clique.size > 0

    def test_checkpoints_are_visited(self):
        token = _CountingToken()
        with cancellation_scope(token):
            self._build()
        # At least the CSR-assembly batch loop and the block-side pass.
        assert token.calls >= 2
        self.total = token.calls

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_abort_at_every_checkpoint_depth(self, position):
        counter = _CountingToken()
        with cancellation_scope(counter):
            self._build()
        k = {
            "first": 1,
            "middle": max(1, counter.calls // 2),
            "last": counter.calls,  # the block-side pass's checkpoint
        }[position]
        token = _BudgetToken(k)
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled) as err:
                self._build()
        assert err.value.source == "client"
        assert token.calls == k

    def test_precancelled_token_aborts_immediately(self):
        token = CancellationToken(None, source="server")
        token.cancel()
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled) as err:
                self._build()
        assert err.value.source == "server"

    def test_expired_deadline_aborts(self):
        token = CancellationToken.with_timeout(0.0, source="client")
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled, match="deadline"):
                self._build()


class TestZoomOutRedPassCancellation:
    """Greedy-Zoom-Out's red pass checkpoints every CHECKPOINT_EVERY
    while-loop iterations; with the cadence pinned to 1, a small
    solution exercises the checkpoint on both the legacy (heap) and the
    CSR (segment-tree) variants."""

    OLD, NEW = 0.06, 0.09

    @pytest.fixture()
    def solved(self):
        rng = np.random.default_rng(123)
        points = rng.random((300, 2))
        index = GridIndex(points, EUCLIDEAN, cell_size=0.08)
        previous = greedy_disc(index, self.OLD, track_closest_black=True)
        assert previous.size >= 10  # enough reds for a real first pass
        return index, previous

    def _zoom(self, index, previous):
        return zoom_out(index, previous, self.NEW, greedy_variant="a")

    @pytest.fixture(params=["legacy", "csr"])
    def red_pass_index(self, request, solved):
        index, previous = solved
        if request.param == "csr":
            # Prime the adjacency cache so csr_fast_path consumes it and
            # the segment-tree red pass runs instead of the heap one.
            assert index.csr_neighborhood(self.NEW) is not None
            assert index.csr_neighborhood(self.NEW, build=False) is not None
        return index, previous

    def test_red_pass_contributes_checkpoints(
        self, red_pass_index, monkeypatch
    ):
        index, previous = red_pass_index
        quiet = _CountingToken()
        with cancellation_scope(quiet):
            self._zoom(index, previous)
        monkeypatch.setattr("repro.core.zoom.CHECKPOINT_EVERY", 1)
        loud = _CountingToken()
        with cancellation_scope(loud):
            result = self._zoom(index, previous)
        # The difference is exactly the red-pass while-loop iterations:
        # the pass runs, and its checkpoint line is live.
        assert loud.calls > quiet.calls
        assert result.size > 0

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_abort_at_every_checkpoint_depth(
        self, red_pass_index, monkeypatch, position
    ):
        index, previous = red_pass_index
        monkeypatch.setattr("repro.core.zoom.CHECKPOINT_EVERY", 1)
        counter = _CountingToken()
        with cancellation_scope(counter):
            self._zoom(index, previous)
        k = {
            "first": 1,
            "middle": max(1, counter.calls // 2),
            "last": counter.calls,
        }[position]
        token = _BudgetToken(k)
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled):
                self._zoom(index, previous)
        assert token.calls == k

    def test_cancelled_mid_pass_detaches_coloring(self, solved, monkeypatch):
        """The finally-block must detach the coloring even on abort, or
        the next request on this index inherits stale listeners."""
        index, previous = solved
        monkeypatch.setattr("repro.core.zoom.CHECKPOINT_EVERY", 1)
        counter = _CountingToken()
        with cancellation_scope(counter):
            self._zoom(index, previous)
        token = _BudgetToken(max(1, counter.calls // 2))
        with cancellation_scope(token):
            with pytest.raises(OperationCancelled):
                self._zoom(index, previous)
        # A clean follow-up run proves no state leaked from the abort.
        follow_up = self._zoom(index, previous)
        assert follow_up.size > 0


class TestKernelBatchCancellation:
    """The compiled kernel returns to Python every CHECKPOINT_EVERY
    picks, so a budget that expires mid-selection stops a 20k Greedy-DisC
    within one batch: exactly one batch of picks lands before the second
    checkpoint raises, none before an expired first one."""

    RADIUS = 0.025

    @pytest.fixture(scope="class")
    def index(self):
        index = GridIndex(clustered_dataset(n=20_000, seed=1).points, EUCLIDEAN)
        index.csr_neighborhood(self.RADIUS)
        return index

    def _select(self, index, token):
        selected = []
        coloring = attach_fresh_coloring(index)
        try:
            with cancellation_scope(token):
                with pytest.raises(OperationCancelled):
                    greedy_cover(
                        index, self.RADIUS, coloring,
                        initial_counts=index.neighborhood_sizes(self.RADIUS),
                        selected=selected,
                    )
        finally:
            index.detach_coloring()
        return selected, coloring

    def test_uncancelled_run_spans_several_batches(self, index):
        assert greedy_disc(index, self.RADIUS).size > CHECKPOINT_EVERY

    def test_expired_token_aborts_before_any_pick(self, index):
        token = CancellationToken.with_timeout(0.0, source="client")
        selected, coloring = self._select(index, token)
        assert selected == []
        assert coloring.count(Color.BLACK) == 0

    def test_budget_expiring_mid_run_stops_within_one_batch(self, index):
        selected, coloring = self._select(index, _BudgetToken(2))
        assert len(selected) == CHECKPOINT_EVERY
        # The aborted pass leaves a consistent coloring behind.
        assert coloring.count(Color.BLACK) == CHECKPOINT_EVERY
        assert coloring.count(Color.WHITE) == int(
            np.count_nonzero(coloring.codes_view() == int(Color.WHITE))
        )
