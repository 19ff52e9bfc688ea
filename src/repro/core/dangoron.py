"""The Dangoron engine: pruned sliding-window correlation matrix computation.

Per query the engine

1. chooses a basic-window size that divides both the window length ``l`` and
   the sliding step ``eta`` (so every sliding window is a union of whole basic
   windows) and builds the :class:`BasicWindowSketch` over the query range;
2. walks the windows in order, keeping for every pair the index of the next
   window at which it must be evaluated exactly (:class:`JumpScheduler`);
3. at each window, optionally applies **horizontal pruning** (pivot
   correlations plus the triangle bound) to drop pairs that cannot reach the
   threshold, evaluates the remaining due pairs exactly with the Eq. 1
   combination, emits the above-threshold values, and uses the Eq. 2 temporal
   bound to schedule the next evaluation of each below-threshold pair as far
   in the future as the bound allows (Fig. 2's jumping structure).

Pairs never evaluated in a window are reported as "no edge" for that window,
which is where the accuracy-for-speed trade-off of the paper comes from: the
Eq. 2 bound holds under a per-basic-window stationarity assumption, so a pair
whose correlation rises faster than the bound predicts is caught late.  The
``slack`` option tightens the effective threshold used by the bound to buy
recall back at the cost of fewer skips.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.config import (
    DEFAULT_BASIC_WINDOW_SIZE,
    DEFAULT_NUM_PIVOTS,
    FLOAT_DTYPE,
)
from repro.core.basic_window import BasicWindowLayout
from repro.core.bounds import (
    first_possible_crossing,
    first_possible_crossing_absolute,
    triangle_bounds_from_pivots,
)
from repro.core.engine import (
    SlidingCorrelationEngine,
    register_engine,
    validate_pair_subset,
)
from repro.core.horizontal import select_pivots
from repro.core.jumping import JumpScheduler
from repro.core.query import THRESHOLD_ABSOLUTE, SlidingQuery
from repro.core.result import (
    CorrelationSeriesResult,
    EngineStats,
    ThresholdedMatrix,
)
from repro.core.sketch import BasicWindowSketch, ensure_sketch_layout
from repro.exceptions import ParallelError, QueryValidationError
from repro.timeseries.matrix import TimeSeriesMatrix


@dataclass
class WindowLoop:
    """What Dangoron's window loop carries from one window to the next.

    The candidate pairs (parallel ``rows``/``cols``), the :class:`JumpScheduler`
    holding each pair's next due window, the horizontal-pruning pivots (or
    ``None``), and the work counters.  :meth:`DangoronEngine.run` drives one
    over a fixed window count; the online monitor drives one whose scheduler
    grows as windows complete.  ``dense_ok`` is ``False`` for pair subsets,
    which must never recombine the full ``N x N`` matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    scheduler: JumpScheduler
    pivots: Optional[np.ndarray] = None
    dense_ok: bool = True
    pruned_horizontally: int = 0
    pivot_evaluations: int = 0


@register_engine
class DangoronEngine(SlidingCorrelationEngine):
    """Sliding correlation computation with temporal jumping and horizontal pruning.

    Parameters
    ----------
    basic_window_size:
        Requested basic-window size; the engine uses the largest divisor of
        ``gcd(l, eta)`` not exceeding it (see
        :func:`repro.core.basic_window.choose_basic_window_size`).
    use_temporal_pruning:
        Enable the Eq. 2 jumping structure (Fig. 2).
    use_horizontal_pruning:
        Enable pivot-based triangle pruning inside each window.
    num_pivots, pivot_strategy:
        Horizontal-pruning configuration (ignored when it is disabled).
    slack:
        Subtracted from the threshold inside the temporal bound; ``0`` uses the
        paper's bound as-is, larger values skip less aggressively and recover
        recall on non-stationary data.
    prefix_combination:
        Use the O(1) prefix-sum combination instead of the faithful O(n_s)
        scan when evaluating pairs exactly (ablation; not part of the paper).
    seed:
        Seed for the pivot-selection RNG (only used by the random strategy).
    """

    name = "dangoron"
    exact = True

    def __init__(
        self,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        use_temporal_pruning: bool = True,
        use_horizontal_pruning: bool = False,
        num_pivots: int = DEFAULT_NUM_PIVOTS,
        pivot_strategy: str = "kcenter",
        slack: float = 0.0,
        prefix_combination: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        if slack < 0:
            raise QueryValidationError(f"slack must be non-negative, got {slack}")
        self.basic_window_size = basic_window_size
        self.use_temporal_pruning = use_temporal_pruning
        self.use_horizontal_pruning = use_horizontal_pruning
        self.num_pivots = num_pivots
        self.pivot_strategy = pivot_strategy
        self.slack = slack
        self.prefix_combination = prefix_combination
        self.seed = seed

    # ------------------------------------------------------------------ public
    def describe(self) -> str:
        features = []
        if self.use_temporal_pruning:
            features.append("temporal")
        if self.use_horizontal_pruning:
            features.append(f"horizontal({self.num_pivots})")
        suffix = "+".join(features) if features else "no-pruning"
        return f"{self.name}[{suffix}, b<={self.basic_window_size}]"

    def plan_layout(self, query: SlidingQuery) -> BasicWindowLayout:
        """The layout ``run`` builds its sketch for (see the planner protocol)."""
        return BasicWindowLayout.for_query(query, self.basic_window_size)

    def needs_raw_values(self, query: SlidingQuery) -> bool:
        """Raw values are only read for pivot selection (horizontal pruning).

        With temporal pruning alone, a planner-supplied sketch makes the run
        sketch-only, so out-of-core (tiled) execution never materializes the
        matrix.
        """
        return self.use_horizontal_pruning

    def supports_pair_subset(self) -> bool:
        """Shardable whenever per-pair decisions are partition-independent.

        With temporal pruning every pair's evaluation schedule depends only
        on its own values and the Eq. 2 bound.  Horizontal pruning is
        per-pair too: the pivot bounds are computed from the full pivot
        rows against *all* series (identically in every shard, from the
        shared sketch), and each due pair is kept or pruned purely from its
        own bound entry — so a run restricted to any pair subset reproduces
        exactly the schedule (and therefore the edges) of the full run.

        The single exception is unseeded random pivot selection: each shard
        would draw its own pivots and the per-shard bounds — hence schedules
        — would diverge from the serial run.
        """
        return not (
            self.use_horizontal_pruning
            and self.pivot_strategy == "random"
            and self.seed is None
        )

    def scan_window(
        self,
        loop: WindowLoop,
        sketch: BasicWindowSketch,
        query: SlidingQuery,
        k: int,
        *,
        max_steps: int,
    ) -> ThresholdedMatrix:
        """Dangoron's per-window step (Fig. 2) for window ``k`` of ``query``.

        Evaluates the pairs ``loop.scheduler`` has due at ``k`` (after
        horizontal pruning, when ``loop`` carries pivots), keeps those the
        query's threshold keeps, and schedules each below-threshold pair's
        next evaluation with the Eq. 2 bound, looking at most ``max_steps``
        windows ahead.  The caller sets that cap: :meth:`run` passes the
        windows left in the query; the online monitor passes the steps whose
        outgoing basic windows are already in its growing sketch.
        """
        layout = sketch.layout
        n = sketch.num_series
        rows, cols, scheduler = loop.rows, loop.cols, loop.scheduler
        step_bw = query.step // layout.size
        window_bw = query.window // layout.size
        window_start_col = query.start + k * query.step
        bw_first, _ = layout.covering(window_start_col, window_start_col + query.window)
        corr_prefix = sketch.corr_prefix if self.use_temporal_pruning else None
        absolute = query.threshold_mode == THRESHOLD_ABSOLUTE
        due = scheduler.due_indices(k)
        eval_positions = due

        # -------------------------------------------------- horizontal pruning
        # Runs whenever any pair is due.  The decision per pair is a pure
        # function of its own bound entry, so serial and sharded runs
        # prune — and schedule — identically for any pair partition
        # (a shard with no due pairs skips only the pivot evaluations).
        if loop.pivots is not None and len(due) > 0:
            pivots = loop.pivots
            pivot_rows = np.repeat(pivots, n)
            pivot_cols = np.tile(np.arange(n), len(pivots))
            pivot_corrs = sketch.exact_pairs_scan(
                pivot_rows, pivot_cols, bw_first, window_bw
            ).reshape(len(pivots), n)
            loop.pivot_evaluations += len(pivots) * n
            lower, upper = triangle_bounds_from_pivots(pivot_corrs)
            if absolute:
                cannot_be_edge = (
                    upper[rows[due], cols[due]] < query.threshold
                ) & (-lower[rows[due], cols[due]] < query.threshold)
            else:
                cannot_be_edge = upper[rows[due], cols[due]] < query.threshold
            pruned = due[cannot_be_edge]
            eval_positions = due[~cannot_be_edge]
            loop.pruned_horizontally += int(len(pruned))
            if len(pruned):
                if self.use_temporal_pruning and not absolute and max_steps >= 1:
                    # The triangle upper bound is >= the true correlation,
                    # so it is a valid (conservative) stand-in for Eq. 2.
                    surrogate = upper[rows[pruned], cols[pruned]]
                    jumps = first_possible_crossing(
                        surrogate,
                        query.threshold,
                        corr_prefix,
                        rows[pruned],
                        cols[pruned],
                        bw_first,
                        step_bw,
                        window_bw,
                        max_steps,
                        slack=self.slack,
                    )
                else:
                    jumps = np.ones(len(pruned), dtype=np.int64)
                scheduler.schedule_jumps(k, pruned, jumps)

        # -------------------------------------------------------- exact values
        if not len(eval_positions):
            empty = np.empty(0, dtype=np.int64)
            return ThresholdedMatrix(n, empty, empty, np.empty(0, dtype=FLOAT_DTYPE))
        pair_rows = rows[eval_positions]
        pair_cols = cols[eval_positions]
        if self.prefix_combination:
            if loop.dense_ok:
                dense = sketch.exact_matrix_fast(bw_first, window_bw)
                exact_vals = dense[pair_rows, pair_cols]
            else:
                exact_vals = sketch.exact_pairs_fast(
                    pair_rows, pair_cols, bw_first, window_bw
                )
        elif loop.dense_ok and len(eval_positions) * 2 > len(rows):
            # When most pairs are due (typically the first window) the dense
            # recombination is cheaper than per-pair gathers and performs
            # exactly the same amount of Eq. 1 work.  Pair subsets never take
            # this path: a shard computing the full N x N matrix would
            # multiply the window's work by the shard count.
            dense = sketch.exact_matrix_scan(bw_first, window_bw)
            exact_vals = dense[pair_rows, pair_cols]
        else:
            exact_vals = sketch.exact_pairs_scan(
                pair_rows, pair_cols, bw_first, window_bw
            )
        scheduler.record_evaluations(k, eval_positions)

        keep = query.keep_mask(exact_vals)
        below = eval_positions[~keep]
        if self.use_temporal_pruning and len(below) and max_steps >= 1:
            crossing = (
                first_possible_crossing_absolute if absolute else first_possible_crossing
            )
            jumps = crossing(
                exact_vals[~keep],
                query.threshold,
                corr_prefix,
                rows[below],
                cols[below],
                bw_first,
                step_bw,
                window_bw,
                max_steps,
                slack=self.slack,
            )
            scheduler.schedule_jumps(k, below, jumps)
        return ThresholdedMatrix(n, pair_rows[keep], pair_cols[keep], exact_vals[keep])

    def run(
        self,
        matrix: TimeSeriesMatrix,
        query: SlidingQuery,
        *,
        sketch: Optional[BasicWindowSketch] = None,
        pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> CorrelationSeriesResult:
        # Raw values are read lazily (sketch build, pivot selection): with a
        # planner-supplied sketch and no horizontal pruning, the whole run is
        # sketch-only — which is what lets out-of-core sessions answer without
        # ever materializing a dense matrix (see repro.core.tiled).
        query.validate_against_length(matrix.length)
        n = matrix.num_series
        if pairs is not None and not self.supports_pair_subset():
            raise ParallelError(
                "dangoron with horizontal pruning and unseeded random pivots "
                "cannot run on a pair subset: each shard would draw different "
                "pivots and diverge from the serial run; pass seed=... or a "
                "deterministic pivot_strategy"
            )

        layout = self.plan_layout(query)
        if sketch is not None:
            ensure_sketch_layout(sketch, layout)
            # Reused sketch: report the original (one-off) build cost so the
            # precompute/query split of the paper's tables stays meaningful.
            sketch_seconds = sketch.build_seconds
            sketch_reused = 1.0
        else:
            build_start = time.perf_counter()
            sketch = BasicWindowSketch.build(matrix.values, layout)
            sketch_seconds = time.perf_counter() - build_start
            sketch_reused = 0.0

        num_windows = query.num_windows
        if pairs is not None:
            rows, cols = validate_pair_subset(pairs, n)
        else:
            rows, cols = np.triu_indices(n, k=1)

        pivots: Optional[np.ndarray] = None
        if self.use_horizontal_pruning:
            rng = np.random.default_rng(self.seed)
            first_window = matrix.values[:, query.start : query.start + query.window]
            pivots = select_pivots(
                first_window, self.num_pivots, self.pivot_strategy, rng
            )
        loop = WindowLoop(
            rows, cols, JumpScheduler(len(rows), num_windows), pivots,
            dense_ok=pairs is None,
        )
        if self.use_temporal_pruning:
            # Materialize the Eq. 2 prefix outside the timed scan: it is
            # sketch preparation, not per-window work.
            sketch.corr_prefix

        query_start_time = time.perf_counter()
        matrices = [
            self.scan_window(loop, sketch, query, k, max_steps=num_windows - 1 - k)
            for k in range(num_windows)
        ]
        query_seconds = time.perf_counter() - query_start_time

        stats = EngineStats(
            engine=self.describe(),
            num_series=n,
            num_windows=num_windows,
            exact_evaluations=loop.scheduler.stats.exact_evaluations,
            skipped_by_jumping=loop.scheduler.stats.skipped_evaluations,
            pruned_horizontally=loop.pruned_horizontally,
            candidate_pairs=len(rows),
            sketch_build_seconds=sketch_seconds,
            query_seconds=query_seconds,
            extra={
                "sketch_reused": sketch_reused,
                "pivot_evaluations": float(loop.pivot_evaluations),
                "basic_window_size": float(layout.size),
                "num_basic_windows_per_window": float(query.window // layout.size),
                "mean_jump_length": loop.scheduler.stats.mean_jump_length(),
                "sketch_memory_bytes": float(sketch.memory_bytes()),
            },
        )
        return CorrelationSeriesResult(
            query, matrices, stats, series_ids=matrix.series_ids
        )
