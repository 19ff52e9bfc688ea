"""Online correlation-network monitoring over a live stream.

:class:`OnlineCorrelationMonitor` runs Dangoron's window loop over a stream:
appended columns grow a basic-window sketch by whole basic windows
(:meth:`~repro.core.sketch.BasicWindowSketch.extend`, with a residual buffer
for the columns of a partial basic window), and whenever enough data is
available to complete the next sliding window the monitor emits its
thresholded correlation matrix through the offline engine's own per-window
step (:meth:`~repro.core.dangoron.DangoronEngine.scan_window`).
Below-threshold pairs are scheduled into the future with the Eq. 2 bound —
the outgoing basic windows needed by the bound are always in the past, so the
bound is computable online — which keeps per-arrival work low once the
network is sparse.

This is the "network construction and updates … interactivity" scenario from
the paper's challenge list, packaged as a push-based API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout, choose_basic_window_size
from repro.core.dangoron import DangoronEngine, WindowLoop
from repro.core.jumping import JumpScheduler
from repro.core.query import THRESHOLD_SIGNED, SlidingQuery
from repro.core.result import ThresholdedMatrix
from repro.core.sketch import BasicWindowSketch
from repro.core.tiled import ColumnReblocker
from repro.exceptions import StreamingError


@dataclass
class OnlineWindowResult:
    """One emitted window: its index, column range, and thresholded matrix."""

    window_index: int
    start: int
    end: int
    matrix: ThresholdedMatrix
    exact_evaluations: int = 0
    skipped_pairs: int = 0


@dataclass
class OnlineCorrelationMonitor:
    """Push-based sliding correlation-network monitor.

    Parameters
    ----------
    num_series:
        Number of series in the stream.
    window, step:
        Sliding-window size and step, in columns.  Both must be multiples of
        ``basic_window_size`` (the aligned regime the pruned engine uses).
    threshold:
        The correlation threshold ``beta``.
    basic_window_size:
        Basic-window size of the maintained statistics.
    use_temporal_pruning:
        Apply the Eq. 2 jump scheduling across emitted windows.
    """

    num_series: int
    window: int
    step: int
    threshold: float
    basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE
    use_temporal_pruning: bool = True
    series_ids: Optional[Sequence[str]] = None
    _engine: DangoronEngine = field(init=False)
    _query: SlidingQuery = field(init=False)
    _reblocker: ColumnReblocker = field(init=False)
    _sketch: Optional[BasicWindowSketch] = field(init=False, default=None)
    _loop: Optional[WindowLoop] = field(init=False, default=None)
    _emitted: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if self.num_series < 1:
            raise StreamingError(f"num_series must be positive, got {self.num_series}")
        if self.basic_window_size < 2:
            raise StreamingError(
                f"basic_window_size must be at least 2, got {self.basic_window_size}"
            )
        for name, value in (("window", self.window), ("step", self.step)):
            if value < 1 or value % self.basic_window_size:
                raise StreamingError(
                    f"{name} ({value}) must be a positive multiple of the basic "
                    f"window size ({self.basic_window_size})"
                )
        if not -1.0 <= self.threshold <= 1.0:
            raise StreamingError(f"threshold must lie in [-1, 1], got {self.threshold}")
        self._engine = DangoronEngine(
            basic_window_size=self.basic_window_size,
            use_temporal_pruning=self.use_temporal_pruning,
        )
        # The per-window step reads only the window geometry and threshold
        # semantics off the query; window k covers [k*step, k*step + window).
        self._query = self.equivalent_query(self.window)
        self._reblocker = ColumnReblocker(self.basic_window_size)

    # ------------------------------------------------------------ construction
    @classmethod
    def for_query(
        cls,
        query: SlidingQuery,
        num_series: int,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        series_ids: Optional[Sequence[str]] = None,
    ) -> "OnlineCorrelationMonitor":
        """Build a monitor answering a threshold query spec over a live stream.

        The push-based twin of ``CorrelationSession.run``: the query supplies
        window, step and threshold, and the basic-window size is aligned to
        them with the same rule the offline planner uses — this is how the
        query service turns a registered standing query into a monitor fed by
        ``append``.  Only signed-threshold specs stream (the monitor's
        semantics); top-k, lagged and absolute-mode queries raise
        :class:`StreamingError`.  The monitor watches the stream from its
        first column, so a spec with ``start > 0`` is rejected rather than
        silently shifted.
        """
        if getattr(query, "mode", "threshold") != "threshold":
            raise StreamingError(
                f"standing queries support threshold specs only, got "
                f"{type(query).__name__}"
            )
        if query.threshold_mode != THRESHOLD_SIGNED:
            raise StreamingError(
                "standing queries support signed thresholds only (the online "
                "monitor's semantics)"
            )
        if query.start != 0:
            raise StreamingError(
                f"standing queries watch the stream from column 0, got "
                f"start={query.start}"
            )
        basic = choose_basic_window_size(query.window, query.step, basic_window_size)
        return cls(
            num_series=num_series,
            window=query.window,
            step=query.step,
            threshold=query.threshold,
            basic_window_size=basic,
            series_ids=list(series_ids) if series_ids is not None else None,
        )

    # ------------------------------------------------------------------ ingest
    @property
    def emitted_windows(self) -> int:
        return self._emitted

    def append(self, columns: np.ndarray) -> List[OnlineWindowResult]:
        """Feed new columns; returns results for every window that completed.

        ``columns`` has shape ``(num_series, k)``; a 1-D array is one column.
        """
        # A copy: the residual buffer outlives the call.
        columns = np.array(columns, dtype=FLOAT_DTYPE)
        if columns.ndim == 1:
            columns = columns.reshape(-1, 1)
        if columns.ndim != 2 or columns.shape[0] != self.num_series:
            raise StreamingError(
                f"appended columns must have shape ({self.num_series}, k), "
                f"got {columns.shape}"
            )
        if not np.all(np.isfinite(columns)):
            raise StreamingError("appended columns must be finite")

        blocks = list(self._reblocker.feed(columns))
        if blocks:
            fresh = np.concatenate(blocks, axis=1)
            if self._sketch is None:
                layout = BasicWindowLayout(0, self.basic_window_size, len(blocks))
                self._sketch = BasicWindowSketch.build(fresh, layout)
            else:
                self._sketch = self._sketch.extend(fresh)

        available = self.indexed_columns()
        if available < self.window:
            return []
        complete = (available - self.window) // self.step + 1
        if self._loop is None:
            rows, cols = np.triu_indices(self.num_series, k=1)
            self._loop = WindowLoop(rows, cols, JumpScheduler(len(rows), complete))
        else:
            self._loop.scheduler.grow(complete)

        # Eq. 2 may look only as far ahead as the sketch has outgoing basic
        # windows; pairs that reach the horizon re-enter when due.
        step_bw = self.step // self.basic_window_size
        horizon = self._sketch.layout.count // step_bw
        stats = self._loop.scheduler.stats
        results = []
        for k in range(self._emitted, complete):
            evaluated = stats.exact_evaluations
            matrix = self._engine.scan_window(
                self._loop, self._sketch, self._query, k, max_steps=horizon - k
            )
            evaluated = stats.exact_evaluations - evaluated
            results.append(
                OnlineWindowResult(
                    window_index=k,
                    start=k * self.step,
                    end=k * self.step + self.window,
                    matrix=matrix,
                    exact_evaluations=evaluated,
                    skipped_pairs=len(self._loop.rows) - evaluated,
                )
            )
        self._emitted = complete
        return results

    def indexed_columns(self) -> int:
        """Number of columns currently covered by complete basic windows."""
        return 0 if self._sketch is None else self._sketch.layout.covered_end

    # ------------------------------------------------------------------ helper
    def equivalent_query(self, total_columns: int) -> SlidingQuery:
        """The offline query answering the same windows over ``total_columns``.

        Used by tests to check that streaming emission matches a batch run of
        the offline engine over the same data.
        """
        return SlidingQuery(
            start=0,
            end=total_columns,
            window=self.window,
            step=self.step,
            threshold=self.threshold,
            threshold_mode=THRESHOLD_SIGNED,
        )
