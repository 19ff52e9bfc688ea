"""Persistent index of precomputed basic-window statistics.

Dangoron and TSUBASA both rest on the idea that basic-window statistics are
computed once, stored, and reused by every subsequent query ("we can
pre-compute and store basic window statistics and calculate correlations for
arbitrary query windows and sizes").  :class:`StatsIndex` is that stored
artefact: it wraps a :class:`~repro.core.sketch.BasicWindowSketch` and knows
how to persist itself to disk.  Growing statistics as new columns arrive is
:meth:`BasicWindowSketch.extend <repro.core.sketch.BasicWindowSketch.extend>`'s
job, not the index's.
"""

from __future__ import annotations

import zipfile
from pathlib import Path
from typing import Union

import numpy as np

from repro.config import DEFAULT_BASIC_WINDOW_SIZE, FLOAT_DTYPE
from repro.core.basic_window import BasicWindowLayout
from repro.core.sketch import BasicWindowSketch
from repro.exceptions import StorageError


class StatsIndex:
    """A persisted, extensible basic-window statistics index."""

    def __init__(self, sketch: BasicWindowSketch) -> None:
        if not sketch.has_pairwise:
            raise StorageError(
                "StatsIndex requires a pairwise sketch (built with pairwise=True)"
            )
        self._sketch = sketch

    # ------------------------------------------------------------------ build
    @classmethod
    def build(
        cls,
        values: np.ndarray,
        basic_window_size: int = DEFAULT_BASIC_WINDOW_SIZE,
        offset: int = 0,
    ) -> "StatsIndex":
        """Build an index over all complete basic windows of ``values``."""
        values = np.asarray(values, dtype=FLOAT_DTYPE)
        if values.ndim != 2:
            raise StorageError(f"expected an (N, L) matrix, got shape {values.shape}")
        layout = BasicWindowLayout.for_range(
            offset, values.shape[1], basic_window_size
        )
        return cls(BasicWindowSketch.build(values, layout))

    # ------------------------------------------------------------------ access
    @property
    def sketch(self) -> BasicWindowSketch:
        """The wrapped sketch (shared, not copied)."""
        return self._sketch

    @property
    def layout(self) -> BasicWindowLayout:
        return self._sketch.layout

    @property
    def num_series(self) -> int:
        return self._sketch.num_series

    @property
    def covered_columns(self) -> int:
        """Number of raw columns covered by complete basic windows."""
        return self.layout.covered_end

    def memory_bytes(self) -> int:
        return self._sketch.memory_bytes()

    # ------------------------------------------------------------ persistence
    def save(self, path: Union[str, Path]) -> Path:
        """Persist the index to a ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            offset=np.array([self.layout.offset]),
            size=np.array([self.layout.size]),
            count=np.array([self.layout.count]),
            series_sums=self._sketch.series_sums,
            series_sumsqs=self._sketch.series_sumsqs,
            pair_sumprods=self._sketch.pair_sumprods,
            pair_corrs=self._sketch.pair_corrs,
        )
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StatsIndex":
        """Load an index previously written by :meth:`save`."""
        path = Path(path)
        if not path.exists():
            raise StorageError(f"stats index file not found: {path}")
        try:
            archive_ctx = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as error:
            # np.load surfaces truncated/garbage archives as raw zipfile or
            # interpretation errors; name the file instead.
            raise StorageError(f"{path} is not a readable .npz archive") from error
        with archive_ctx as archive:
            try:
                layout = BasicWindowLayout(
                    offset=int(archive["offset"][0]),
                    size=int(archive["size"][0]),
                    count=int(archive["count"][0]),
                )
                sketch = BasicWindowSketch(
                    layout=layout,
                    series_sums=archive["series_sums"],
                    series_sumsqs=archive["series_sumsqs"],
                    pair_sumprods=archive["pair_sumprods"],
                    pair_corrs=archive["pair_corrs"],
                )
            except KeyError as error:
                raise StorageError(f"{path} is not a stats-index archive") from error
        return cls(sketch)

    def __repr__(self) -> str:
        return (
            f"StatsIndex(num_series={self.num_series}, "
            f"basic_windows={self.layout.count}, size={self.layout.size})"
        )
