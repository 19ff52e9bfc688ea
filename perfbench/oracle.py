"""Exact answers and error accounting.

Every window's correlation matrix is computed with ``numpy.corrcoef`` on the
raw window, independently of the program's sketches, outside any timed
region.  A returned answer fails when it holds a false edge (a pair whose
exact correlation is below the threshold), a value more than ``TOLERANCE``
from the exact one, a malformed window list, a wrong top-k set, or a
standing-query reply missing a window that completed (or holding one that
did not).  Missed edges do not fail an answer — Dangoron's jumping is
allowed to miss them — they lower ``edge_recall`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

TOLERANCE = 1e-9


class WindowOracle:
    """Memoized exact correlation matrices of one ``(N, L)`` value array."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=np.float64)
        self._matrices: Dict[Tuple[int, int], np.ndarray] = {}
        self.upper = np.triu_indices(self.values.shape[0], k=1)

    def corr(self, begin: int, window: int) -> np.ndarray:
        key = (begin, window)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = np.corrcoef(self.values[:, begin:begin + window])
            self._matrices[key] = matrix
        return matrix


@dataclass
class Check:
    """Outcome of checking one answer: failures plus recall counts."""

    failures: List[str] = field(default_factory=list)
    found: int = 0
    expected: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def _window_begins(query) -> List[int]:
    return [query.start + k * query.step for k in range(query.num_windows)]


def check_edges(check: Check, oracle: WindowOracle, begin: int, window: int,
                threshold: float, rows, cols, values, label: str) -> None:
    """Check one window's thresholded edges (signed threshold) against the oracle."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    exact = oracle.corr(begin, window)
    truth = exact[oracle.upper] >= threshold
    check.expected += int(truth.sum())
    if len(rows) == 0:
        return
    n = exact.shape[0]
    if rows.min() < 0 or cols.max() >= n or np.any(rows >= cols):
        check.failures.append(f"{label}: pair outside the upper triangle")
        return
    if len(np.unique(rows * n + cols)) != len(rows):
        check.failures.append(f"{label}: duplicate pair")
        return
    reference = exact[rows, cols]
    off = np.abs(reference - values)
    if np.any(off > TOLERANCE):
        check.failures.append(f"{label}: value off by {off.max():.3g}")
    false_edges = reference < threshold - TOLERANCE
    if np.any(false_edges):
        check.failures.append(f"{label}: {int(false_edges.sum())} false edge(s)")
    check.found += int((reference >= threshold).sum())


def check_threshold(result, query, oracle: WindowOracle) -> Check:
    """Check a thresholded-matrix series answer to ``query``."""
    check = Check()
    windows = list(result.iter_windows())
    begins = _window_begins(query)
    if len(windows) != len(begins):
        check.failures.append(f"{len(windows)} windows, expected {len(begins)}")
        return check
    for (index, matrix), begin in zip(windows, begins):
        check_edges(check, oracle, begin, query.window, query.threshold,
                    matrix.rows, matrix.cols, matrix.values, f"window {index}")
    return check


def check_topk(result, query, oracle: WindowOracle) -> Check:
    """Check a top-k answer: every window holds k exact pairs, none ranked
    below the exact k-th largest correlation (ties within tolerance pass)."""
    check = Check()
    windows = list(result.iter_windows())
    begins = _window_begins(query)
    if len(windows) != len(begins):
        check.failures.append(f"{len(windows)} windows, expected {len(begins)}")
        return check
    for (index, top), begin in zip(windows, begins):
        exact = oracle.corr(begin, query.window)
        upper = exact[oracle.upper]
        ranked = np.abs(upper) if query.effective_absolute else upper
        k = min(query.k, len(upper))
        kth = np.partition(ranked, len(ranked) - k)[len(ranked) - k]
        rows = np.asarray(top.rows, dtype=np.int64)
        cols = np.asarray(top.cols, dtype=np.int64)
        if len(rows) != k or len(set(zip(rows.tolist(), cols.tolist()))) != k:
            check.failures.append(f"window {index}: {len(rows)} distinct pairs, expected {k}")
            continue
        if rows.min() < 0 or cols.max() >= exact.shape[0] or np.any(rows >= cols):
            check.failures.append(f"window {index}: pair outside the upper triangle")
            continue
        reference = exact[rows, cols]
        off = np.abs(reference - np.asarray(top.values, dtype=np.float64))
        if np.any(off > TOLERANCE):
            check.failures.append(f"window {index}: value off by {off.max():.3g}")
        scored = np.abs(reference) if query.effective_absolute else reference
        if np.any(scored < kth - TOLERANCE):
            check.failures.append(f"window {index}: wrong top-{k} set")
    return check


def check_watch_windows(documents, indices, step: int, window: int,
                        threshold: float, oracle: WindowOracle) -> Check:
    """Check the standing-query windows one reply delivered against the window
    ``indices`` that should have completed in it (a watch over ``[0, ...)``).

    A missing, extra or repeated window fails the reply, and a missing
    window's exact edges count as expected, so dropping windows lowers
    ``edge_recall`` too.
    """
    check = Check()
    due = set(indices)
    seen = set()
    for doc in documents:
        index, begin, end = int(doc["index"]), int(doc["start"]), int(doc["end"])
        if index not in due or index in seen:
            check.failures.append(f"watch window {index}: not due in this reply")
            continue
        seen.add(index)
        if begin != index * step or end - begin != window:
            check.failures.append(f"watch window {index}: spans {begin}..{end}")
            continue
        check_edges(check, oracle, begin, window, threshold, doc["rows"],
                    doc["cols"], doc["values"], f"watch window {index}")
    for index in sorted(due - seen):
        check.failures.append(f"watch window {index}: missing")
        exact = oracle.corr(index * step, window)
        check.expected += int((exact[oracle.upper] >= threshold).sum())
    return check
