"""Timing summaries, memory high-water marks, the environment record and the
server process the served workloads talk to."""

from __future__ import annotations

import math
import os
import platform
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    middle = n // 2
    return ordered[middle] if n % 2 else (ordered[middle - 1] + ordered[middle]) / 2


def tail(values: Sequence[float], pct: float) -> Optional[Dict[str, float]]:
    """The nearest-rank ``pct`` percentile as ``{"pct", "value", "samples",
    "beyond"}``, or ``None`` when fewer than ``MIN_BEYOND`` samples lie
    beyond it, which is too few to call it a tail."""
    n = len(values)
    rank = max(1, math.ceil(pct * n / 100.0))
    if n - rank < MIN_BEYOND:
        return None
    return {"pct": pct, "value": sorted(values)[rank - 1], "samples": n,
            "beyond": n - rank}


def vm_hwm_mb(pid: int) -> float:
    """High-water resident set size of a live process, in MB (Linux)."""
    text = Path(f"/proc/{pid}/status").read_text()
    match = re.search(r"^VmHWM:\s+(\d+)\s+kB", text, re.MULTILINE)
    return int(match.group(1)) / 1024.0


def environment(load_threads: int, connections: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {name: os.environ.get(name) for name in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "load_threads": load_threads,
        "connections": connections,
    }


class EnvironmentRefused(RuntimeError):
    """The machine cannot run the workload as specified."""


def guard(env: Dict[str, object]) -> None:
    if env["load_threads"] > env["cpus_usable"]:
        raise EnvironmentRefused(
            f"{env['load_threads']} load-generator threads exceed the "
            f"{env['cpus_usable']} usable CPU(s); refusing to record this run")


class Server:
    """One ``repro serve`` process on an ephemeral port.

    Untraced servers run the ``repro`` command line directly; traced ones run
    it through ``serve_launcher.py``, which writes the server's spans to
    ``spans_path`` on shutdown.
    """

    def __init__(self, root: Path, catalog: Path, basic_window: int,
                 log_path: Path, spans_path: Optional[Path] = None) -> None:
        serve_args = ["serve", "--catalog", str(catalog), "--port", "0",
                      "--basic-window", str(basic_window),
                      "--cost-calibration", "fixture"]
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli"] + serve_args
        else:
            command = [sys.executable, "-u",
                       str(root / "perfbench" / "serve_launcher.py"),
                       str(spans_path)] + serve_args
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command, cwd=str(root), env=env, stdout=subprocess.PIPE,
            stderr=self._log)
        try:
            self.url = self._read_url()
        except BaseException:
            self.stop()
            raise

    def _read_url(self) -> str:
        for raw in self.process.stdout:
            match = re.search(r" on (http://\S+)", raw.decode("utf-8", "replace"))
            if match:
                return match.group(1)
        code = self.process.wait()
        self._log.flush()
        log = Path(self._log.name).read_text(errors="replace")[-2000:]
        raise RuntimeError(f"server exited with code {code} before listening:\n{log}")

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.process.pid)

    def stop(self) -> None:
        """SIGINT (a clean ``repro serve`` shutdown), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def time_import(root: Path) -> float:
    """Seconds from starting a fresh interpreter to ``import repro`` done."""
    code = "import time, repro; print(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    started = time.monotonic()
    output = subprocess.run([sys.executable, "-c", code], cwd=str(root), env=env,
                            capture_output=True, text=True, check=True, timeout=120)
    return float(output.stdout.strip().splitlines()[-1]) - started
