"""The Dangoron request-path benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, the environment record and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics reported by every workload: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "query_p50_ms": "ms",
    "throughput_qps": "1/s",
    "edge_recall": "ratio",
    "peak_rss_mb": "MB",
}

#: Printed but not in the result: on every workload it is a fixed multiple
#: of ``throughput_qps`` (each query covers a fixed number of pair-windows,
#: and append-stream measures whole sweeps), so gating it adds nothing.
PRINTED_ONLY = {"pair_windows_per_s": "1/s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["serve-hot", "cold-scan", "append-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _tail_row(name: str, samples, pct):
    import measure

    tail = measure.tail(samples, pct) if pct else None
    if tail is None:
        where = f"p{pct:g}" if pct else "any percentile"
        return (f"{name:<28} n/a ({len(samples)} samples: fewer than "
                f"{measure.MIN_BEYOND} beyond {where})")
    return (f"{name:<28} {tail['value']:.4f} ms  (p{tail['pct']:g} of "
            f"{tail['samples']} samples, {tail['beyond']} beyond)")


def report(workload: str, plain, traced, env, tail_pct) -> dict:
    """Print the human-readable table; return the final result object."""
    import layers
    import measure

    metrics = plain.end_to_end()
    print(f"== {workload}: end-to-end (untraced run)")
    for name, unit in {**END_TO_END, **PRINTED_ONLY}.items():
        print(f"{name:<28} {metrics[name]:.6g} {unit}")
    if plain.append_ms:
        print(f"{'append_p50_ms':<28} {measure.median(plain.append_ms):.4f} ms")
        print(_tail_row("append_tail_ms", plain.append_ms, tail_pct))
    print(_tail_row("query_tail_ms", plain.query_ms, tail_pct))
    phases = [plain] + ([traced] if traced else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(f"{'error_rate':<28} {failed / max(1, attempted):.6g} ratio "
          f"({failed} of {attempted} ops failed)")
    for message in sum((p.failures for p in phases), [])[:10]:
        print(f"  failure: {message}", file=sys.stderr)
    if traced:
        print(f"== {workload}: per layer (traced run)")
        for name, unit in layers.LAYER_METRICS:
            print(f"{name:<40} {traced.layers[name]:.6g} {unit}")
        chosen = {name: (traced.layers[name], unit) for name, unit in layers.LAYER_METRICS}
    else:
        chosen = {name: (metrics[name], unit) for name, unit in END_TO_END.items()}
    print("# env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0 and plain.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in chosen.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    # Servers are stopped with SIGINT, which ``repro serve`` handles as a
    # clean shutdown.  A shell that starts this run in the background without
    # job control leaves SIGINT ignored, and the servers would inherit that
    # and only die at the stop timeout; a handled signal resets on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    run, load_threads, tail_pct = workloads.WORKLOADS[args.workload]
    env = measure.environment(load_threads=load_threads, connections=load_threads)
    try:
        measure.guard(env)
    except measure.EnvironmentRefused as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(root=ROOT, work=work, seed=args.seed,
                                seconds=args.seconds, trace=bool(args.trace))
        plain, traced = run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    result = report(args.workload, plain, traced, env, tail_pct)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
