"""Run ``repro serve`` with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/serve_launcher.py SPANS_OUT serve --catalog DIR ...

Everything after ``SPANS_OUT`` is passed to the ``repro`` command line
unchanged.  The wrappers are installed before the server is built; when the
server stops (SIGINT, which ``repro serve`` handles as a clean shutdown) the
recorded spans are written to ``SPANS_OUT`` as JSON.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install_server_side(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(cli_args)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
