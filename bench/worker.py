"""One fresh benchmark worker: import rtstab from the checkout, run main once.

    python3 bench/worker.py REPORT LAUNCHED [--trace] [-- CLI ARGS...]

LAUNCHED is the CLOCK_MONOTONIC time at which the parent started this
process, so setup_s covers interpreter start-up and the import of rtstab.cli.
Without CLI ARGS the worker only imports (a set-up sample).  The report is a
JSON file: setup_s, wall_s of main(argv), exit_code, peak_rss_mb, the library
versions and, with --trace, the spans and the wrapped names that were missing.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(argv: list[str]) -> int:
    report_path, launched = Path(argv[0]), float(argv[1])
    split = argv.index("--") if "--" in argv else len(argv)
    trace = "--trace" in argv[2:split]
    cli_args = argv[split + 1:]
    sys.path.insert(0, str(ROOT / "src"))
    from rtstab import cli
    report = {"setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - launched}
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"rtstab imported from {cli.__file__}, not from {ROOT / 'src'}")
    if cli_args:
        entry = cli.main
        if trace:
            from spans import Tracer
            tracer = Tracer()
            report["missing"] = tracer.install()
            entry = tracer.wrap("cli.main", cli.main)
        start = time.perf_counter()
        try:
            report["exit_code"] = entry(cli_args)
        except Exception:  # the run counts as failed; the worker still reports
            report["exit_code"] = None
            report["error"] = traceback.format_exc()
        report["wall_s"] = time.perf_counter() - start
        if trace:
            report["spans"] = tracer.spans
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    report["versions"] = _versions()
    report_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
