"""Regenerate bench/reference/*.json, the seed-0 answers the gate compares to.

    python3 bench/make_reference.py

Runs each workload once with seed 0, requires the artifacts to pass the
tolerance gate, and stores the answers with the git revision that made them.
Regenerate only when the discretization itself changes on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import inputs
from run import BENCH, WORK, git_revision, src_digest, launch


def main() -> int:
    work = WORK / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for workload in inputs.WORKLOADS:
            cfg = inputs.make_config(workload, 0)
            (work / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
            out = work / workload
            rep = launch(work / "report.json",
                         inputs.cli_argv(workload, work / "config.json", out), False, 600.0)
            problems = ([rep["error"]] if "error" in rep
                        else gate.check(workload, out, cfg) if rep.get("exit_code") == 0
                        else [f"rtstab exited with {rep.get('exit_code')}"])
            if problems:
                print(f"{workload}: {problems}", file=sys.stderr)
                return 1
            ref = {"workload": workload, "seed": 0, "git_revision": git_revision(),
                   "src_sha256": src_digest()}
            if workload == "oracle":
                rate = json.loads((out / "rate.json").read_text(encoding="utf-8"))
                ref["lambda_variational"] = rate["lambda_variational"]
                ref["fitted_rate"] = rate["fitted_rate"]
            else:
                summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
                ref["Lambda"] = summary["Lambda"]
                ref["argmax_xi"] = summary["argmax_xi"]
                ref["rows"] = [{k: r[k] for k in ("xi1", "xi2", "lambda", "alpha")}
                               for r in gate.read_curve(out)]
            path = BENCH / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(BENCH.parent)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
