"""rtstab benchmark: run one workload for a time budget and print its metrics.

    python3 bench/run.py --workload sweep --seed 0 --seconds 40 --trace 0

Each sample is a fresh single-process worker (bench/worker.py) that imports
rtstab from the checkout's src/ and calls rtstab.cli.main(argv) once with
--threads 1 and one BLAS thread.  Every run's artifacts go through the
tolerance gate in gate.py.  With --trace 0 the last line reports the
end-to-end metrics (medians over the untraced workers); with --trace 1 it
reports the per-layer metrics of traced workers, which alternate with
untraced ones so that trace.overhead_ratio compares like with like.  See
bench/README.md for the workloads, the metrics and their units.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import inputs
from spans import layer_metrics

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0  # the whole run, workers included, ends before this


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def launch(report: Path, cli_args: list[str] | None, trace: bool,
           timeout: float) -> dict:
    """Run one worker to completion and return its report."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(BENCH / "worker.py"), str(report), repr(_monotonic())]
    if trace:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                              capture_output=True, text=True)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not report.exists():
        return {"error": f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(report.read_text(encoding="utf-8"))


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def load_reference(workload: str) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def _summary(name: str, values: list[float], unit: str) -> str:
    if not values:
        return f"{name:<28} no samples"
    return (f"{name:<28} median {statistics.median(values):.6g} {unit}"
            f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = _monotonic()
    deadline = start + seconds
    reference = load_reference(workload) if seed == 0 else None
    cfg = inputs.make_config(workload, seed)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config_path = work / "config.json"
        config_path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
        samples = []  # (traced, report, problems)
        durations = []
        while True:
            traced = trace and len(samples) % 2 == 1
            out = work / f"run-{len(samples)}"
            t0 = _monotonic()
            rep = launch(work / f"report-{len(samples)}.json",
                         inputs.cli_argv(workload, config_path, out), traced,
                         max(1.0, start + HARD_LIMIT_S - t0))
            durations.append(_monotonic() - t0)
            if "error" in rep:
                problems = [rep["error"]]
            elif rep.get("exit_code") != 0:
                problems = [f"rtstab exited with {rep.get('exit_code')}"]
            else:
                problems = gate.check(workload, out, cfg, reference)
            for msg in problems:
                print(f"FAIL sample {len(samples)}: {msg}", file=sys.stderr)
            samples.append((traced, rep, problems))
            shutil.rmtree(out, ignore_errors=True)
            enough = len(samples) >= (2 if trace else 1)
            if enough and _monotonic() + statistics.median(durations) > deadline:
                break
            if _monotonic() - start > HARD_LIMIT_S / 2:
                break
        setup = [rep["setup_s"] for _t, rep, _p in samples if "setup_s" in rep]
        while len(setup) < MIN_SETUP_SAMPLES and _monotonic() - start < HARD_LIMIT_S - 20:
            rep = launch(work / f"setup-{len(setup)}.json", None, False, 20.0)
            if "setup_s" not in rep:
                break
            setup.append(rep["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for _t, _r, problems in samples if problems)
    plain = [rep for t, rep, problems in samples if not t and not problems]
    traced_reps = [rep for t, rep, problems in samples if t and not problems]
    walls = [rep["wall_s"] for rep in plain if "wall_s" in rep]
    rss = [rep["peak_rss_mb"] for rep in plain if "peak_rss_mb" in rep]
    print(f"workload={workload} seed={seed} k_minus={inputs.k_minus(seed)!r} "
          f"trace={int(trace)} reference={'yes' if reference else 'no'}")
    print(_summary("wall_s", walls, "s"))
    print(_summary("setup_s", setup, "s"))
    print(_summary("peak_rss_mb", rss, "MB"))
    print(f"{'error_rate':<28} {failed}/{len(samples)} = {failed / len(samples):.3g}")

    if trace:
        per_run = [layer_metrics(rep.get("spans", [])) for rep in traced_reps] or [
            layer_metrics([])]
        values = {name: statistics.median(r[name] for r in per_run) for name in per_run[0]}
        traced_walls = [rep["wall_s"] for rep in traced_reps]
        values["trace.overhead_ratio"] = (statistics.median(traced_walls) / statistics.median(walls)
                                          if traced_walls and walls else 0.0)
        missing = sorted({m for rep in traced_reps for m in rep.get("missing", [])})
        if missing:
            print(f"trace: wrapped names missing, their metrics read 0: {missing}")
    else:
        values = {name: statistics.median(v) if v else 0.0 for name, v in
                  (("wall_s", walls), ("setup_s", setup), ("peak_rss_mb", rss))}
    units = declared_metrics(trace)
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(values)} differ from the declared "
                           f"ones {sorted(units)} in BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    if trace:
        for name, m in metrics.items():
            print(f"{name:<28} {m['value']:.6g} {m['unit']}")

    versions = next((rep["versions"] for _t, rep, _p in samples if "versions" in rep), {})
    provenance = {"workload": workload, "seed": seed, "k_minus": inputs.k_minus(seed),
                  "nproc": os.cpu_count(), "git_revision": git_revision(),
                  "src_sha256": src_digest(), **versions,
                  "samples": {"untraced": sum(1 for t, _r, _p in samples if not t),
                              "traced": sum(1 for t, _r, _p in samples if t),
                              "setup": len(setup)}}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rtstab" / "cli.py").is_file():
        print(f"error: no rtstab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
