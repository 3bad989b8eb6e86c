"""Self-tests of the benchmark harness: gate, input generator and span arithmetic.

They use the stored seed-0 reference answers as known-good artifacts, so they
run in milliseconds and never start rtstab.
"""

import copy
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def _reference(workload):
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def _write_curve(out, rows, summary):
    out.mkdir(parents=True, exist_ok=True)
    lines = ["xi1,xi2,xi_abs,lambda,alpha_at_star"]
    for r in rows:
        xi_abs = (r["xi1"] ** 2 + r["xi2"] ** 2) ** 0.5
        lines.append(f"{r['xi1']!r},{r['xi2']!r},{xi_abs!r},{r['lambda']!r},{r['alpha']!r}")
    (out / "dispersion.csv").write_text("\n".join(lines) + "\n")
    (out / "summary.json").write_text(json.dumps(summary))


def _curve_case(workload):
    ref = _reference(workload)
    cfg = inputs.make_config(workload, 0)
    summary = {"Lambda": ref["Lambda"], "argmax_xi": ref["argmax_xi"],
               "attained": workload == "probe_scan",
               "sigma_c": inputs.density_jump(2.0)}
    return cfg, ref, copy.deepcopy(ref["rows"]), summary


def _write_oracle(out, lam, fitted, rows=gate.ORACLE_ROWS, residual=3e-13):
    out.mkdir(parents=True, exist_ok=True)
    (out / "rate.json").write_text(json.dumps(
        {"lambda_variational": lam, "fitted_rate": fitted, "xi_abs": 1.0}))
    dt = 0.01 / lam
    lines = ["t,abs_eta_minus,abs_eta_plus,energy,dissipation,balance_residual"]
    for k in range(rows):
        lines.append(f"{k * dt!r},1,1,1,1,{0.0 if k == 0 else residual!r}")
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", ["sweep", "probe_scan"])
def test_gate_accepts_reference_curves(tmp_path, workload):
    cfg, ref, rows, summary = _curve_case(workload)
    _write_curve(tmp_path, rows, summary)
    assert gate.check(workload, tmp_path, cfg, ref) == []
    assert gate.check(workload, tmp_path, cfg) == []


def test_probe_scan_lattice_has_57_frequencies():
    assert sum(gate.lattice_keys(inputs.make_config("probe_scan", 0)).values()) == 57
    assert sum(gate.lattice_keys(inputs.make_config("sweep", 0)).values()) == 8


def test_gate_rejects_scaled_lambda(tmp_path):
    cfg, ref, rows, summary = _curve_case("sweep")
    summary["Lambda"] *= 1 + 1e-6
    _write_curve(tmp_path, rows, summary)
    assert any("Lambda" in p for p in gate.check("sweep", tmp_path, cfg, ref))
    assert gate.check("sweep", tmp_path, cfg)  # caught without the reference too


@pytest.mark.parametrize("edit", ["drop", "duplicate"])
@pytest.mark.parametrize("workload", ["sweep", "probe_scan"])
def test_gate_rejects_dropped_or_duplicated_row(tmp_path, workload, edit):
    cfg, ref, rows, summary = _curve_case(workload)
    rows = rows[1:] if edit == "drop" else rows + [rows[-1]]
    _write_curve(tmp_path, rows, summary)
    problems = gate.check(workload, tmp_path, cfg)
    assert any("missing" in p or "duplicated" in p for p in problems)


def test_gate_rejects_growing_probe_row(tmp_path):
    cfg, ref, rows, summary = _curve_case("probe_scan")
    rows[3]["lambda"] = 1e-3
    _write_curve(tmp_path, rows, summary)
    assert any("has lambda" in p for p in gate.check("probe_scan", tmp_path, cfg))


def test_gate_rejects_lambda_off_reference(tmp_path):
    cfg, ref, rows, summary = _curve_case("sweep")
    for r in rows:  # stays self-consistent, but moves by 1e-7
        r["lambda"] += 1e-7
        r["alpha"] = -r["lambda"] ** 2
    summary["Lambda"] = max(r["lambda"] for r in rows)
    _write_curve(tmp_path, rows, summary)
    assert gate.check("sweep", tmp_path, cfg) == []
    assert any("reference" in p for p in gate.check("sweep", tmp_path, cfg, ref))


def test_gate_oracle(tmp_path):
    cfg, ref = inputs.make_config("oracle", 0), _reference("oracle")
    lam = ref["lambda_variational"]
    _write_oracle(tmp_path / "ok", lam, lam * 1.001)
    assert gate.check("oracle", tmp_path / "ok", cfg, ref) == []
    _write_oracle(tmp_path / "rate", lam, lam * 1.03)
    assert any("mismatch" in p for p in gate.check("oracle", tmp_path / "rate", cfg, ref))
    _write_oracle(tmp_path / "rows", lam, lam, rows=600)
    assert any("rows" in p for p in gate.check("oracle", tmp_path / "rows", cfg, ref))
    for residual in (1e-6, float("nan")):
        _write_oracle(tmp_path / "energy", lam, lam, residual=residual)
        assert any("balance" in p for p in gate.check("oracle", tmp_path / "energy", cfg, ref))


def test_gate_reports_missing_artifacts(tmp_path):
    problems = gate.check("sweep", tmp_path, inputs.make_config("sweep", 0))
    assert problems and "unreadable" in problems[0]


def test_generator_is_deterministic_per_seed():
    assert inputs.k_minus(0) == 2.0
    for workload in inputs.WORKLOADS:
        for seed in (0, 1, 7, 12345):
            assert inputs.make_config(workload, seed) == inputs.make_config(workload, seed)
    ks = [inputs.k_minus(seed) for seed in range(1, 50)]
    assert all(inputs.K_MINUS_RANGE[0] <= k <= inputs.K_MINUS_RANGE[1] for k in ks)
    assert len(set(ks)) == len(ks)
    probe = inputs.make_config("probe_scan", 5)
    k = probe["fluids"]["minus"]["law"]["params"][0]
    assert probe["surface_tension"]["sigma_minus"] == 1.05 * inputs.density_jump(k)


def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "attrs": attrs}


def test_self_time_on_synthetic_tree():
    tree = [
        _span(0, "cli.main", None, 0.0, 10.0),
        _span(1, "dispersion.growth_rate", 0, 1.0, 6.0, lam=0.1),
        _span(2, "variational.min_eig", 1, 1.5, 2.5),
        _span(3, "variational.min_eig", 1, 3.0, 5.0),
        _span(4, "dispersion.growth_rate", 0, 7.0, 9.0, lam=0.0),
        _span(5, "variational.min_eig", 4, 7.5, 8.0),
        # overlapping children of one parent are counted once
        _span(6, "io.write_json", None, 20.0, 30.0),
        _span(7, "x", 6, 21.0, 25.0),
        _span(8, "y", 6, 24.0, 32.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(5.0 - 1.0 - 2.0)
    assert selfs[4] == pytest.approx(1.5)
    assert selfs[6] == pytest.approx(10.0 - 9.0)
    m = spans.layer_metrics(tree)
    assert m["dispersion.root_s"] == pytest.approx(7.0)
    assert m["dispersion.root_self_s"] == pytest.approx(2.0 + 1.5)
    assert m["dispersion.roots"] == 1
    assert m["dispersion.eig_per_root"] == 2.0
    assert m["variational.eig_calls"] == 3
    assert m["variational.eig_ms_per_call"] == pytest.approx(1e3 * 3.5 / 3)
    assert m["cli.write_s"] == pytest.approx(1.0)


def test_tracer_records_parents_and_reports_missing(monkeypatch):
    fake = types.ModuleType("fake_layer")
    fake.outer = lambda: fake.inner() + 1
    fake.inner = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", fake)
    tracer = spans.Tracer()
    missing = tracer.install([("fake_layer", "outer", "a.outer", None),
                              ("fake_layer", "inner", "a.inner", lambda r: {"r": r}),
                              ("fake_layer", "gone", "a.gone", None)])
    assert missing == ["fake_layer.gone"]
    assert fake.outer() == 2
    outer, inner = tracer.spans
    assert (outer["name"], outer["parent"]) == ("a.outer", None)
    assert (inner["name"], inner["parent"], inner["attrs"]) == ("a.inner", 0, {"r": 1})
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_layer_metrics_match_the_declared_per_layer_metrics():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    measured = set(spans.layer_metrics([])) | {"trace.overhead_ratio"}
    assert measured == {m["name"] for m in declared}
