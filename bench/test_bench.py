"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest bench -q
"""

import json
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import spans
import truth
import workloads


def test_self_times_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap, so
    # they cover [1, 6]; a has a child c [2, 3]; d [8, 12] is clipped
    tree = [["root", -1, 0.0, 10.0], ["a", 0, 1.0, 4.0],
            ["b", 0, 3.0, 6.0], ["c", 1, 2.0, 3.0], ["d", 0, 8.0, 12.0]]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_self_times_leaf_and_forest():
    assert spans.self_times([["x", -1, 1.0, 2.5], ["y", -1, 3.0, 3.0]]) \
        == pytest.approx([1.5, 0.0])


def _brute_dist(z, n_max=10 ** 6):
    ns = np.arange(1, n_max + 1)
    return min(abs(z), float(np.min(np.abs(z - 1.0 / ns))))


def test_closed_form_sigma0_distance_matches_scan():
    rng = random.Random(3)
    points = [complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
              for _ in range(200)]
    # 1e-6 < |Re z| < 1e-4: the nearest 1/n has 1e4 < n < 1e6
    points += [complex(rng.choice((-1, 1)) * rng.uniform(1e-6, 1e-4),
                       rng.uniform(-1e-3, 1e-3)) for _ in range(100)]
    points += [1.0 / n + 1e-9j for n in (20000, 54321, 999999)]
    points += [1.0 / n for n in (1, 2, 7, 10 ** 4 + 1, 123457)]
    for z in points:
        assert truth.dist_sigma0(z) == pytest.approx(_brute_dist(z),
                                                     rel=1e-9, abs=1e-15)


def test_closed_form_sigma0_distance_beyond_scan_horizon():
    assert truth.dist_sigma0(1.0 / 20000) == 0.0
    assert truth.dist_sigma0(1.0 / 20000 + 2e-4j) == pytest.approx(2e-4)
    assert truth.dist_sigma0(0.0) == 0.0
    assert truth.dist_sigma0(-0.5) == 0.5


def test_regime_table_and_grid_labels():
    assert truth.regime("n") == ("Sigma", "Sigma", "Sigma0")
    assert truth.grid_label(0.3 + 0.1j, "n") == "resolvent"
    assert truth.grid_label(0.3 + 0.1j, "loglog_n") == "spectrum"
    assert truth.grid_label(1.0005 + 0j, "loglog_n") == "excluded"
    assert truth.grid_label(0.5 + 0.5004j, "loglog_n") == "resolvent"
    assert truth.grid_label(0.5 + 0.5004j, "logloglog_n") == "spectrum"


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "TILE_RES", 8)
    monkeypatch.setattr(workloads, "DELTA_HORIZON", 200)
    return str(tmp_path)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_has_no_failures(workload, tiny):
    metrics, tally, _ = run.measure(workload, seed=5, seconds=0, trace=False,
                                    setup_repeats=1, out=tiny)
    assert tally.failures == []
    assert metrics["ok_ratio"] == 1.0
    declared = {m["name"] for m in run._spec()["end_to_end"]}
    assert declared == set(metrics)
    assert all(v > 0 for v in metrics.values())


def test_traced_run_reports_every_layer_metric(tiny):
    metrics, tally, kept = run.measure("exact", seed=5, seconds=0,
                                       trace=True, setup_repeats=1, out=tiny)
    assert tally.failures == []
    assert {m["name"] for m in run._spec()["per_layer"]} == set(metrics)
    assert metrics["weights.log_weight.calls"] > 0
    assert metrics["operators.weighted_norm.calls"] > 0
    assert metrics["spectrum.sample_grid.points"] == 0
    assert kept and all(s[3] is not None for s in kept)
    # the patches are gone again
    cli = sys.modules["cesarolab.cli"]
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.iterates_limit_check, "__wrapped__")


def test_recorder_patches_names_imported_elsewhere(tiny):
    run.setup("exact", tiny)
    rec = spans.Recorder()
    rec.install()
    try:
        spectrum = sys.modules["cesarolab.spectrum"]
        cli = sys.modules["cesarolab.cli"]
        assert hasattr(spectrum.delta_log_abs, "__wrapped__")
        assert hasattr(cli.sample_grid, "__wrapped__")
        assert hasattr(spectrum.rsv.dist_sigma0, "__wrapped__")
        alpha = sys.modules["cesarolab.weights"].make_alpha("n")
        W = sys.modules["cesarolab.weights"].WeightFamily(alpha)
        spectrum.point_spectrum_test(2, alpha, W, horizon=50)
    finally:
        rec.uninstall()
    m = spans.pass_metrics(rec)
    assert m["operators.delta_log_abs.calls"] == 49
    assert m["weights.log_values.elements"] == 49


def test_same_seed_same_inputs(tmp_path):
    for name, wl in workloads.WORKLOADS.items():
        keys = [[op.key for op in wl.pass_ops(run._rng(name, s, 0), "o")]
                for s in (7, 7, 8)]
        assert keys[0] == keys[1] != keys[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_contract():
    spec = run._spec()
    assert spec["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    json.dumps(spec)
