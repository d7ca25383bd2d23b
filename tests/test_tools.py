import importlib.util
import itertools
import json
import pathlib
import platform

import numpy as np
import pytest

from cesarolab.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = pathlib.Path(__file__).resolve().with_name("report_digests.txt")


def load_tool(name="report_digests"):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_is_reproducible():
    tool = load_tool()
    argv = ["verify", "--suite", "eigen", "--N", "8", "--m", "3"]
    code, first = tool.digest(argv, main)
    assert code == 0
    assert tool.digest(argv, main) == (code, first)
    # the report hashes alike on stdout and in an output file
    assert tool.digest(argv + ["--output", "{out}/r.json"], main) == (
        code, first)
    assert tool.digest(["verify", "--suite", "eigen", "--N", "9", "--m",
                        "3"], main)[1] != first


def test_reports_match_recorded_digests():
    # every report of the tool hashes as recorded; a change that moves a
    # report on purpose records the file again (see the tool's docstring)
    header, *recorded = DIGESTS.read_text().splitlines()
    here = f"# python {platform.python_version()} numpy {np.__version__}"
    if header != here:
        pytest.fail(f"{DIGESTS.name} was recorded with {header[2:]!r}, "
                    f"this is {here[2:]!r}: record it again with this "
                    f"interpreter from a checkout whose reports are right")
    changed = [(ours or theirs).split(" ", 2)[2]
               for ours, theirs in itertools.zip_longest(
                   load_tool().report_lines(main), recorded)
               if ours != theirs]
    assert not changed, "reports changed:\n" + "\n".join(changed)


def test_bench_snapshot_keeps_every_end_to_end_metric():
    # assembled from a canned result line of bench/run.py, without a run
    tool = load_tool("bench_snapshot")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    line = json.dumps({"correct": True, "attempted": 40, "failed": 0,
                       "metrics": {name: {"value": float(i), "unit": "u"}
                                   for i, name in enumerate(names)}})
    snap = tool.snapshot(spec, "0123456789abcdef", False,
                         {"scans": line, "exact": line})
    json.loads(json.dumps(snap))
    assert (snap["commit"], snap["dirty"]) == ("0123456789abcdef", False)
    assert set(snap["host"]) == {"platform", "cpu_count"}
    assert snap["workloads"]["scans"] == {
        "correct": True, "attempted": 40, "failed": 0,
        "metrics": {name: float(i) for i, name in enumerate(names)}}
    assert snap["units"]["ops_per_s"] == "1/s"
    short = json.loads(line)
    del short["metrics"]["setup_s"]
    with pytest.raises(ValueError, match="scans: no setup_s"):
        tool.snapshot(spec, "0123456", False, {"scans": json.dumps(short)})


def test_bench_snapshot_in_process_table():
    # one cheap command of each kind, run in a fresh interpreter
    tool = load_tool("bench_snapshot")
    assert len(tool.IN_PROCESS) == 13
    table = tool.in_process_table(ROOT, {
        "classify": ["classify", "--alpha", "n", "--horizon", "100"],
        "shift": ["shift", "sqrt_n"]}, repeats=2)
    assert set(table) == {"classify", "shift"}
    for row in table.values():
        assert set(row) == {"best_ms", "minor_faults"}
        assert row["best_ms"] > 0 and row["minor_faults"] >= 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tool.snapshot(spec, "0123456", False, {}, table)[
        "in_process"] == table


_IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:     30000 |      30000 | numpy
import time:       900 |        900 |     cesarolab.weights
import time:       350 |       1250 |   cesarolab.cli
import time:        40 |         40 | cesarolab
import time:        70 |         70 | cesarolabx
"""


def test_bench_snapshot_cold_start():
    # cesarolab's own share of a canned importtime trace, then one cheap
    # command run cold
    tool = load_tool("bench_snapshot")
    assert tool.own_import_ms(_IMPORTTIME) == 1.29
    assert set(tool.COLD_START) == {"classify", "probe", "finite"}
    cold = tool.cold_start(ROOT, {"version": ["--version"]}, repeats=1)
    assert set(cold) == {"wall_ms_median", "cesarolab_import_ms", "repeats"}
    assert set(cold["wall_ms_median"]) == {"version"}
    assert cold["wall_ms_median"]["version"] > 0
    assert cold["cesarolab_import_ms"] > 0
    with pytest.raises(RuntimeError, match="^bad: exit 1"):
        tool.cold_start(ROOT, {"bad": ["finite", "--weights", "x"]}, 1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert tool.snapshot(spec, "0123456", False, {}, {}, cold)[
        "cold_start"] == cold
