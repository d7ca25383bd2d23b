import contextlib
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import cli
from cesarolab import resolvent as rsv
from cesarolab.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, RunConfig,
                           main)
from cesarolab.operators import (N_EXACT, _max_deviation, cesaro_apply,
                                 delta_matrix_exact)
from cesarolab.weights import PRESET_NAMES, make_alpha


def run(argv):
    return main(argv)


def test_classify_preset_ok(tmp_path):
    out = tmp_path / "r.json"
    code = run(["classify", "--alpha", "preset:n", "--horizon", "10000",
                "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["sigma"] == "Sigma"
    assert doc["report"]["sigma_star"] == "Sigma0"
    assert doc["tool_version"]
    assert doc["config_hash"]


def test_classify_slow_preset(tmp_path):
    out = tmp_path / "r.json"
    code = run(["classify", "--alpha", "preset:logloglog_n", "--no-probe",
                "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["sigma"] == "closure(D(1))"


def test_classify_short_file_inconclusive(tmp_path):
    csv = tmp_path / "alpha.csv"
    csv.write_text("".join(f"{n},{n * 2.0}\n" for n in range(1, 11)))
    out = tmp_path / "r.json"
    code = run(["classify", "--alpha", f"file:{csv}", "--output", str(out)])
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out.read_text())
    assert doc["report"]["status"] == "inconclusive"


def test_classify_bad_alpha_spec(tmp_path):
    assert run(["classify", "--alpha", "preset:bogus"]) == EXIT_FAIL
    assert run(["classify", "--alpha", "file:/no/such/file.csv"]) == EXIT_FAIL


@pytest.mark.parametrize("suite", ["factorizations", "eigen", "resolvent",
                                   "ergodic"])
def test_verify_suites_pass(tmp_path, suite):
    out = tmp_path / "v.json"
    code = run(["verify", "--suite", suite, "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["passed"]
    assert all("/" in c["check"] for c in doc["report"]["checks"])


def test_verify_factorizations_at_the_top_of_the_exact_tier(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "factorizations", "--N", "128",
                "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["N"] == 128
    assert [c["deviation"] for c in doc["report"]["checks"]] == [0.0] * 3


def test_eigen_check_sees_one_perturbed_entry(tmp_path, monkeypatch):
    # column 1 of the involution plus e_N averages to (N+1)/N at row N
    # against 2 there, so only m = 1 deviates, by exactly (N-1)/N
    exact = cli.delta_matrix_exact

    def perturbed(N):
        delta = exact(N)
        delta[N - 1, 0] += 1
        return delta

    monkeypatch.setattr(cli, "delta_matrix_exact", perturbed)
    out = tmp_path / "eigen.json"
    assert run(["verify", "--suite", "eigen", "--N", "5", "--m", "3",
                "--output", str(out)]) == EXIT_FAIL
    checks = json.loads(out.read_text())["report"]["checks"]
    assert [c["deviation"] for c in checks] == [0.8, 0.0, 0.0]
    assert [c["passed"] for c in checks] == [False, True, True]


def _retired_eigen_deviations(delta, m_max):
    """The Fraction column loop the eigen suite used to run, kept as the
    reference: C applied to column m against column m over m."""
    devs = []
    for m in range(1, m_max + 1):
        col = np.array([Fraction(v) for v in delta[:, m - 1]], dtype=object)
        devs.append(_max_deviation(cesaro_apply(col), col / m))
    return devs


@st.composite
def _eigen_cases(draw):
    N = draw(st.integers(1, 40))
    m = draw(st.integers(1, N))
    delta = delta_matrix_exact(N)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, N - 1)), draw(st.integers(0, m - 1))
        delta[i, j] += draw(st.one_of(
            st.integers(-10 ** 6, 10 ** 6).filter(bool),
            st.fractions(max_denominator=1000).filter(bool)))
    return N, m, delta


@given(_eigen_cases())
@settings(max_examples=100, deadline=None)
def test_eigen_suite_matches_the_retired_fraction_loop(case):
    N, m, delta = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "delta_matrix_exact", lambda n: delta.copy())
        mp.setattr(cli, "_exact_check", lambda name, dev: dev)
        devs = cli._checks_eigen(N=N, m=m)
    assert devs == _retired_eigen_deviations(delta, m)
    assert all(isinstance(d, Fraction) for d in devs)


def test_parser_is_built_once(tmp_path):
    assert cli.build_parser() is cli.build_parser()
    # one parser, a fresh namespace per call: --N 0 stands for the suite
    # default again after an explicit --N
    for N, want in (("5", 5), ("0", 50)):
        out = tmp_path / f"eigen{N}.json"
        assert run(["verify", "--suite", "eigen", "--N", N, "--m", "2",
                    "--output", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["N"] == want


def test_verify_sandwich_and_finite(tmp_path):
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "sandwich", "--samples", "25",
                "--output", str(out)]) == EXIT_OK
    assert run(["verify", "--suite", "finite", "--horizon", "100000",
                "--output", str(out)]) == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["finite", "--weights", "finite:log_np1", "--horizon", "0"],
    ["probe", "--alpha", "preset:n", "--lambda", "0.4", "--samples", "0"],
    ["probe", "--alpha", "preset:n", "--lambda", "nan"],
    ["ergodic", "--alpha", "preset:n", "--m-cap", "0"],
    ["verify", "--suite", "sandwich", "--samples", "0"],
    ["probe", "--alpha", "preset:n", "--lambda", "0.4+0.2i", "--delta", "-1"],
    ["probe", "--alpha", "preset:n", "--lambda", "0.4+0.2i", "--delta", "0"],
    ["probe", "--alpha", "preset:n", "--lambda", "0.4+0.2i", "--l-max", "-1"],
    ["verify", "--suite", "eigen", "--m", "0"],
    ["ergodic", "--alpha", "preset:n", "--tol", "-1"],
    ["ergodic", "--alpha", "preset:n", "--tol", "nan"],
    # the probe scans the strict rows n >= 2: horizon 1 leaves none
    ["probe", "--alpha", "preset:n", "--lambda", "2", "--horizon", "1"],
    # counts where 0 means the default (suite N, acts search, no probes)
    # but a negative value has no meaning
    ["verify", "--suite", "factorizations", "--N", "-3"],
    ["finite", "--weights", "finite:log_np1", "--k", "-1", "--l", "2"],
    ["finite", "--weights", "finite:log_np1", "--k", "1", "--l", "-2"],
    ["grid", "--alpha", "preset:n", "--res", "4", "--probe-subsample", "-1"],
    # the eigenvector checks read column m of the N x N involution
    ["verify", "--suite", "eigen", "--N", "3", "--m", "10"],
    # a grid side is LO:HI with two finite numbers
    ["grid", "--alpha", "preset:n", "--res", "2", "--re=nan:1"],
    ["grid", "--alpha", "preset:n", "--res", "2", "--re=1:inf"],
    ["grid", "--alpha", "preset:n", "--res", "2", "--im=1"],
    ["grid", "--alpha", "preset:n", "--res", "2", "--im=a:b"],
    # the eigen suite builds an N x N big-integer section: N_EXACT caps it
    ["verify", "--suite", "eigen", "--N", str(N_EXACT + 1)],
    # a suite reads --N or refuses it; the ergodic range inverse is exact
    ["verify", "--suite", "sandwich", "--N", "3"],
    ["verify", "--suite", "finite", "--N", "7"],
    ["verify", "--suite", "ergodic", "--N", str(N_EXACT + 1)],
    ["verify", "--suite", "ergodic", "--N", "1"],
    # unparseable values
    ["probe", "--alpha", "preset:n", "--lambda=abc"],
    ["grid", "--alpha", "preset:n", "--res", "2", "--re=1:2:3"],
])
def test_invalid_count_or_lambda_rejected(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    flag = "--out" if argv[0] == "grid" else "--output"
    assert run(argv + [flag, str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["probe", "--alpha", "n", "--lambda=abc"],
     "argument --lambda: must be a finite complex number, got 'abc'"),
    (["probe", "--alpha", "n", "--lambda=nan+1j"],
     "argument --lambda: must be a finite complex number, got 'nan+1j'"),
    (["probe", "--alpha", "n", "--lambda=2", "--delta", "0"],
     "argument --delta: must be a positive finite number, got '0'"),
    (["grid", "--alpha", "n", "--res", "2", "--out", "g.csv", "--re=1:2:3"],
     "argument --re: must be LO:HI with two finite numbers, got '1:2:3'"),
    (["classify", "--alpha", "n", "--horizon", "1.5"],
     "argument --horizon: must be a positive integer, got '1.5'"),
    (["verify", "--suite", "eigen", "--N", "-1"],
     "argument --N: must be a non-negative integer, got '-1'"),
    (["verify", "--suite", "sandwich", "--seed", "-1"],
     "argument --seed: must be a non-negative integer, got '-1'"),
    (["ergodic", "--alpha", "n", "--N", "abc"],
     "argument --N: must be a positive integer, got 'abc'"),
])
def test_argument_errors_read_must_be_what_got_value(capsys, argv, message):
    assert run(argv) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.rstrip().endswith(message)


# the options each suite reads; it refuses the rest
SUITE_READS = {"factorizations": {"N"}, "eigen": {"N", "m"},
               "sandwich": {"samples", "seed"},
               "resolvent": {"N", "samples", "seed"},
               "ergodic": {"N", "seed"}, "finite": {"horizon"}}
# a nonzero value of each option, and where the report header records it
OPTION_VALUES = {"N": 12, "m": 3, "samples": 3, "seed": 2, "horizon": 5000}
RECORDED_AT = {"N": ("N",), "m": ("config", "options", "m"),
               "samples": ("config", "options", "samples"),
               "seed": ("config", "seed"), "horizon": ("horizon",)}


@pytest.mark.parametrize("option", sorted(OPTION_VALUES))
@pytest.mark.parametrize("suite", sorted(SUITE_READS))
def test_verify_option_is_read_or_refused(tmp_path, capsys, suite, option):
    out = tmp_path / "v.json"
    value = OPTION_VALUES[option]
    code = run(["verify", "--suite", suite, f"--{option}", str(value),
                "--output", str(out)])
    err = capsys.readouterr().err
    if option in SUITE_READS[suite]:
        assert code in (EXIT_OK, EXIT_FAIL) and err == ""
        doc = json.loads(out.read_text())
        for key in RECORDED_AT[option]:
            doc = doc[key]
        assert doc == value
    else:
        assert code == EXIT_FAIL
        assert err == (f"error: suite {suite!r} reads no --{option}, "
                       f"got {value}\n")
        assert not out.exists()


def test_verify_finite_scans_the_horizon_it_records(monkeypatch, tmp_path):
    scanned = []

    def spy(*args, _f=cli.ft_continuity_criterion, **kw):
        v = _f(*args, **kw)
        scanned.append(v.horizon)
        return v
    monkeypatch.setattr(cli, "ft_continuity_criterion", spy)
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "finite", "--horizon", "2000000",
                "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["horizon"] == 2000000
    # Ex5.2 at the recorded horizon, then Prop5.1 at its own 1e4
    assert scanned[0] == 2000000 and set(scanned[1:]) == {10 ** 4}


@pytest.mark.parametrize("horizon,code,status", [
    (None, EXIT_OK, "holds"), (10 ** 12, EXIT_FAIL, "inconclusive")])
def test_verify_finite_records_the_criterion_verdict(tmp_path, horizon, code,
                                                     status):
    # a failed Ex5.2 check says whether the criterion failed or could not
    # decide, and how far it scanned
    out = tmp_path / "v.json"
    given = [] if horizon is None else ["--horizon", str(horizon)]
    assert run(["verify", "--suite", "finite", *given,
                "--output", str(out)]) == code
    check = json.loads(out.read_text())["report"]["checks"][0]
    assert check["check"] == "Ex5.2/criterion_bounded"
    assert (check["passed"], check["status"], check["horizon"]) == (
        status == "holds", status, horizon or 10 ** 5)


@pytest.mark.parametrize("steps", [["--k", "3"], ["--l", "2"],
                                   ["--k", "0", "--l", "2"],
                                   ["--k", "1", "--l", "0"]])
def test_finite_k_and_l_go_together(tmp_path, capsys, steps):
    out = tmp_path / "f.json"
    assert run(["finite", "--weights", "finite:log_np1", *steps,
                "--output", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--k and --l go together" in err
    assert not out.exists()


def test_grid_probe_that_cannot_run_exits_1(tmp_path, capsys):
    # 65 alpha_1 overflows: the probes have no index to scan, as in probe
    table = tmp_path / "huge.csv"
    table.write_text("1,1e308\n2,1.5e308\n3,1.7e308\n")
    out = tmp_path / "g.csv"
    assert run(["grid", "--alpha", f"file:{table}", "--res", "6",
                "--probe-subsample", "3", "--out", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: empty scan: 65 * alpha_1")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_ergodic_reads_n(monkeypatch, tmp_path):
    seen = []
    for name in ("iterates_limit_check", "range_inverse_matrices"):
        def spy(*args, _f=getattr(cli, name), **kw):
            seen.append(kw.get("N", args[-1]))
            return _f(*args, **kw)
        monkeypatch.setattr(cli, name, spy)
    out = tmp_path / "v.json"
    assert run(["verify", "--suite", "ergodic", "--N", "64",
                "--output", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["N"] == 64 and doc["report"]["passed"]
    assert seen == [64, 64]


# file tables the loader must refuse: a row of one field, a repeated
# index, and a decrease from n = 1 to n = 2 (scans start at n = 2)
BAD_TABLES = {"short_row.csv": "1,1\n2\n3,3\n",
              "repeated.csv": "1,1\n2,2\n2,3\n",
              "drop.csv": "1,1\n2,0.5\n3,3\n"}


@pytest.mark.parametrize("table", sorted(BAD_TABLES))
@pytest.mark.parametrize("argv", [
    ["classify", "--horizon", "3"],
    ["ergodic", "--N", "3"],
    ["probe", "--lambda", "2", "--horizon", "3"],
])
def test_bad_alpha_table_rejected(tmp_path, capsys, table, argv):
    path = tmp_path / table
    path.write_text(BAD_TABLES[table])
    out = tmp_path / "r.json"
    assert run(argv + ["--alpha", f"file:{path}",
                       "--output", str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "Traceback" not in err
    assert not out.exists()


def test_ergodic_n_beyond_csv_rejected(tmp_path, capsys):
    csv = tmp_path / "alpha.csv"
    csv.write_text("".join(f"{n},{n * 2.0}\n" for n in range(1, 11)))
    out = tmp_path / "e.json"
    argv = ["ergodic", "--alpha", f"file:{csv}", "--output", str(out)]
    assert run(argv + ["--N", "50"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds the 10 values" in err
    assert "Traceback" not in err
    assert not out.exists()
    assert run(argv + ["--N", "10"]) == EXIT_OK


def test_verify_unknown_suite():
    assert run(["verify", "--suite", "nonsense"]) == EXIT_FAIL


def test_grid_outputs_and_embedded_header(tmp_path):
    csv = tmp_path / "g.csv"
    svg = tmp_path / "g.svg"
    code = run(["grid", "--alpha", "preset:n", "--res", "8",
                "--re=-0.5:1.5", "--im=-0.5:0.5",
                "--probe-subsample", "2", "--horizon", "1000",
                "--out", str(csv), "--svg", str(svg)])
    assert code == EXIT_OK
    lines = csv.read_text().split("\n")
    assert lines[0].startswith("# tool_version=")
    assert "config_hash=" in lines[0]
    assert lines[2] == "re,im,region_label,probe_status,probe_sup,l_found"
    assert len([l for l in lines if l and not l.startswith("#")]) == 65
    assert svg.read_text().splitlines()[0].startswith("<!--")


def test_grid_zero_resolution(tmp_path):
    code = run(["grid", "--alpha", "preset:n", "--res", "0",
                "--out", str(tmp_path / "g.csv")])
    assert code == EXIT_FAIL


def test_probe_command(tmp_path):
    out = tmp_path / "p.json"
    code = run(["probe", "--alpha", "preset:n", "--lambda", "0.4+0.2i",
                "--horizon", "5000", "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"] == "bounded"
    assert doc["report"]["l_found"] is not None


def test_probe_n_pow_n_stops_at_the_overflow_cap(tmp_path, capsys):
    # 65 alpha_n (step k + l_max) overflows double from n = 143 for n_pow_n,
    # so the probe scans n <= 142 and decides there, with a finite sup
    out = tmp_path / "p.json"
    assert run(["probe", "--alpha", "preset:n_pow_n", "--lambda", "2",
                "--horizon", "1000", "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert (report["verdict"], report["l_found"]) == ("bounded", 1)
    assert report["horizon"] == 142
    assert math.isfinite(report["sup_row_sum"])
    assert capsys.readouterr().err == ""


def test_probe_far_from_sigma0_gives_a_report(tmp_path, capsys):
    # |lambda|^2 overflows double, 1/|lambda|^2 underflows to 0: every
    # factor of the product is 1 up to 1/lambda, and the probe reports
    out = tmp_path / "p.json"
    assert run(["probe", "--alpha", "n", "--lambda=2e200", "--output",
                str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert (report["verdict"], report["l_found"]) == ("bounded", 1)
    assert capsys.readouterr().err == ""


def test_probe_where_1_over_mu_squared_overflows_exits_1(capsys):
    assert run(["probe", "--alpha", "n", "--lambda=-2e-170",
                "--delta=1e-170"]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: 1/|mu|^2 overflows at mu = (-2e-170+0j)\n")


def test_cap_leaving_no_index_exits_1(tmp_path, capsys):
    # 65 alpha_1 overflows at once: the probe has no index to scan
    table = tmp_path / "huge.csv"
    table.write_text("1,1e308\n2,1.5e308\n")
    assert run(["probe", "--alpha", f"file:{table}", "--lambda", "2"]) \
        == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error: empty scan") and "overflows" in err
    assert err.count("\n") == 1


def test_one_index_scan_grants_nothing(tmp_path):
    # horizon 2 leaves the probe one strict row (n = 2), horizon 1 leaves
    # the finite-type criterion one index: with an empty last decade
    # neither scan shows that its supremum stopped growing
    out = tmp_path / "r.json"
    assert run(["probe", "--alpha", "logloglog_n", "--lambda=0.4+0.2i",
                "--horizon", "2", "--output", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())["report"]
    assert report["verdict"] == "unbounded_evidence"
    assert report["l_found"] is None
    assert run(["finite", "--weights", "log_np1", "--horizon", "1",
                "--output", str(out)]) == EXIT_INCONCLUSIVE
    report = json.loads(out.read_text())["report"]
    assert report["verdict"] == "inconclusive"
    for step in report["per_step"].values():
        assert step["l_found"] is None
        assert step["verdict"]["status"] == "inconclusive"


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_classify_at_any_horizon_from_2(tmp_path, name):
    # the declared flags decide a preset without a scan, so neither the
    # predicates' first indices (n = 2, 3) nor int64 bound the horizon;
    # only the point-spectrum test and the probe scan, up to 1e4
    out = tmp_path / "r.json"
    assert run(["classify", "--alpha", name, "--output", str(out)]) \
        == EXIT_OK
    want = json.loads(out.read_text())["report"]
    flags = make_alpha(name).declared_flags
    assert want["sigma"] == ("Sigma" if flags["nuclear"] else "{0,1}uD(1)"
                             if flags["loglog_finite"] else "closure(D(1))")
    for horizon in ("2", str(10 ** 20)):
        assert run(["classify", "--alpha", name, "--horizon", horizon,
                    "--output", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())["report"]
        assert {key: report[key] for key in (
            "nuclear", "loglog_finite", "sigma_pt", "sigma", "sigma_star",
            "status")} == {key: want[key] for key in (
                "nuclear", "loglog_finite", "sigma_pt", "sigma",
                "sigma_star", "status")}


def test_grid_at_horizon_2_probes_one_index(tmp_path):
    # a probe at horizon 2 scans the one strict row n = 2, which shows no
    # bound (see test_one_index_scan_grants_nothing)
    out = tmp_path / "g.csv"
    assert run(["grid", "--alpha", "n", "--res", "4", "--horizon", "2",
                "--probe-subsample", "2", "--out", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines()
            if not line.startswith("#")][1:]
    probed = [row[3] for row in rows if row[3] != "skipped"]
    assert probed == ["unbounded_evidence"] * 2


@pytest.mark.parametrize("alpha,horizon", [("n", "1"), ("two_rows", "3")])
def test_classify_without_an_index_to_scan_exits_1(tmp_path, capsys, alpha,
                                                   horizon):
    # a preset's m = 2 eigenvector row starts at n = 2; an undeclared
    # table's loglog scan starts at n = 3
    if alpha == "two_rows":
        table = tmp_path / "two_rows.csv"
        table.write_text("1,1.0\n2,2.0\n")
        alpha = f"file:{table}"
    out = tmp_path / "r.json"
    assert run(["classify", "--alpha", alpha, "--horizon", horizon,
                "--output", str(out)]) == EXIT_FAIL
    assert capsys.readouterr().err == (
        "error: empty scan: the horizon leaves no index to scan\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["probe", "--lambda=2", "--output"],
    ["grid", "--res", "4", "--probe-subsample", "2", "--out"],
])
def test_failed_allocation_exits_1(monkeypatch, tmp_path, capsys, argv):
    # a horizon past memory fails in numpy's allocation; here a stand-in
    # probe raises that error, so the test allocates nothing
    def boom(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                          "shape (1000000000000,) and data type int64")
    monkeypatch.setattr(rsv, "equicontinuity_probe", boom)
    out = tmp_path / "r.out"
    assert run([*argv, str(out), "--alpha", "n", "--horizon",
                "1000"]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: Unable to "
                                                    "allocate 7.28 TiB")
    assert not out.exists()


def test_probe_l_max_zero_tries_only_k(tmp_path):
    # loglog_n needs l = 2 here, so l-max 0 (only l = k = 1) finds nothing
    reports = []
    for l_max in ("0", "1"):
        out = tmp_path / f"p{l_max}.json"
        assert run(["probe", "--alpha", "preset:loglog_n", "--lambda",
                    "0.3+0.5i", "--horizon", "5000", "--l-max", l_max,
                    "--output", str(out)]) == EXIT_OK
        reports.append(json.loads(out.read_text())["report"])
    assert reports[0]["verdict"] == "unbounded_evidence"
    assert reports[0]["l_found"] is None
    assert reports[1]["verdict"] == "bounded"
    assert reports[1]["l_found"] == 2


def test_ergodic_command(tmp_path):
    out = tmp_path / "e.json"
    trace = tmp_path / "trace.csv"
    code = run(["ergodic", "--alpha", "preset:n", "--N", "10",
                "--trace", str(trace), "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["status"] == "converged"
    lines = trace.read_text().splitlines()
    assert lines[0].startswith("# tool_version=")
    assert lines[1] == "m,distance"


def test_finite_command(tmp_path):
    out = tmp_path / "f.json"
    code = run(["finite", "--weights", "finite:log_np1", "--k", "1",
                "--l", "2", "--horizon", "100000", "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"]["status"] == "holds"

    code = run(["finite", "--weights", "finite:example53",
                "--output", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["report"]["verdict"] == "does_not_act"


def test_finite_bad_weights():
    assert run(["finite", "--weights", "finite:bogus"]) == EXIT_FAIL


def test_config_hash_stable_and_sensitive():
    a = RunConfig("classify", alpha_spec="preset:n", horizon=100)
    b = RunConfig("classify", alpha_spec="preset:n", horizon=100)
    c = RunConfig("classify", alpha_spec="preset:n", horizon=101)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


def test_rerun_byte_identical(tmp_path):
    pairs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        run(["classify", "--alpha", "preset:loglog_n", "--horizon", "20000",
             "--output", str(out)])
        pairs.append(out.read_bytes())
    assert pairs[0] == pairs[1]

    grids = []
    for i in range(2):
        csv = tmp_path / f"g{i}.csv"
        svg = tmp_path / f"g{i}.svg"
        run(["grid", "--alpha", "preset:n", "--res", "6",
             "--probe-subsample", "2", "--horizon", "500",
             "--out", str(csv), "--svg", str(svg)])
        grids.append(csv.read_bytes() + svg.read_bytes())
    assert grids[0] == grids[1]


# every argv, valid or not, ends in an exit code

_JUNK = st.sampled_from(["nan", "inf", "-inf", "-1", "0", "", "a:b", "1e999",
                         "1.5", "0x10", "2:1"])


def _count(lo, hi):
    return st.one_of(st.integers(lo, hi).map(str), _JUNK)


def _real(lo, hi):
    return st.one_of(st.floats(lo, hi).map(repr), _JUNK)


_RANGE = st.one_of(st.tuples(st.floats(-3, 3), st.floats(-3, 3)).map(
    lambda t: f"{t[0]!r}:{t[1]!r}"), _JUNK)
_LAMBDA = st.one_of(
    st.complex_numbers(max_magnitude=4, allow_nan=False,
                       allow_infinity=False).map(
        lambda z: f"{z.real!r}{z.imag:+}j"),
    st.sampled_from(["0", "0.5", "1", "0.4+0.2i", "nan+1j", "1+infj"]),
    _JUNK)


def _command_options(alpha_file):
    bad_tables = [f"file:{alpha_file.parent / t}" for t in sorted(BAD_TABLES)]
    alpha = st.sampled_from(["n", "preset:sqrt_n", "loglog_n", "logloglog_n",
                             "n_pow_n", "appendix_5_3", "log_n",
                             "log_n_plus_1", "preset:bogus", "file:",
                             f"file:{alpha_file}", ""] + bad_tables)
    horizon = ("--horizon", _count(1, 200))
    # (required flags, optional flags) per command
    return {
        "classify": ([("--alpha", alpha), horizon],
                     [("--no-probe", None)]),
        # a suite refuses an option it does not read, so each is optional
        "verify": ([("--suite", st.sampled_from(
            ["factorizations", "eigen", "sandwich", "resolvent", "ergodic",
             "finite", "nonsense"]))],
            [("--N", _count(0, 20)), ("--m", _count(1, 25)),
             ("--samples", _count(1, 8)), ("--seed", _count(0, 5)),
             horizon]),
        "grid": ([("--alpha", alpha), ("--res", _count(1, 5)), horizon],
                 [("--re", _RANGE), ("--im", _RANGE),
                  ("--probe-subsample", _count(0, 5)), ("--svg", "g.svg")]),
        "probe": ([("--alpha", alpha), ("--lambda", _LAMBDA), horizon],
                  [("--delta", _real(1e-3, 1.0)), ("--k", _count(1, 4)),
                   ("--samples", _count(1, 8)), ("--l-max", _count(0, 8))]),
        "ergodic": ([("--alpha", alpha)],
                    [("--N", _count(0, 20)), ("--k", _count(1, 4)),
                     ("--tol", _real(1e-12, 1.0)),
                     ("--m-cap", _count(1, 500)), ("--trace", "t.csv")]),
        "finite": ([("--weights", st.sampled_from(
            ["finite:log_np1", "log_np1", "finite:example53", "example53",
             "finite:bogus"])), horizon],
            [("--k", _count(0, 4)), ("--l", _count(0, 6))]),
    }


@st.composite
def _argvs(draw, out_dir, alpha_file):
    command = draw(st.sampled_from(["classify", "verify", "grid", "probe",
                                    "ergodic", "finite"]))
    required, optional = _command_options(alpha_file)[command]
    argv = [command]
    chosen = [o for o in optional if draw(st.booleans())]
    for flag, values in required + chosen:
        if values is None:
            argv.append(flag)
        elif isinstance(values, str):
            argv.append(f"{flag}={out_dir / values}")
        else:
            argv.append(f"{flag}={draw(values)}")
    out_flag = "--out" if command == "grid" else "--output"
    return argv + [f"{out_flag}={out_dir / 'r.out'}"]


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    (d / "alpha.csv").write_text("".join(f"{n},{n * 2.0}\n"
                                         for n in range(1, 11)))
    for table, text in BAD_TABLES.items():
        (d / table).write_text(text)
    return d


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_argv_ends_in_an_exit_code(cli_dir, data):
    argv = data.draw(_argvs(cli_dir, cli_dir / "alpha.csv"))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_INCONCLUSIVE)
    if code == EXIT_FAIL:
        assert err.getvalue().count("\n") <= 1
