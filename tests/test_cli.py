import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import cli
from cesarolab.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_OK, RunConfig,
                           main)


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
])
def test_invalid_count_or_lambda_rejected(tmp_path, capsys, argv):
    out = tmp_path / "r.json"
    flag = "--out" if argv[0] == "grid" else "--output"
    assert run(argv + [flag, str(out)]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err
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
    alpha = st.sampled_from(["n", "preset:sqrt_n", "loglog_n", "logloglog_n",
                             "n_pow_n", "appendix_5_3", "log_n",
                             "log_n_plus_1", "preset:bogus", "file:",
                             f"file:{alpha_file}", ""])
    horizon = ("--horizon", _count(1, 200))
    # (required flags, optional flags) per command
    return {
        "classify": ([("--alpha", alpha), horizon],
                     [("--no-probe", None)]),
        "verify": ([("--suite", st.sampled_from(
            ["factorizations", "eigen", "sandwich", "resolvent", "ergodic",
             "finite", "nonsense"])), horizon],
            [("--N", _count(0, 20)), ("--m", _count(1, 25)),
             ("--samples", _count(1, 8)), ("--seed", _count(0, 5))]),
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
