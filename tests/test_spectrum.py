import io
import math
from dataclasses import asdict, dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cesarolab import resolvent as rsv
from cesarolab import spectrum
from cesarolab.resolvent import dist_sigma0
from cesarolab.spectrum import (GRID_MARGIN, GRID_PROBE_DELTA, REGIONS,
                                SVG_CELL, SpectralReport, _PALETTE,
                                _region_mask, classify_spectrum, grid_to_csv,
                                grid_to_svg, point_spectrum_test,
                                region_contains, sample_grid)
from cesarolab.weights import (PRESET_NAMES, WeightFamily, make_alpha,
                               make_alpha_from_csv)


def test_region_membership_basics():
    assert region_contains("Sigma", 0.5)
    assert region_contains("Sigma", 1.0 / 17.0)
    assert not region_contains("Sigma", 0.3)
    assert not region_contains("Sigma", 0.0)
    assert region_contains("Sigma0", 0.0)
    assert region_contains("{1}", 1.0)
    assert not region_contains("{1}", 0.5)
    assert region_contains("{0,1}uD(1)", 0.5 + 0.1j)
    assert region_contains("{0,1}uD(1)", 0.0)
    assert not region_contains("{0,1}uD(1)", 0.5 + 0.51j)
    assert region_contains("closure(D(1))", 0.5 + 0.5j)
    assert not region_contains("closure(D(1))", 1.2)
    assert not region_contains("unknown", 0.5)


def test_region_sigma_contains_reciprocals_beyond_1e4():
    assert region_contains("Sigma", 1.0 / 20000)
    assert region_contains("Sigma0", 1.0 / 20000)
    assert not region_contains("Sigma", 1.0 / 20000 + 2e-4j, tol=1e-4)


def test_region_unknown_descriptor_rejected():
    with pytest.raises(ValueError):
        region_contains("Spectrum", 0.5)


@given(st.floats(-2, 2), st.floats(-2, 2))
@settings(max_examples=150, deadline=None)
def test_region_nesting_chain(x, y):
    # Sigma <= Sigma0 and {1} <= {0,1}uD(1) <= closure(D(1))
    z = complex(x, y)
    if region_contains("Sigma", z):
        assert region_contains("Sigma0", z)
    if region_contains("{1}", z):
        assert region_contains("{0,1}uD(1)", z)
    if region_contains("{0,1}uD(1)", z):
        assert region_contains("closure(D(1))", z)


def test_point_spectrum_linear_alpha():
    alpha = make_alpha("n")
    W = WeightFamily(alpha)
    assert point_spectrum_test(1, W).status == "holds"
    assert point_spectrum_test(2, W).status == "holds"
    assert point_spectrum_test(5, W).status == "holds"


def test_point_spectrum_slow_alpha_fails():
    alpha = make_alpha("loglog_n")
    W = WeightFamily(alpha)
    assert point_spectrum_test(1, W).status == "holds"
    assert point_spectrum_test(2, W, horizon=10 ** 4,
                               k_max=16).status == "fails"


def test_point_spectrum_rejects_bad_m():
    alpha = make_alpha("n")
    with pytest.raises(ValueError):
        point_spectrum_test(0, WeightFamily(alpha))


def test_point_spectrum_rejects_empty_step_search():
    with pytest.raises(ValueError, match="k_max"):
        point_spectrum_test(2, WeightFamily(make_alpha("n")), k_max=0)


def test_point_spectrum_scan_without_growth_is_inconclusive():
    # flags stripped: at k_max 2 the loglog_n row peaks at 117.9 < 1e3,
    # which shows no divergence, so the scan may not say fails
    alpha = make_alpha("loglog_n")
    alpha.declared_flags["nuclear"] = None
    v = point_spectrum_test(2, WeightFamily(alpha), horizon=10 ** 4,
                            k_max=2)
    assert v.status == "inconclusive"
    assert v.sup_value == pytest.approx(117.87052240056947, rel=1e-12)
    assert (v.witness_index, v.declared_override) == (10 ** 4, False)


def test_point_spectrum_scan_never_grants_holds():
    # flags stripped: loglog_n is not nuclear, yet from k = 6 on its row
    # peaks early and stays under 1e3 up to 1e4 (a search over k used to
    # return holds there, sup 0.0204 at n = 24); one scan at the default
    # k_max is no evidence either way
    alpha = make_alpha("loglog_n")
    alpha.declared_flags["nuclear"] = None
    v = point_spectrum_test(2, WeightFamily(alpha))
    assert (v.status, v.horizon, v.declared_override) == (
        "inconclusive", 10 ** 4, False)
    assert v.sup_value < 1.0


def test_classify_three_regimes():
    r = classify_spectrum(make_alpha("n"), with_probe=False)
    assert (r.sigma_pt, r.sigma, r.sigma_star) == ("Sigma", "Sigma", "Sigma0")
    assert r.status == "classified"

    r = classify_spectrum(make_alpha("loglog_n"), with_probe=False)
    assert (r.sigma_pt, r.sigma, r.sigma_star) == (
        "{1}", "{0,1}uD(1)", "closure(D(1))")

    r = classify_spectrum(make_alpha("logloglog_n"), with_probe=False)
    assert (r.sigma_pt, r.sigma, r.sigma_star) == (
        "{1}", "closure(D(1))", "closure(D(1))")


def test_classify_inconclusive_without_flags():
    from cesarolab.weights import AlphaSequence
    alpha = AlphaSequence("short", value_fn=lambda n: float(n) ** 1.5,
                          max_index=50)
    r = classify_spectrum(alpha, horizon=50)
    assert r.status == "inconclusive"
    assert r.sigma == "unknown"


def test_classify_scans_only_undeclared_flags(monkeypatch, tmp_path):
    # a declared flag decides its predicate without a scan; an undeclared
    # one is scanned once, by the function bound in spectrum at call time
    calls = []
    for name in ("check_nuclear", "check_loglog"):
        def counting(alpha, horizon, _check=getattr(spectrum, name),
                     _name=name):
            calls.append(_name)
            return _check(alpha, horizon)
        monkeypatch.setattr(spectrum, name, counting)
    for name in PRESET_NAMES:
        classify_spectrum(make_alpha(name), horizon=10 ** 5)
    assert calls == []
    path = tmp_path / "pow.csv"
    path.write_text("".join(f"{n},{n ** 0.75!r}\n" for n in range(1, 501)))
    table = make_alpha_from_csv(str(path))
    report = classify_spectrum(table, horizon=10 ** 5)
    assert sorted(calls) == ["check_loglog", "check_nuclear"]
    assert report == SpectralReport(table.name, None, None, "unknown",
                                    "unknown", "unknown", "inconclusive")
    monkeypatch.undo()
    assert classify_spectrum(table, horizon=10 ** 5) == report


def test_declared_nuclear_decides_whatever_loglog_says():
    # nuclear alone picks the first regime, even against a declared
    # loglog_finite = False, which the report still carries
    alpha = make_alpha(lambda n: float(n), name="declared",
                       declared_flags=dict(nuclear=True,
                                           loglog_finite=False))
    r = classify_spectrum(alpha, horizon=10 ** 3, with_probe=False)
    assert (r.nuclear, r.loglog_finite, r.status) == (True, False,
                                                      "classified")
    assert (r.sigma_pt, r.sigma, r.sigma_star) == ("Sigma", "Sigma", "Sigma0")


def test_classify_report_dict_shape():
    r = classify_spectrum(make_alpha("n"), with_probe=True,
                          horizon=10 ** 4)
    d = asdict(r)
    assert set(d) == {"alpha", "nuclear", "loglog_finite", "sigma_pt",
                      "sigma", "sigma_star", "status", "evidence"}
    kinds = {e["kind"] for e in d["evidence"]}
    assert kinds == {"point_spectrum", "probe"}


@pytest.mark.parametrize("name", ["n", "log_n", "sqrt_n", "loglog_n",
                                  "logloglog_n"])
def test_classified_regions_nest_per_preset(name):
    r = classify_spectrum(make_alpha(name), with_probe=False)
    assert r.status == "classified"
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = complex(rng.uniform(-1.5, 2.0), rng.uniform(-1.5, 1.5))
        if region_contains(r.sigma_pt, z, tol=1e-6):
            assert region_contains(r.sigma, z, tol=1e-6)
        if region_contains(r.sigma, z, tol=1e-6):
            assert region_contains(r.sigma_star, z, tol=1e-6)


def test_sample_grid_labels_and_probe():
    alpha = make_alpha("n")
    report, grid = sample_grid(alpha, (-0.5, 1.5), (-0.5, 0.5), 11,
                               horizon=2000, probe_subsample=3)
    assert grid.labels.size == 121
    labels = set(grid.labels.ravel().tolist())
    assert labels <= {"spectrum", "resolvent", "excluded"}
    assert len(grid.probes) >= 1
    # the eigenvalue 1/2 cell is excluded or labeled spectrum
    z = grid.re[None, :] + 1j * grid.im[:, None]
    near = np.unravel_index(np.argmin(np.abs(z - 0.5)), z.shape)
    assert grid.labels[near] in ("spectrum", "excluded")


def test_sample_grid_rejects_bad_resolution():
    alpha = make_alpha("n")
    with pytest.raises(ValueError):
        sample_grid(alpha, (0, 1), (0, 1), 0)


def test_grid_csv_and_svg_deterministic(tmp_path):
    alpha = make_alpha("n")
    outs = []
    for _ in range(2):
        _, grid = sample_grid(alpha, (-0.5, 1.5), (-0.5, 0.5), 6,
                              horizon=500, probe_subsample=2)
        buf_csv, buf_svg = io.StringIO(), io.StringIO()
        grid_to_csv(grid, buf_csv)
        grid_to_svg(grid, buf_svg)
        outs.append((buf_csv.getvalue(), buf_svg.getvalue()))
    assert outs[0] == outs[1]
    assert outs[0][0].startswith("re,im,region_label")
    assert outs[0][1].startswith("<svg")


# a res-30 grid with 0, 1/2 and 1 among its points, and two windows of
# margin scale around 0 and 1 where the margin and disc boundaries cut
GRID_WINDOWS = [((-0.2, 1.25), (-0.7, 0.75)),
                ((-0.0015, 0.0015), (-0.0015, 0.0015)),
                ((0.9985, 1.0015), (-0.0015, 0.0015))]


@pytest.mark.parametrize("window", GRID_WINDOWS)
@pytest.mark.parametrize("region", REGIONS)
def test_grid_labels_match_scalar_path(region, window, monkeypatch):
    # under every region descriptor, the array labels of sample_grid
    # must be what dist_sigma0 and region_contains give for each point
    alpha = make_alpha("n")
    monkeypatch.setattr(
        spectrum, "classify_spectrum",
        lambda *a, **kw: SpectralReport("n", None, None, region, region,
                                        region, "classified"))
    _, grid = sample_grid(alpha, *window, 30, horizon=100)
    labels = set()
    for (i, j), label in np.ndenumerate(grid.labels):
        z = complex(grid.re[j], grid.im[i])
        if dist_sigma0(z) <= GRID_MARGIN:
            want = "excluded"
        elif region_contains(region, z, tol=GRID_MARGIN):
            want = "spectrum"
        else:
            want = "resolvent"
        assert label == want, z
        labels.add(want)
    assert "excluded" in labels and len(labels) > 1


# The per-point grid path that the columnar Grid replaced, kept verbatim
# as the reference its CSV and SVG text must reproduce.

@dataclass
class GridPoint:
    re: float
    im: float
    region_label: str        # "spectrum" | "resolvent" | "excluded"
    probe_status: str        # "bounded" | "unbounded_evidence" | "skipped"
    probe_sup: float
    l_found: object


def reference_sample_grid(alpha, re_range, im_range, resolution,
                          horizon=10 ** 4, probe_subsample=0):
    W = WeightFamily(alpha)
    if resolution < 1 or resolution ** 2 > 10 ** 6:
        raise ValueError("resolution out of range")
    report = classify_spectrum(alpha, horizon=horizon, with_probe=False)
    res = np.linspace(re_range[0], re_range[1], resolution)
    ims = np.linspace(im_range[0], im_range[1], resolution)
    z = np.empty((resolution, resolution), dtype=complex)   # z[i, j]
    z.real = res[None, :]
    z.imag = ims[:, None]
    d = rsv.dist_sigma0(z)
    usable = d > GRID_MARGIN
    labels = np.where(_region_mask(report.sigma, z, d, GRID_MARGIN),
                      "spectrum", "resolvent")
    labels[~usable] = "excluded"
    usable_idx = np.flatnonzero(usable)      # row-major, like the CSV
    probe_idx = set()
    if probe_subsample > 0 and usable_idx.size:
        step = max(usable_idx.size // probe_subsample, 1)
        probe_idx = set(usable_idx[::step][:probe_subsample].tolist())
    points = []
    res, ims = res.tolist(), ims.tolist()
    for idx, label in enumerate(labels.ravel().tolist()):
        i, j = divmod(idx, resolution)
        point = GridPoint(res[j], ims[i], label, "skipped", math.nan, None)
        if idx in probe_idx:
            try:
                probe = rsv.equicontinuity_probe(
                    complex(res[j], ims[i]), GRID_PROBE_DELTA, W, k=1,
                    horizon=horizon, samples=4)
                point.probe_status = probe["verdict"]
                point.probe_sup = probe["sup_row_sum"]
                point.l_found = probe["l_found"]
            except ValueError:
                pass
        points.append(point)
    return report, points


def reference_grid_to_csv(points, fh):
    fh.write("re,im,region_label,probe_status,probe_sup,l_found\n")
    for p in points:
        sup = "" if math.isnan(p.probe_sup) else f"{p.probe_sup:.17g}"
        lf = "" if p.l_found is None else str(p.l_found)
        fh.write(f"{p.re:.17g},{p.im:.17g},{p.region_label},"
                 f"{p.probe_status},{sup},{lf}\n")


def reference_grid_to_svg(points, resolution, fh):
    size = resolution * SVG_CELL
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size}" height="{size}">\n')
    for idx, p in enumerate(points):
        i, j = divmod(idx, resolution)
        probed = p.probe_status != "skipped"
        color = _PALETTE[(p.region_label, probed)]
        fh.write(f'<rect x="{j * SVG_CELL}" '
                 f'y="{(resolution - 1 - i) * SVG_CELL}" '
                 f'width="{SVG_CELL}" height="{SVG_CELL}" fill="{color}"/>\n')
    fh.write("</svg>\n")


_GRID_ALPHAS = {p: make_alpha(p)
                for p in ("n", "loglog_n", "logloglog_n", "n_pow_n")}
_side = st.tuples(st.floats(-1.5, 2.0), st.floats(1e-3, 2.5)).map(
    lambda s: (s[0], s[0] + s[1]))


# n_pow_n: its probes stop where 65 alpha_n overflows (n = 142) and
# decide there, with finite sups; the second example puts every point at 1e-3 < d <= 0.01 from 1/2, where the grid
# keeps the point but its probe disc touches Sigma0, so the probe is
# skipped
@example("n_pow_n", (-0.9, 1.8), (-1.2, 1.1), 5, 6)
@example("n", (0.495, 0.505), (0.003, 0.008), 2, 4)
@given(st.sampled_from(sorted(_GRID_ALPHAS)), _side, _side,
       st.integers(1, 12), st.integers(0, 6))
@settings(max_examples=25, deadline=None)
def test_columnar_grid_text_matches_reference(name, re_range, im_range,
                                              res, probe_subsample):
    args = (_GRID_ALPHAS[name], re_range, im_range, res, 200,
            probe_subsample)
    report, grid = sample_grid(*args)
    ref_report, points = reference_sample_grid(*args)
    assert report == ref_report
    got, want = io.StringIO(), io.StringIO()
    grid_to_csv(grid, got)
    reference_grid_to_csv(points, want)
    assert got.getvalue() == want.getvalue()
    got, want = io.StringIO(), io.StringIO()
    grid_to_svg(grid, got)
    reference_grid_to_svg(points, res, want)
    assert got.getvalue() == want.getvalue()
