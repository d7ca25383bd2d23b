import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesarolab import spectrum
from cesarolab.resolvent import dist_sigma0
from cesarolab.spectrum import (GRID_MARGIN, GridPoint, REGIONS,
                                SpectralReport, classify_spectrum,
                                grid_to_csv, grid_to_svg, point_spectrum_test,
                                region_contains, sample_grid)
from cesarolab.weights import WeightFamily, make_alpha


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
    assert point_spectrum_test(1, alpha, W).status == "holds"
    assert point_spectrum_test(2, alpha, W).status == "holds"
    assert point_spectrum_test(5, alpha, W).status == "holds"


def test_point_spectrum_slow_alpha_fails():
    alpha = make_alpha("loglog_n")
    W = WeightFamily(alpha)
    assert point_spectrum_test(1, alpha, W).status == "holds"
    assert point_spectrum_test(2, alpha, W, horizon=10 ** 4,
                               k_max=16).status == "fails"


def test_point_spectrum_rejects_bad_m():
    alpha = make_alpha("n")
    with pytest.raises(ValueError):
        point_spectrum_test(0, alpha, WeightFamily(alpha))


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


def test_classify_report_dict_shape():
    r = classify_spectrum(make_alpha("n"), with_probe=True,
                          horizon=10 ** 4)
    d = r.as_dict()
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
    W = WeightFamily(alpha)
    report, points = sample_grid(alpha, W, (-0.5, 1.5), (-0.5, 0.5), 11,
                                 horizon=2000, probe_subsample=3)
    assert len(points) == 121
    labels = {p.region_label for p in points}
    assert labels <= {"spectrum", "resolvent", "excluded"}
    assert sum(p.probe_status != "skipped" for p in points) >= 1
    # the eigenvalue 1/2 cell is excluded or labeled spectrum
    near = min(points, key=lambda p: abs(complex(p.re, p.im) - 0.5))
    assert near.region_label in ("spectrum", "excluded")


def test_sample_grid_rejects_bad_resolution():
    alpha = make_alpha("n")
    with pytest.raises(ValueError):
        sample_grid(alpha, WeightFamily(alpha), (0, 1), (0, 1), 0)


def test_grid_csv_and_svg_deterministic(tmp_path):
    import io
    alpha = make_alpha("n")
    W = WeightFamily(alpha)
    outs = []
    for _ in range(2):
        _, points = sample_grid(alpha, W, (-0.5, 1.5), (-0.5, 0.5), 6,
                                horizon=500, probe_subsample=2)
        buf_csv, buf_svg = io.StringIO(), io.StringIO()
        grid_to_csv(points, buf_csv)
        grid_to_svg(points, 6, buf_svg)
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
    _, points = sample_grid(alpha, WeightFamily(alpha), *window, 30,
                            horizon=100)
    labels = set()
    for p in points:
        z = complex(p.re, p.im)
        if dist_sigma0(z) <= GRID_MARGIN:
            want = "excluded"
        elif region_contains(region, z, tol=GRID_MARGIN):
            want = "spectrum"
        else:
            want = "resolvent"
        assert p.region_label == want, z
        labels.add(want)
    assert "excluded" in labels and len(labels) > 1
