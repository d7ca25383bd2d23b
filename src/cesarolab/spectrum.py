"""Symbolic spectrum classification with numeric corroboration.

The point spectrum, spectrum and equicontinuity-spectrum of the
averaging operator on the weighted inductive limits fall into exactly
three regimes, decided by two growth predicates on alpha: nuclearity
(log n / alpha_n bounded) and the log-log dichotomy.  Region descriptors
come from a closed vocabulary; probe numerics only corroborate, since no
finite scan can certify membership of a single point in the spectrum.
The portrait ``sample_grid`` stays a ``Grid`` of columns (coordinates,
labels, probed points only) up to its CSV and SVG writers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import resolvent as rsv
from .operators import delta_log_abs
from .weights import (AlphaSequence, GrowthVerdict, WeightFamily,
                      check_loglog, check_nuclear, scan_horizon, scan_verdict)

__all__ = [
    "SpectralReport",
    "REGIONS",
    "region_contains",
    "point_spectrum_test",
    "classify_spectrum",
    "sample_grid",
    "Grid",
]

REGIONS = ("Sigma", "Sigma0", "{1}", "{0,1}uD(1)", "closure(D(1))",
           "unknown")
REGION_TOL = 1e-9
GRID_MARGIN = 1e-3       # grid points this close to Sigma0 are excluded
GRID_PROBE_DELTA = 0.01  # disc radius of the probe at a grid point
SVG_CELL = 4             # pixels per grid point
POINT_K_MAX = 64


def _region_mask(region, z, d, tol):
    """Elementwise membership of the points z in a region descriptor,
    given their distances d to Sigma0."""
    x, y = np.real(z), np.imag(z)
    near_zero = np.hypot(x, y) <= tol
    near_one = np.hypot(x - 1.0, y) <= tol
    disc_dist = np.hypot(x - 0.5, y)
    if region == "Sigma":
        return (d <= tol) & ~near_zero
    if region == "Sigma0":
        return d <= tol             # d <= |z|, so this covers near_zero
    if region == "{1}":
        return near_one
    if region == "{0,1}uD(1)":
        return (disc_dist < 0.5 - tol) | near_zero | near_one
    if region == "closure(D(1))":
        return disc_dist <= 0.5 + tol
    if region == "unknown":
        return np.zeros(np.shape(z), dtype=bool)
    raise ValueError(f"unknown region descriptor {region!r}")


def region_contains(region, z, tol=REGION_TOL):
    """Membership of z in a symbolic region descriptor.

    The scalar call of the array predicate that labels sample_grid.
    """
    z = complex(z)
    return bool(_region_mask(region, z, rsv.dist_sigma0(z), tol))


@dataclass
class SpectralReport:
    alpha: str
    nuclear: object          # True / False / None
    loglog_finite: object
    sigma_pt: str
    sigma: str
    sigma_star: str
    status: str              # "classified" | "inconclusive"
    evidence: list = field(default_factory=list)


def point_spectrum_test(m, W: WeightFamily, horizon=10 ** 4,
                        k_max=POINT_K_MAX):
    """Does the eigenvector of eigenvalue 1/m live in the space?

    The m-th eigenvector row grows like n^{m-1}; membership means some
    step k tames it: sup_n |row_n| v_k(n) finite.  m = 1 is the constant
    vector and always holds.  A scan returns the first ``holds`` over
    k = 1..k_max, else the verdict at k_max, the row with the least sup.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    horizon = scan_horizon(W.alpha, horizon, step=k_max)
    if m == 1:
        return GrowthVerdict("holds", horizon, 1.0, 1, False)
    ns = np.arange(m, horizon + 1)
    log_row = delta_log_abs(ns, m)
    alpha_ns = W.alpha.values(ns)
    # membership of the m-th eigenvector (m >= 2) is equivalent to
    # nuclearity, and the row grows too slowly for a finite scan to
    # expose divergence (it sets in beyond n = e^k); a declared
    # nuclearity flag therefore decides the verdict outright, at k = 1
    declared = W.alpha.flag("nuclear")
    for k in range(1, k_max + 1):
        v = scan_verdict(log_row + W.step_log_weights(k, alpha_ns), ns,
                         declared)
        if v.status == "holds" or v.declared_override:
            break
    return v


def _trit(verdict: GrowthVerdict):
    if verdict.status == "holds":
        return True
    if verdict.status == "fails":
        return False
    return None


def classify_spectrum(alpha: AlphaSequence, horizon=10 ** 5, with_probe=True):
    """Full symbolic classification driven by the two predicates.

    nuclear            -> (Sigma, Sigma, Sigma0)
    else, loglog finite -> ({1}, {0,1} u D(1), closure(D(1)))
    else                -> ({1}, closure(D(1)), closure(D(1)))
    Unresolvable predicates propagate to "unknown" descriptors with
    status inconclusive.
    """
    W = WeightFamily(alpha)
    nuc = _trit(check_nuclear(alpha, horizon))
    llog = _trit(check_loglog(alpha, min(horizon, 10 ** 5)))
    evidence = []

    if nuc is True:
        sigma_pt, sigma, sigma_star = "Sigma", "Sigma", "Sigma0"
        status = "classified"
    elif nuc is False and llog is True:
        sigma_pt, sigma, sigma_star = "{1}", "{0,1}uD(1)", "closure(D(1))"
        status = "classified"
    elif nuc is False and llog is False:
        sigma_pt, sigma, sigma_star = "{1}", "closure(D(1))", "closure(D(1))"
        status = "classified"
    else:
        sigma_pt = sigma = sigma_star = "unknown"
        status = "inconclusive"

    if status == "classified":
        pt_h = min(horizon, 10 ** 4)
        for m in (1, 2):
            v = point_spectrum_test(m, W, horizon=pt_h)
            evidence.append({"kind": "point_spectrum", "m": m,
                             "status": v.status, "sup": v.sup_value})
        if with_probe:
            for mu in (2.0 + 0.0j, -1.0 + 0.0j):
                probe = rsv.equicontinuity_probe(
                    mu, 0.05, W, k=1, horizon=min(horizon, 10 ** 4),
                    samples=4)
                evidence.append({"kind": "probe", "mu": [mu.real, mu.imag],
                                 "verdict": probe["verdict"],
                                 "l_found": probe["l_found"]})
    return SpectralReport(alpha.name, nuc, llog, sigma_pt, sigma,
                          sigma_star, status, evidence)


@dataclass
class Grid:
    """A portrait in columns: ``labels[i, j]`` of the point re[j] + i im[i],
    and the equicontinuity_probe report of each probed point, keyed by its
    row-major number i * len(re) + j (none where the disc reaches Sigma0)."""
    re: np.ndarray
    im: np.ndarray
    labels: np.ndarray       # "spectrum" | "resolvent" | "excluded"
    probes: dict


def sample_grid(alpha: AlphaSequence, re_range, im_range, resolution,
                horizon=10 ** 4, probe_subsample=0):
    """Labels over a rectangle of the complex plane, as a Grid.

    Points within GRID_MARGIN of {0} u {1/n} are excluded; the remaining
    points are labeled by the symbolic sigma descriptor, and a
    deterministic subsample of them is probed (disc radius GRID_PROBE_DELTA).
    """
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
    probes = {}
    if probe_subsample > 0 and usable_idx.size:
        W = WeightFamily(alpha)
        step = max(usable_idx.size // probe_subsample, 1)
        for idx in usable_idx[::step][:probe_subsample].tolist():
            try:
                probes[idx] = rsv.equicontinuity_probe(
                    complex(z.flat[idx]), GRID_PROBE_DELTA, W, k=1,
                    horizon=horizon, samples=4)
            except ValueError:
                pass
    return report, Grid(res, ims, labels, probes)


def _probed_rows(grid):
    """{row i: {column j: probe report}} over the probed points."""
    rows = {}
    for idx, probe in grid.probes.items():
        i, j = divmod(idx, len(grid.re))
        rows.setdefault(i, {})[j] = probe
    return rows


def grid_to_csv(grid, fh):
    """One CSV row per point, row-major; each coordinate formatted once."""
    fh.write("re,im,region_label,probe_status,probe_sup,l_found\n")
    res = [f"{x:.17g}" for x in grid.re.tolist()]
    probed = _probed_rows(grid)
    for i, (y, row) in enumerate(zip(grid.im.tolist(), grid.labels.tolist())):
        y = f"{y:.17g}"
        cells = [f"{x},{y},{label},skipped,,\n" for x, label in zip(res, row)]
        for j, probe in probed.get(i, {}).items():
            sup, lf = probe["sup_row_sum"], probe["l_found"]
            sup = "" if math.isnan(sup) else f"{sup:.17g}"
            lf = "" if lf is None else str(lf)
            cells[j] = f"{res[j]},{y},{row[j]},{probe['verdict']},{sup},{lf}\n"
        fh.write("".join(cells))


_PALETTE = {
    ("spectrum", False): "#7a1f1f",
    ("spectrum", True): "#c23b3b",
    ("resolvent", False): "#1f4f7a",
    ("resolvent", True): "#3b8ac2",
    ("excluded", False): "#cccccc",
    ("excluded", True): "#cccccc",
}


def grid_to_svg(grid, fh):
    """Deterministic SVG heatmap, one cell per grid point."""
    resolution = len(grid.re)
    size = resolution * SVG_CELL
    fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size}" height="{size}">\n')
    xs = [f'<rect x="{j * SVG_CELL}" ' for j in range(resolution)]
    probed = _probed_rows(grid)
    for i, row in enumerate(grid.labels.tolist()):
        y = (f'y="{(resolution - 1 - i) * SVG_CELL}" '
             f'width="{SVG_CELL}" height="{SVG_CELL}" fill="')
        on = probed.get(i, {})
        fh.write("".join(f'{xs[j]}{y}{_PALETTE[(label, j in on)]}"/>\n'
                         for j, label in enumerate(row)))
    fh.write("</svg>\n")
