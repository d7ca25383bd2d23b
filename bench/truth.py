"""Ground truth the benchmark checks cesarolab's outputs against.

Nothing here calls cesarolab: the flags follow from each preset's closed
form, the regimes from the three-regime table of the paper, and the
distance to Sigma0 = {0} u {1/n} is computed in closed form.
"""

from __future__ import annotations

import math

# Growth predicates of each preset, read off its closed form:
#   nuclear           log n / alpha_n bounded
#   loglog_finite     log log n / alpha_n bounded
#   shift_stable      alpha_{n+1} / alpha_n bounded
#   delta_continuous  n / alpha_n bounded
FLAGS = {
    "n": dict(nuclear=True, loglog_finite=True, shift_stable=True,
              delta_continuous=True),
    "log_n_plus_1": dict(nuclear=True, loglog_finite=True,
                         shift_stable=True, delta_continuous=False),
    "log_n": dict(nuclear=True, loglog_finite=True, shift_stable=True,
                  delta_continuous=False),
    "sqrt_n": dict(nuclear=True, loglog_finite=True, shift_stable=True,
                   delta_continuous=False),
    "n_pow_n": dict(nuclear=True, loglog_finite=True, shift_stable=False,
                    delta_continuous=True),
    "loglog_n": dict(nuclear=False, loglog_finite=True, shift_stable=True,
                     delta_continuous=False),
    "logloglog_n": dict(nuclear=False, loglog_finite=False,
                        shift_stable=True, delta_continuous=False),
    "appendix_5_3": dict(nuclear=True, loglog_finite=True,
                         shift_stable=False, delta_continuous=False),
}
PRESETS = tuple(FLAGS)

GRID_MARGIN = 1e-3  # README: points within 1e-3 of {0} u {1/n} are excluded


def regime(preset):
    """(sigma_pt, sigma, sigma_star) of the three-regime table."""
    f = FLAGS[preset]
    if f["nuclear"]:
        return ("Sigma", "Sigma", "Sigma0")
    if f["loglog_finite"]:
        return ("{1}", "{0,1}uD(1)", "closure(D(1))")
    return ("{1}", "closure(D(1))", "closure(D(1))")


def dist_sigma0(z):
    """Exact distance from z to {0} u {1/n : n >= 1}.

    The nearest reciprocal to z is the one nearest to Re z, and the two
    reciprocals 1/floor(1/Re z) and 1/ceil(1/Re z) bracket Re z; for
    Re z <= 0 the infimum over n is attained at the point 0.
    """
    z = complex(z)
    d = min(abs(z), abs(z - 1.0))
    if z.real > 1e-300:
        x = 1.0 / z.real
        if x < 1e300:
            for n in (math.floor(x), math.ceil(x)):
                if n >= 1:
                    d = min(d, abs(z - 1.0 / n))
    return d


def grid_label(z, preset, margin=GRID_MARGIN):
    """Region label of a portrait point: excluded, spectrum or resolvent."""
    if dist_sigma0(z) <= margin:
        return "excluded"
    sigma = regime(preset)[1]
    if sigma == "Sigma":
        # {1/n}: every point within the margin of it is already excluded
        inside = False
    elif sigma == "{0,1}uD(1)":
        inside = (abs(z - 0.5) < 0.5 - margin or abs(z) <= margin
                  or abs(z - 1.0) <= margin)
    else:
        inside = abs(z - 0.5) <= 0.5 + margin
    return "spectrum" if inside else "resolvent"


def step_continuous(op, preset):
    """Is op continuous c0(v_k) -> c0(v_l) for l > k on this preset?

    With v_k(n) = e^(-k alpha_n): the averaging map and the right shift
    always are; the inverse averaging map needs nuclearity, the
    differentiation map nuclearity and shift stability, and the
    signed-binomial involution the delta criterion.
    """
    f = FLAGS[preset]
    return {"cesaro": True,
            "shift": True,
            "cesaro_inverse": f["nuclear"],
            "diff": f["nuclear"] and f["shift_stable"],
            "delta": f["delta_continuous"]}[op]


def step_contradiction(op, preset, status):
    """A scanned step verdict that contradicts step_continuous, or None."""
    expected = step_continuous(op, preset)
    if status == "holds" and not expected:
        return f"{op} on {preset}: 'holds' but the map is not continuous"
    if status == "fails" and expected:
        return f"{op} on {preset}: 'fails' but the map is continuous"
    return None


def finite_contradiction(kind, status):
    """A finite-type verdict on alpha_n = log(n+1) contradicting the paper.

    Averaging acts on that dual (the criterion is bounded for every
    l > k), although the space is not nuclear.
    """
    if kind == "acts" and status == "does_not_act":
        return "log_np1: 'does_not_act' but averaging acts"
    if kind == "criterion" and status == "fails":
        return "log_np1: criterion 'fails' but it is bounded for l > k"
    return None
