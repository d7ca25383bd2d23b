"""Numerical laboratory for the averaging operator on weighted
inductive limits of sequence spaces: exact triangular algebra, resolvent
sandwich bounds, spectrum classification, ergodic iteration and the
finite-type continuity criteria."""

__version__ = "0.1.0"

from .weights import (AlphaSequence, GrowthVerdict, PRESET_NAMES,
                      WeightFamily, check_delta_criterion, check_lemma22,
                      check_loglog, check_nuclear, check_shift_stable,
                      make_alpha, make_alpha_from_csv)
from .operators import (TriangularOperator, cesaro_apply, cesaro_inverse_apply,
                        delta_apply, diff_apply, shift_apply,
                        step_continuity_test, verify_factorizations,
                        weighted_norm)
from .resolvent import (equicontinuity_probe, resolvent_entries,
                        sandwich_bounds, sandwich_check)
from .spectrum import classify_spectrum, point_spectrum_test, sample_grid
from .ergodic import (cesaro_means, iterates_limit_check,
                      power_bounded_check, range_inverse_matrices)
from .finite_type import (FiniteTypeWeights, example53_lower_bound,
                          ft_cesaro_acts, ft_continuity_criterion,
                          gp_nuclearity)
