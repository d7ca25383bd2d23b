"""Span recorder for the traced run, and the per-layer metrics built on it.

The recorder wraps cesarolab's public boundary functions from outside
the package: each call records a span (name, parent, start, end) in
memory, and a few boundaries also add counts derived from the call's
arguments and result.  A function is replaced at every name it is bound
under, because cli and spectrum import several of them by name.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "cesarolab"
LAYERS = ("cli", "spectrum", "resolvent", "weights", "operators", "ergodic",
          "finite_type")

_PREDICATES = ("check_nuclear", "check_loglog", "check_shift_stable",
               "check_delta_criterion", "check_lemma22")
# exact-tier arithmetic: Fractions and big-integer binomials
_EXACT = ("verify_factorizations", "delta_matrix_exact",
          "cesaro_matrix_exact", "cesaro_apply", "cesaro_inverse_apply",
          "delta_apply", "diff_apply", "shift_apply")
_OUTPUT_FLAGS = ("--out", "--svg", "--output", "--trace")
_DENSE_TOP = 10 ** 6  # finite_type scans densely up to this index


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _count_cli(rec, fn, args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    for i, a in enumerate(argv[:-1]):
        if a in _OUTPUT_FLAGS and os.path.exists(argv[i + 1]):
            rec.counts["cli.bytes_out"] += os.path.getsize(argv[i + 1])


def _count_grid(rec, fn, args, kwargs, result):
    res = _bound(fn, args, kwargs)["resolution"]
    rec.counts["spectrum.sample_grid.points"] += res * res


def _count_prefix(rec, fn, args, kwargs, result):
    rec.counts["resolvent.product_log_prefix.terms"] += int(
        _bound(fn, args, kwargs)["N"])


def _count_probe(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    if result["l_found"] is None:
        rec.counts["resolvent.equicontinuity_probe.l_tried"] += a["l_max"] + 1
    else:
        rec.counts["resolvent.equicontinuity_probe.l_tried"] += (
            result["l_found"] - a["k"] + 1)
        rec.counts["resolvent.equicontinuity_probe.found"] += 1


def _count_log_values(rec, fn, args, kwargs, result):
    rec.counts["weights.log_values.elements"] += len(result)


def _count_log_weight(rec, fn, args, kwargs, result):
    # args = (self, k, n); distinct (alpha, n) pairs, alphas kept alive
    # for the pass so their ids stay unique
    alpha = args[0].alpha
    rec.alphas[id(alpha)] = alpha
    rec.log_weight_keys.add((id(alpha), int(args[2])))


def _count_ft_criterion(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    top = min(int(a["horizon"]), _DENSE_TOP)
    if a["ftw"].alpha.max_index is not None:
        top = min(top, a["ftw"].alpha.max_index)
    rec.counts["finite_type.ft_continuity_criterion.elements"] += top


def _count_ft_acts(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    for k, step in result["per_step"].items():
        found = step["l_found"]
        rec.counts["finite_type.ft_cesaro_acts.l_tried"] += (
            a["l_max"] if found is None else found - k)


def _count_iterates(rec, fn, args, kwargs, result):
    rec.counts["ergodic.iterates_limit_check.iterations"] += len(
        result.m_values)


def _step_name(fn, args, kwargs):
    op = args[0] if args else kwargs["op_name"]
    return ("operators.step_continuity_test."
            + ("delta" if op == "delta" else "other"))


# (module, attribute or Class.method, counter); methods are patched on
# the class, functions at every module attribute bound to them
BOUNDARIES = (
    ("cli", "main", _count_cli),
    ("spectrum", "classify_spectrum", None),
    ("spectrum", "point_spectrum_test", None),
    ("spectrum", "region_contains", None),
    ("spectrum", "sample_grid", _count_grid),
    ("spectrum", "grid_to_csv", None),
    ("spectrum", "grid_to_svg", None),
    ("resolvent", "dist_sigma0", None),
    ("resolvent", "a_fn", None),
    ("resolvent", "u_fn", None),
    ("resolvent", "v_fn", None),
    ("resolvent", "product_log", None),
    ("resolvent", "product_log_prefix", _count_prefix),
    ("resolvent", "sandwich_bounds", None),
    ("resolvent", "sandwich_check", None),
    ("resolvent", "resolvent_entries", None),
    ("resolvent", "resolvent_norm_bound_check", None),
    ("resolvent", "equicontinuity_probe", _count_probe),
    ("resolvent", "ResolventDecomposition.resolvent_matrix", None),
    ("resolvent", "ResolventDecomposition.reconstruction_residual", None),
    ("weights", "make_alpha", None),
    ("weights", "make_alpha_from_csv", None),
    ("weights", "AlphaSequence.log_values", _count_log_values),
    ("weights", "WeightFamily.log_weight", _count_log_weight),
    ("weights", "WeightFamily.log_weights", None),
    *(("weights", name, None) for name in _PREDICATES),
    ("operators", "step_continuity_test", None),
    ("operators", "weighted_norm", None),
    ("operators", "delta_log_abs", None),
    ("operators", "conjugate_to_c0", None),
    ("operators", "c0_continuity_test", None),
    ("operators", "TriangularOperator.truncate", None),
    *(("operators", name, None) for name in _EXACT),
    ("ergodic", "iterates_limit_check", _count_iterates),
    ("ergodic", "power_bounded_check", None),
    ("ergodic", "power_apply", None),
    ("ergodic", "cesaro_means", None),
    ("ergodic", "decomposition_split", None),
    ("ergodic", "range_inverse_matrices", None),
    ("ergodic", "b_continuity_check", None),
    ("ergodic", "IterationTrace.to_csv", None),
    ("finite_type", "ft_continuity_criterion", _count_ft_criterion),
    ("finite_type", "ft_cesaro_acts", _count_ft_acts),
    ("finite_type", "example53_j", None),
    ("finite_type", "example53_alpha", None),
    ("finite_type", "example53_lower_bound", None),
    ("finite_type", "gp_nuclearity", None),
    ("finite_type", "FiniteTypeWeights.log_weight", None),
    ("finite_type", "FiniteTypeWeights.log_weights", None),
)


class Recorder:
    """In-memory spans of one traced pass; install() patches, uninstall()
    restores."""

    def __init__(self):
        self.spans = []          # [name, parent index, start, end]
        self.counts = Counter()
        self.alphas = {}
        self.log_weight_keys = set()
        self._stack = []
        self._patches = []

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.alphas = {}
        self.log_weight_keys = set()

    def span(self, name):
        """Context for a span opened by the benchmark itself (one op)."""
        return _Span(self, name)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        rec = self
        name_of = _step_name if name == "operators.step_continuity_test" \
            else None

        def traced(*args, **kwargs):
            idx = rec._open(name_of(fn, args, kwargs) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if counter is not None:
                counter(rec, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {n: m for n, m in sys.modules.items()
                if n == PACKAGE or n.startswith(PACKAGE + ".")}
        for layer, attr, counter in BOUNDARIES:
            mod = mods[f"{PACKAGE}.{layer}"]
            name = f"{layer}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, orig, counter))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(name, orig, counter)
            for m in mods.values():
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, new):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def uninstall(self):
        for owner, key, old in reversed(self._patches):
            setattr(owner, key, old)
        self._patches = []


class _Span:
    def __init__(self, rec, name):
        self.rec, self.name = rec, name

    def __enter__(self):
        self.idx = self.rec._open(self.name)
        return self

    def __exit__(self, *exc):
        self.rec._close(self.idx)
        return False


def self_times(spans):
    """Self time of every span: its duration minus the part of its
    interval that the union of its children's intervals covers."""
    children = defaultdict(list)
    for _, parent, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, _, start, end) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _has_ancestor(spans, i, name):
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][1]
    return False


def pass_metrics(rec):
    """Per-layer metrics of one traced pass (times in s, counts whole)."""
    spans = rec.spans
    selfs = self_times(spans)
    self_by = defaultdict(float)
    calls = Counter()
    for (name, *_), s in zip(spans, selfs):
        self_by[name] += s
        calls[name] += 1
    c = rec.counts
    dist_in_grid = sum(1 for i, sp in enumerate(spans)
                       if sp[0] == "resolvent.dist_sigma0"
                       and _has_ancestor(spans, i, "spectrum.sample_grid"))
    points = c["spectrum.sample_grid.points"]
    l_tried = c["resolvent.equicontinuity_probe.l_tried"]
    lw_calls = calls["weights.log_weight"]
    m = {
        "resolvent.dist_sigma0.calls": calls["resolvent.dist_sigma0"],
        "resolvent.dist_sigma0.self_s": self_by["resolvent.dist_sigma0"],
        "spectrum.sample_grid.points": points,
        "spectrum.sample_grid.dist_calls_per_point":
            dist_in_grid / points if points else 0.0,
        "cli.bytes_out": c["cli.bytes_out"],
        "spectrum.grid_to_csv.self_s": self_by["spectrum.grid_to_csv"],
        "spectrum.grid_to_svg.self_s": self_by["spectrum.grid_to_svg"],
        "resolvent.equicontinuity_probe.self_s":
            self_by["resolvent.equicontinuity_probe"],
        "resolvent.equicontinuity_probe.l_tried": l_tried,
        "resolvent.equicontinuity_probe.found_ratio":
            c["resolvent.equicontinuity_probe.found"] / l_tried
            if l_tried else 0.0,
        "resolvent.product_log_prefix.terms":
            c["resolvent.product_log_prefix.terms"],
        "resolvent.product_log_prefix.self_s":
            self_by["resolvent.product_log_prefix"],
        "weights.log_values.elements": c["weights.log_values.elements"],
        "weights.log_values.self_s": self_by["weights.log_values"],
        "weights.predicates.self_s":
            sum(self_by[f"weights.{p}"] for p in _PREDICATES),
        "finite_type.ft_continuity_criterion.elements":
            c["finite_type.ft_continuity_criterion.elements"],
        "finite_type.ft_cesaro_acts.l_tried":
            c["finite_type.ft_cesaro_acts.l_tried"],
        "operators.step_continuity_test.delta.self_s":
            self_by["operators.step_continuity_test.delta"],
        "operators.step_continuity_test.other.self_s":
            self_by["operators.step_continuity_test.other"],
        "operators.delta_log_abs.calls": calls["operators.delta_log_abs"],
        "weights.log_weight.calls": lw_calls,
        "weights.log_weight.distinct_ratio":
            len(rec.log_weight_keys) / lw_calls if lw_calls else 0.0,
        "operators.weighted_norm.calls": calls["operators.weighted_norm"],
        "operators.weighted_norm.self_s": self_by["operators.weighted_norm"],
        "operators.exact.self_s":
            sum(self_by[f"operators.{f}"] for f in _EXACT),
        "ergodic.iterates_limit_check.iterations":
            c["ergodic.iterates_limit_check.iterations"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in self_by.items()
                                    if k.startswith(layer + ".")), 0.0)
    return m


def median_metrics(per_pass):
    """Counts from the first pass (they repeat exactly), times as medians."""
    out = {}
    for key in per_pass[0]:
        vals = [p[key] for p in per_pass]
        out[key] = statistics.median(vals) if key.endswith("_s") else vals[0]
    return out


def dump(spans, path):
    """Write the spans of a pass as one JSON document."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with open(path, "w") as fh:
        json.dump({"names": names,
                   "spans": [[index[n], p, round(a, 9), round(b, 9)]
                             for n, p, a, b in spans]}, fh)
