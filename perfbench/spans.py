"""In-memory span recorder that wraps the public functions of each raytheta layer.

Installing the recorder rebinds every module and class attribute that holds
one of the wrapped function objects, so calls made through names imported
with ``from .x import f`` are traced as well as calls through the package.
Each call is a span (id, parent span id, name, start, end); a span's self time is its
duration minus the time its direct children cover.  The recorder's own
bookkeeping is timed and kept out of every span's self time.  Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from fractions import Fraction

LAYERS = ("qseries", "quadfield", "rayclass", "bridge", "identities", "cli")

# Spans kept verbatim for the span file (the first ones of the run); every
# span, kept or not, feeds the per-name aggregates.
MAX_KEPT_SPANS = 20000


def targets(rt, cli):
    """(span name, owner, attribute) for every wrapped callable.

    Owners are ``raytheta`` itself, public classes from ``raytheta.__all__``,
    and ``raytheta.cli`` for ``main``.  The list is wider than the metrics
    name: each public entry point of a layer is a boundary, so that work one
    layer does for another counts as its own self time, not its caller's.
    """
    Q, I, R, T = rt.QSeries, rt.QIdeal, rt.RayClassRef, rt.RayThetaSpec
    return [
        ("qseries.mul", Q, "__mul__"),
        ("qseries.add", Q, "__add__"),
        ("qseries.sub", Q, "__sub__"),
        ("qseries.theta_gen", rt, "theta_gen"),
        ("qseries.compare", rt, "equals_to_order"),
        ("qseries.divide", rt, "divide_by_unit"),
        ("qseries.v_func", rt, "v_func"),
        ("qseries.eta", rt, "eta"),
        ("qseries.virasoro_char", rt, "virasoro_char"),
        ("quadfield.is_principal", rt, "is_principal"),
        ("quadfield.ideal_mul", I, "mul"),
        ("quadfield.ideal_inverse", I, "inverse"),
        ("quadfield.ideal_add", I, "add"),
        ("quadfield.enumerate_ideals", rt, "enumerate_ideals"),
        ("quadfield.split_prime", rt, "split_prime"),
        ("quadfield.factor_ideal", rt, "factor_ideal"),
        ("quadfield.principal_ideal", rt, "principal_ideal"),
        ("quadfield.class_group_reps", rt, "class_group_reps"),
        ("rayclass.skew_sets", rt, "compute_skew_sets"),
        ("rayclass.ray_theta", rt, "ray_theta"),
        ("rayclass.canonical_rep", R, "canonical_rep"),
        ("rayclass.same_ray_class", rt, "same_ray_class"),
        ("rayclass.crt_class", rt, "crt_class"),
        ("rayclass.lift_classes", rt, "lift_classes"),
        ("rayclass.reduce_class", rt, "reduce_class"),
        ("rayclass.units_mod_conductor", rt, "units_mod_conductor"),
        ("bridge.check_cross_field", rt, "check_cross_field"),
        ("bridge.check_descent", rt, "check_descent"),
        ("bridge.coset", rt, "product_to_coset"),
        ("bridge.coset", rt, "coset_theta_direct"),
        ("bridge.coset", rt, "coset_to_rayclass"),
        ("bridge.coset", rt, "decompose_coset"),
        ("bridge.coset", rt, "split_coset"),
        ("bridge.coset_theta", T, "theta"),
        ("identities.run_suite", rt, "run_suite"),
        ("identities.thm51_check", rt, "thm51_check"),
        ("identities.consolidate", rt, "consolidate"),
        ("identities.search_relations", rt, "search_relations"),
        ("identities.pell_levels", rt, "pell_levels"),
        ("cli", cli, "main"),
    ]


class Recorder:
    """Span stack, kept spans and per-name aggregates of one traced run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [name, child time, span id] per open span
        self.kept: list[tuple] = []  # (span id, parent id or 0, name, start, end, self time)
        self.next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.origin = self.clock()
        self._restore: list[tuple] = []
        self._skew_keys: set = set()

    def _charge(self, t0: float, child: float = 0.0) -> None:
        """Count the recorder time since t0 (and a finished child's duration)
        as child time of the open span, so its self time excludes them."""
        spent = self.clock() - t0
        if self.stack:
            self.stack[-1][1] += child + spent

    def wrap(self, name: str, fn, after=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_enter = rec.clock()
            rec.next_id += 1
            parent = rec.stack[-1][2] if rec.stack else 0
            frame = [name, 0.0, rec.next_id]
            rec.stack.append(frame)
            t_start = rec.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t_end = rec.clock()
                rec.stack.pop()
                dur = t_end - t_start
                own = dur - frame[1]
                rec.calls[name] += 1
                rec.self_s[name] += own
                if len(rec.kept) < MAX_KEPT_SPANS:
                    rec.kept.append((frame[2], parent, name, t_start - rec.origin, t_end - rec.origin, own))
                rec._charge(t_end, dur + (t_start - t_enter))
            if after is not None:
                t0 = rec.clock()
                after(args, kwargs, out)
                rec._charge(t0)
            return out

        return traced

    def install(self, rt, cli) -> "Recorder":
        """Wrap every target and rebind each attribute holding the same object."""
        modules = [m for n, m in list(sys.modules.items()) if n == "raytheta" or n.startswith("raytheta.")]
        afters = self._afters(rt)
        for name, owner, attr in targets(rt, cli):
            fn = vars(owner)[attr]
            wrapped = self.wrap(name, fn, afters.get(name))
            for holder in [owner] if isinstance(owner, type) else modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapped)
        return self

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    def _afters(self, rt) -> dict:
        """Work counters taken from each call's arguments and result."""
        n = self.counts

        def mul(args, kwargs, out):
            if isinstance(out, rt.QSeries):
                n["qseries.mul.terms_out"] += len(out.terms)

        def compare(args, kwargs, out):
            a, b = args[0], args[1]
            order = args[2] if len(args) > 2 else kwargs["order"]
            n["qseries.compare.coeffs"] += compared_coeffs(a, b, order, out)

        def principal(args, kwargs, out):
            n["quadfield.is_principal.hits"] += out is not None

        def enumerate_ideals(args, kwargs, out):
            bound = args[1] if len(args) > 1 else kwargs["bound"]
            n["quadfield.enumerate_ideals.ideals"] += len(out)
            n["quadfield.enumerate_ideals.max_bound"] = max(n["quadfield.enumerate_ideals.max_bound"], bound)
            if self.inside("rayclass.ray_theta"):
                n["rayclass.ray_theta.ideals"] += len(out)

        def skew_sets(args, kwargs, out):
            chi, F = args[0], args[1]
            bound = args[2] if len(args) > 2 else kwargs.get("bound")
            self._skew_keys.add((chi.D, chi.Dprime, F.key, bound))
            n["rayclass.skew_sets.distinct"] = len(self._skew_keys)

        def ray_theta(args, kwargs, out):
            W = args[0]
            n["rayclass.ray_theta.class_terms"] += 1 if isinstance(W, rt.RayClassRef) else len(W.terms)

        def run_suite(args, kwargs, out):
            n["identities.reports"] += len(out)

        return {
            "qseries.mul": mul,
            "qseries.compare": compare,
            "quadfield.is_principal": principal,
            "quadfield.enumerate_ideals": enumerate_ideals,
            "rayclass.skew_sets": skew_sets,
            "rayclass.ray_theta": ray_theta,
            "identities.run_suite": run_suite,
        }

    def summary(self) -> dict:
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer_self[name.split(".", 1)[0]] += s
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "layer_self_s": layer_self,
        }

    def write_spans(self, path: str) -> None:
        """Write the kept spans in the order they ended, one JSON list per line."""
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps(["id", "parent", "name", "start_s", "end_s", "self_s"]) + "\n")
            for span in self.kept:
                f.write(json.dumps(span) + "\n")


def compared_coeffs(a, b, order, out) -> int:
    """Coefficient positions ``equals_to_order`` examined: the union of both
    supports up to the order, or up to the first mismatch."""
    ok, mismatch = out
    stop = Fraction(order) if ok else mismatch[0]
    return len({e for s in (a, b) for e in (Fraction(k, s.denom) for k in s.terms) if e <= stop})


# Per-layer metrics: (name, unit, better); their values come from per_layer().
PER_LAYER = [
    ("qseries.self_s", "s", "lower"),
    ("qseries.mul.calls", "count", "lower"),
    ("qseries.mul.self_s", "s", "lower"),
    ("qseries.mul.terms_out", "count", "lower"),
    ("qseries.add.calls", "count", "lower"),
    ("qseries.add.self_s", "s", "lower"),
    ("qseries.theta_gen.calls", "count", "lower"),
    ("qseries.compare.calls", "count", "lower"),
    ("qseries.compare.coeffs", "count", "higher"),
    ("quadfield.self_s", "s", "lower"),
    ("quadfield.is_principal.calls", "count", "lower"),
    ("quadfield.is_principal.self_s", "s", "lower"),
    ("quadfield.is_principal.hit_ratio", "ratio", "higher"),
    ("quadfield.ideal_mul.calls", "count", "lower"),
    ("quadfield.ideal_mul.self_s", "s", "lower"),
    ("quadfield.enumerate_ideals.calls", "count", "lower"),
    ("quadfield.enumerate_ideals.self_s", "s", "lower"),
    ("quadfield.enumerate_ideals.ideals", "count", "lower"),
    ("quadfield.enumerate_ideals.max_bound", "norm", "lower"),
    ("rayclass.self_s", "s", "lower"),
    ("rayclass.skew_sets.calls", "count", "lower"),
    ("rayclass.skew_sets.distinct", "count", "lower"),
    ("rayclass.skew_sets.self_s", "s", "lower"),
    ("rayclass.ray_theta.calls", "count", "lower"),
    ("rayclass.ray_theta.self_s", "s", "lower"),
    ("rayclass.ray_theta.ideals", "count", "lower"),
    ("rayclass.ray_theta.class_terms", "count", "lower"),
    ("rayclass.canonical_rep.calls", "count", "lower"),
    ("bridge.self_s", "s", "lower"),
    ("bridge.check_cross_field.calls", "count", "lower"),
    ("bridge.coset.calls", "count", "lower"),
    ("identities.self_s", "s", "lower"),
    ("identities.reports", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("host.probe_us", "us", "lower"),
]

# Metrics that are counts of work; two traced runs with one seed must agree on them.
COUNT_SUFFIXES = (".calls", ".ideals", ".terms_out", ".coeffs", ".distinct", ".reports", ".class_terms", ".max_bound")


def per_layer(summary: dict, scale: float, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metric values of one traced run, keyed as in PER_LAYER.

    Self times are multiplied by ``scale`` (the traced instance's host-speed
    factor) so that they share a time base with the scaled wall times given.
    """
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    values = {f"{layer}.self_s": s * scale for layer, s in summary["layer_self_s"].items()}
    for metric, unit, _ in PER_LAYER:
        if metric in values or metric.startswith(("trace.", "host.")):
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = calls.get(span, 0)
        elif kind == "self_s":
            values[metric] = self_s.get(span, 0.0) * scale
        elif kind == "hit_ratio":
            values[metric] = counts.get(span + ".hits", 0) / max(calls.get(span, 0), 1)
        else:
            values[metric] = counts.get(metric, 0)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unattributed_s"] = traced_wall - scale * sum(summary["layer_self_s"].values())
    return values
