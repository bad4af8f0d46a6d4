"""Timing wrappers around torsig's public functions, and the per-layer
metrics computed from the spans they record.

`Tracer.install()` replaces each traced function at every module binding
that callers resolve (for example `torsig.cli.max_signature`,
`torsig.identities.max_signature` and `torsig.maxsig.max_signature` all
point at the same wrapper) and `uninstall()` puts the originals back.
Spans are kept in memory as (name, start, end, parent, command, knot) and
reduced to metrics when the traced pass ends.  Counts labelled "computed"
are derived from the arguments and results, not measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

TRACED = {
    "lattice": ("lt_signature", "classical_signature", "signature_step_function"),
    "maxsig": ("max_signature", "distance_profile", "balanced_sequence", "max_cyclic_sum"),
    "identities": ("check_glm", "check_even_periodicity", "check_main_recursion",
                   "check_odd_shift_identity", "check_closed_forms"),
    "oracle": ("seifert_matrix", "alexander_from_seifert", "torus_alexander",
               "hermitian_signature", "brute_force_max"),
    "cli": ("main",),
}

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "lattice.lt_signature.s": "s",
    "lattice.lt_signature.calls": "count",
    "lattice.lt_signature.columns": "count",
    "lattice.classical_signature.s": "s",
    "lattice.classical_signature.calls": "count",
    "lattice.classical_signature.calls_per_knot": "ratio",
    "lattice.signature_step_function.s": "s",
    "lattice.signature_step_function.breakpoints": "count",
    "lattice.signature_step_function.computed_bytes": "B",
    "maxsig.max_signature.s": "s",
    "maxsig.max_signature.calls": "count",
    "maxsig.max_signature.calls_per_knot": "ratio",
    "maxsig.distance_profile.s": "s",
    "maxsig.balanced_sequence.s": "s",
    "maxsig.max_cyclic_sum.s": "s",
    "maxsig.sequence_len": "count",
    "identities.check_glm.s": "s",
    "identities.check_even_periodicity.s": "s",
    "identities.check_main_recursion.s": "s",
    "identities.check_odd_shift_identity.s": "s",
    "identities.check_closed_forms.s": "s",
    "identities.reports": "count",
    "identities.failed": "count",
    "oracle.seifert_matrix.self_s": "s",
    "oracle.alexander_from_seifert.s": "s",
    "oracle.torus_alexander.s": "s",
    "oracle.hermitian_signature.s": "s",
    "oracle.hermitian_signature.calls": "count",
    "oracle.hermitian_signature.computed_flops": "flop",
    "oracle.near_singular": "count",
    "oracle.brute_force_max.s": "s",
    "oracle.seifert_rank": "count",
    "oracle.wall_share": "ratio",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "cli.workers": "count",
    "cli.blas_threads": "count",
    "cli.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}

# Metrics counted from arguments and results rather than from span times.
COUNTED = (
    "lattice.lt_signature.columns",
    "lattice.signature_step_function.breakpoints",
    "lattice.signature_step_function.computed_bytes",
    "maxsig.sequence_len",
    "identities.reports",
    "identities.failed",
    "oracle.hermitian_signature.computed_flops",
    "oracle.near_singular",
    "oracle.seifert_rank",
)


class Tracer:
    """Records one span per call of every function in TRACED."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.command = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._near_singular = sys.modules["torsig.oracle"].NearSingular

    def _count(self, name, args, result) -> None:
        c = self.counts
        if name == "lattice.lt_signature":
            c["lattice.lt_signature.columns"] += args[0].p - 1
        elif name == "lattice.signature_step_function":
            c["lattice.signature_step_function.breakpoints"] += len(result.breakpoints)
            c["lattice.signature_step_function.computed_bytes"] += 2 * args[0].p * args[0].q * 8
        elif name == "maxsig.balanced_sequence":
            c["maxsig.sequence_len"] += len(result)
        elif name == "oracle.seifert_matrix":
            c["oracle.seifert_rank"] += result.size
        elif name.startswith("identities."):
            reports = result if isinstance(result, list) else [result]
            c["identities.reports"] += len(reports)
            c["identities.failed"] += sum(1 for r in reports if not r.passed)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        keyed = name in ("maxsig.max_signature", "lattice.classical_signature")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            knot = (args[0].p, args[0].q) if keyed else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.command, knot]
            spans.append(span)
            if name == "oracle.hermitian_signature":
                n = len(getattr(args[0], "entries", args[0]))
                self.counts["oracle.hermitian_signature.computed_flops"] += 4 * (2 * n) ** 3 / 3
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except self._near_singular:
                self.counts["oracle.near_singular"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            self._count(name, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "torsig" or n.startswith("torsig."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"torsig.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, traced_wall: float) -> dict[str, float]:
        """Per-layer metrics from the spans; runner-level ones are added by the caller."""
        total: defaultdict[str, float] = defaultdict(float)
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        knots: defaultdict[str, set] = defaultdict(set)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, command, knot in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        oracle_s = 0.0
        for index, (name, start, end, parent, command, knot) in enumerate(self.spans):
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child_time[index]
            if knot is not None:
                knots[name].add((command, knot))
            ancestor, nested, nested_oracle = parent, False, False
            while ancestor >= 0:
                ancestor_name = self.spans[ancestor][0]
                nested |= ancestor_name == name
                nested_oracle |= ancestor_name.startswith("oracle.")
                ancestor = self.spans[ancestor][3]
            if not nested:
                total[name] += duration
            if name.startswith("oracle.") and not nested_oracle:
                oracle_s += duration
        out = {}
        for metric in LAYER_METRICS:
            base, _, field = metric.rpartition(".")
            if field == "s":
                out[metric] = total[base]
            elif field == "self_s":
                out[metric] = self_s[base]
            elif field == "calls":
                out[metric] = calls[base]
            elif field == "calls_per_knot":
                out[metric] = calls[base] / len(knots[base]) if knots[base] else 0.0
        for metric in COUNTED:
            out[metric] = self.counts[metric]
        out["oracle.wall_share"] = oracle_s / traced_wall
        out["trace.spans"] = len(self.spans)
        return out
