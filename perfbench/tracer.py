"""Span tracer wrapped around toriparam's public functions from outside.

``Tracer.install`` replaces each traced function with a recording wrapper
in every ``toriparam`` module namespace that holds it, so calls made
through names imported with ``from .x import f`` are recorded as well.
Spans stay in memory as ``(group, start, end, parent, op, status)`` rows
and are written out once, at the end of the traced run.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# group -> (module, function) pairs; "Class.method" names a classmethod.
GROUPS = {
    "polynomials.gcd": [("polynomials", "gcd_many"),
                        ("polynomials", "gcd_multi")],
    "polynomials.factor": [("polynomials", "factor_univariate")],
    "polynomials.divide": [("polynomials", "try_divide")],
    "polynomials.text": [("polynomials", "parse"),
                         ("polynomials", "parse_tuple"),
                         ("polynomials", "render")],
    "linalg.hnf": [("linalg", "hermite_normal_form"),
                   ("linalg", "saturated_kernel_basis"),
                   ("linalg", "solve_integer_linear")],
    "linalg.det": [("linalg", "determinant"), ("linalg", "rank")],
    "polytope.hull": [("polytope", "polytope_from_vertices"),
                      ("polytope", "LatticePolytope.from_json")],
    "polytope.fan": [("polytope", "normal_fan"), ("polytope", "frame_of"),
                     ("polytope", "is_smooth")],
    "polytope.collections": [("polytope", "primitive_collections")],
    "polytope.points": [("polytope", "lattice_points")],
    "subtorus.group": [("subtorus", "scaling_group"),
                       ("subtorus", "offset_character"),
                       ("subtorus", "rescaling_group"),
                       ("subtorus", "character_kernel")],
    "subtorus.solve": [("subtorus", "solve_character"),
                       ("subtorus", "find_rescaling")],
    "resolution.resolve": [("resolution", "minimal_resolution")],
    "resolution.frame": [("resolution", "resolved_frame"),
                         ("resolution", "virtual_facets")],
    "parametrization.compose": [("parametrization", "compose_system")],
    "parametrization.coprime": [("parametrization", "is_primitive_coprime")],
    "parametrization.system": [("parametrization", "full_monomial_system"),
                               ("parametrization", "subset_monomial_system")],
    "decomposition.decompose": [("decomposition", "decompose_univariate"),
                                ("decomposition", "decompose_with_hints")],
    "cli.main": [("cli", "main")],
}

RATIOS = ("decomposition.verify_yield", "decomposition.nopreimage_frac",
          "trace.overhead_frac")


def metric_names():
    """Every per-layer metric the traced run reports, with its unit."""
    out = {}
    for group in GROUPS:
        out[f"{group}.calls"] = "calls/op"
        out[f"{group}.self_ms"] = "ms/op"
    for name in RATIOS:
        out[name] = "frac"
    return out


class Tracer:
    """Records one span per call of a traced function while ``op`` is set."""

    def __init__(self):
        self.spans = []          # [group, start, end, parent, op, status]
        self._stack = []
        self.op = None           # id of the timed op in progress, else None
        self._patches = []       # (owner, attribute, original)
        self.missing = []

    # -- installation ---------------------------------------------------

    def _wrap(self, group, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            row = [group, clock(), 0.0, stack[-1] if stack else -1,
                   self.op, "ok"]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                row[5] = type(exc).__name__
                raise
            finally:
                row[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, package):
        prefix = package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == prefix
                                         or name.startswith(prefix + "."))]
        for group, targets in GROUPS.items():
            for modname, attr in targets:
                module = sys.modules.get(f"{prefix}.{modname}")
                owner_name, _, method = attr.partition(".")
                owner = getattr(module, owner_name, None) if module else None
                if owner is None or (method and method not in vars(owner)):
                    self.missing.append(f"{modname}.{attr}")
                    continue
                if method:
                    original = vars(owner)[method]
                    wrapped = classmethod(self._wrap(group, original.__func__))
                    setattr(owner, method, wrapped)
                    self._patches.append((owner, method, original))
                    continue
                wrapped = self._wrap(group, owner)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is owner:
                            setattr(mod, name, wrapped)
                            self._patches.append((mod, name, owner))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self, n_ops, untraced_ops_per_s, traced_ops_per_s):
        """Per-op calls and self time per group, plus the three ratios."""
        spans = self.spans
        child = [0.0] * len(spans)
        for row in spans:
            if row[3] >= 0:
                child[row[3]] += row[2] - row[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, row in enumerate(spans):
            calls[row[0]] += 1
            self_s[row[0]] += (row[2] - row[1]) - child[k]

        decompose = "decomposition.decompose"
        decomposed = sum(1 for row in spans
                         if row[0] == decompose and row[5] == "ok")
        no_preimage = sum(1 for row in spans
                          if row[0] == decompose and row[5] == "NoPreimage")
        verifying = 0
        for row in spans:
            if row[0] != "parametrization.compose":
                continue
            parent = row[3]
            while parent >= 0 and spans[parent][0] != decompose:
                parent = spans[parent][3]
            verifying += parent >= 0

        out = {}
        per_op = 1.0 / max(n_ops, 1)
        for group in GROUPS:
            out[f"{group}.calls"] = calls[group] * per_op
            out[f"{group}.self_ms"] = self_s[group] * 1e3 * per_op
        out["decomposition.verify_yield"] = (decomposed / verifying
                                             if verifying else 0.0)
        out["decomposition.nopreimage_frac"] = (
            no_preimage / calls[decompose] if calls[decompose] else 0.0)
        out["trace.overhead_frac"] = (
            1.0 - traced_ops_per_s / untraced_ops_per_s
            if untraced_ops_per_s else 0.0)
        return out

    def write(self, path):
        """One JSON array per span line: group, start and end in seconds,
        parent span index (-1 at the top), op id and status."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(row, separators=(",", ":")))
                fh.write("\n")
