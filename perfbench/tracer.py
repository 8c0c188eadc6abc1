"""Layer spans recorded from outside the library.

Wrappers are installed on courant_lab module functions, in every courant_lab
module that holds a reference to them (`from .x import f` copies), so the
library itself is not edited.  Each call records a span: layer, start, end,
parent span and op id, on the host reference's virtual clock.  Spans stay in
memory until the run ends; then self time (duration minus the time child
spans cover) and the per-layer counts are aggregated.

Box cells are counted by a wrapper called once per scanned cell, whose cost
would land in the self time of the enumeration spans; so they are counted only
when asked (install(box_cells=True)), in a pass of their own whose times are
not reported.

A hook whose function no longer exists (renamed or removed) is reported as
missing, and a layer whose hooks are all missing is listed as such, instead
of raising or silently reading zero.
"""

import sys

import numpy as np

# layer -> [(module, attribute)]; an attribute "ndimage.label" is a function
# reached through a module the library imported.
LAYERS = {
    "lattice_spectrum.enumerate": [
        ("lattice_spectrum", "enumerate_spectrum"),
        ("lattice_spectrum", "modes_up_to"),
        ("lattice_spectrum", "_entries_from_modes")],
    "lattice_spectrum.query": [
        ("lattice_spectrum", "counting_function"),
        ("lattice_spectrum", "multiplicity")],
    "pleijel_screening": [
        ("pleijel_screening", name) for name in (
            "screening_summary", "candidate_indices", "screening_table",
            "faber_krahn_threshold", "courant_upper_bound", "fk_line",
            "cutoff_scan", "index_cutoff")],
    "eigenfunction_eval.grid": [
        ("eigenfunction_eval", name) for name in (
            "eval_psi_grid", "eval_C", "eval_S", "eval_isosceles")],
    "eigenfunction_eval.point": [("eigenfunction_eval", "eval_psi")],
    "nodal_analysis.grid_values": [("nodal_analysis", "_grid_values")],
    "nodal_analysis.sign_grid": [("nodal_analysis", "sign_grid")],
    "nodal_analysis.label": [("nodal_analysis", "ndimage.label")],
    "nodal_analysis.sweep": [("nodal_analysis", "_max_count_over_thetas")],
    "nodal_analysis.verdict": [("nodal_analysis", "courant_sharp_verdict")],
    "nodal_analysis.roots": [
        ("nodal_analysis", name) for name in (
            "find_roots", "polynomial_roots_unit_interval", "bifurcation_angle",
            "edge_critical_zeros", "median_critical_zeros",
            "edge_restriction_roots", "median_fixed_points")],
    "svg_export.segments": [("svg_export", "zero_segments")],
    "svg_export.render": [("svg_export", "render_nodal_svg")],
    "cli_report": [("cli_report", "main")],
}
# Counted per call, without a span, in the box-cell pass only: every box cell
# the enumeration scans passes through the admissibility test.
BOX_CELL_HOOK = ("lattice_spectrum", "_admissible")
# Spans of these layers take the layer of their nearest lattice_spectrum
# ancestor, so a query's own enumeration stays in the query layer.
_INHERITS = {"modes_up_to", "_entries_from_modes"}

_LAYER, _T0, _T1, _PARENT, _OP, _COUNTS = range(6)


def _points(args, index):
    return int(np.size(args[index])) if len(args) > index else 0


# (function name) -> counts(args, result) recorded on the span
_COUNTERS = {
    "modes_up_to": lambda args, r: (len(r),),
    "eval_psi_grid": lambda args, r: (_points(args, 3),),
    "eval_C": lambda args, r: (_points(args, 2),),
    "eval_S": lambda args, r: (_points(args, 2),),
    "eval_isosceles": lambda args, r: (_points(args, 2),),
    "_grid_values": lambda args, r: ((args[0].domain.value, tuple(args[0].mode),
                                      args[1]),),
    "ndimage.label": lambda args, r: (int(np.size(args[0])), int(r[1])),
    "find_roots": lambda args, r: (len(r),),
    "polynomial_roots_unit_interval": lambda args, r: (len(r),),
    "bifurcation_angle": lambda args, r: (1,),
    "edge_critical_zeros": lambda args, r: (len(r),),
    "median_critical_zeros": lambda args, r: (len(r),),
    "edge_restriction_roots": lambda args, r: (len(r),),
    "median_fixed_points": lambda args, r: (len(r),),
    "zero_segments": lambda args, r: ((args[0].shape[0] - 1) * (args[0].shape[1] - 1),
                                      len(r)),
    "render_nodal_svg": lambda args, r: (len(r),),
}


class _ModuleProxy:
    """Stands in for a third-party module inside one library module, so that
    one of its functions can be wrapped there without patching it globally."""

    def __init__(self, module, overrides):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name):
        if name in self._overrides:
            return self._overrides[name]
        return getattr(self._module, name)


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.op = -1
        self.box_cells = 0
        self.missing = []
        self._stack = []
        self._undo = []

    # --- installation -----------------------------------------------------

    def install(self, package="courant_lab", box_cells=False):
        modules = {name[len(package) + 1:]: mod for name, mod in sys.modules.items()
                   if name.startswith(package + ".")}
        for layer, hooks in LAYERS.items():
            for module_name, attr in hooks:
                if not self._hook(modules, module_name, attr, layer):
                    self.missing.append(f"{module_name}.{attr}")
        if not box_cells:
            return
        module_name, attr = BOX_CELL_HOOK
        original = getattr(modules.get(module_name), attr, None)
        if callable(original):
            self._replace_everywhere(modules, original, self._box_counter(original))
        else:
            self.missing.append(f"{module_name}.{attr}")

    def uninstall(self):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()

    def _set(self, target, attr, value):
        self._undo.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _replace_everywhere(self, modules, original, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapper)

    def _hook(self, modules, module_name, attr, layer):
        mod = modules.get(module_name)
        if mod is None:
            return False
        if "." in attr:
            holder_name, func_name = attr.split(".", 1)
            holder = getattr(mod, holder_name, None)
            original = getattr(holder, func_name, None)
            if not callable(original):
                return False
            wrapper = self._wrap(original, layer, attr)
            self._set(mod, holder_name, _ModuleProxy(holder, {func_name: wrapper}))
            return True
        original = getattr(mod, attr, None)
        if not callable(original):
            return False
        self._replace_everywhere(modules, original, self._wrap(original, layer, attr))
        return True

    # --- recording --------------------------------------------------------

    def _wrap(self, original, layer, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        counter = _COUNTERS.get(name)
        inherits = name in _INHERITS

        def wrapper(*args, **kwargs):
            span_layer = layer
            if inherits:
                for i in reversed(stack):
                    if spans[i][_LAYER].startswith("lattice_spectrum."):
                        span_layer = spans[i][_LAYER]
                        break
            record = [span_layer, clock(), 0.0, stack[-1] if stack else -1,
                      self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[_T1] = clock()
                stack.pop()
            if counter is not None:
                record[_COUNTS] = counter(args, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _box_counter(self, original):
        spans, stack = self.spans, self._stack

        def counted(*args, **kwargs):
            if stack and spans[stack[-1]][_LAYER] == "lattice_spectrum.enumerate":
                self.box_cells += 1
            return original(*args, **kwargs)

        counted.__wrapped__ = original
        return counted

    # --- aggregation ------------------------------------------------------

    def layer_totals(self, op_factors):
        """Additive per-layer totals of this process: self seconds (each span
        host-adjusted by the factor of its op), top-level calls and counts.
        Totals of several processes are summed before per_layer_metrics turns
        them into the reported metrics."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[_PARENT] >= 0:
                child_time[s[_PARENT]] += s[_T1] - s[_T0]
        totals = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        totals.update({f"{layer}.calls": 0 for layer in LAYERS})
        totals.update({name: 0 for name in _COUNT_TOTALS})
        totals["lattice_spectrum.enumerate.box_cells"] = self.box_cells
        grid_keys = set()
        for i, s in enumerate(spans):
            layer, counts = s[_LAYER], s[_COUNTS]
            factor = op_factors[s[_OP]] if s[_OP] >= 0 else 1.0
            totals[f"{layer}.self_s"] += ((s[_T1] - s[_T0]) - child_time[i]) * factor
            top = s[_PARENT] < 0 or spans[s[_PARENT]][_LAYER] != layer
            totals[f"{layer}.calls"] += top
            if layer == "nodal_analysis.grid_values":
                if self._has_ancestor(i, "nodal_analysis.sweep"):
                    totals["nodal_analysis.grid_values.in_sweep"] += 1
                    grid_keys.add((s[_OP], counts[0]))
            elif layer == "nodal_analysis.sign_grid":
                totals["nodal_analysis.sweep.thetas"] += self._has_ancestor(
                    i, "nodal_analysis.sweep")
            elif layer == "lattice_spectrum.enumerate":
                if counts is not None:
                    totals["lattice_spectrum.enumerate.modes"] += counts[0]
            elif counts is not None and top and layer in _LAYER_COUNTS:
                for name, value in zip(_LAYER_COUNTS[layer], counts):
                    totals[name] += value
        totals["nodal_analysis.grid_values.distinct"] = len(grid_keys)
        return totals

    def _has_ancestor(self, i, layer):
        parent = self.spans[i][_PARENT]
        while parent >= 0:
            if self.spans[parent][_LAYER] == layer:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def missing_layers(self):
        """Layers none of whose hooks could be installed."""
        gone = set(self.missing)
        return [layer for layer, hooks in LAYERS.items()
                if all(f"{m}.{a}" in gone for m, a in hooks)]


# counts recorded on top-level spans of a layer, in counter order
_LAYER_COUNTS = {
    "eigenfunction_eval.grid": ("eigenfunction_eval.grid.points",),
    "nodal_analysis.label": ("nodal_analysis.label.cells",
                             "nodal_analysis.label.components"),
    "nodal_analysis.roots": ("nodal_analysis.roots.roots",),
    "svg_export.segments": ("svg_export.segments.cells",
                            "svg_export.segments.segments"),
    "svg_export.render": ("svg_export.render.bytes",),
}
_COUNT_TOTALS = (sum(_LAYER_COUNTS.values(), ())
                 + ("nodal_analysis.sweep.thetas", "nodal_analysis.grid_values.in_sweep",
                    "lattice_spectrum.enumerate.modes"))

# reported metric -> (kind, source): "ms" scales a layer's self time, "n"
# copies a total
PER_LAYER = {
    "nodal_analysis.grid_values.calls": ("n", "nodal_analysis.grid_values.calls"),
    "nodal_analysis.grid_values.self_ms": ("ms", "nodal_analysis.grid_values"),
    "nodal_analysis.grid_values.reuse_ratio": ("reuse", None),
    "eigenfunction_eval.grid.calls": ("n", "eigenfunction_eval.grid.calls"),
    "eigenfunction_eval.grid.points": ("n", "eigenfunction_eval.grid.points"),
    "eigenfunction_eval.grid.self_ms": ("ms", "eigenfunction_eval.grid"),
    "eigenfunction_eval.point.calls": ("n", "eigenfunction_eval.point.calls"),
    "eigenfunction_eval.point.self_ms": ("ms", "eigenfunction_eval.point"),
    "nodal_analysis.sign_grid.calls": ("n", "nodal_analysis.sign_grid.calls"),
    "nodal_analysis.sign_grid.self_ms": ("ms", "nodal_analysis.sign_grid"),
    "nodal_analysis.label.calls": ("n", "nodal_analysis.label.calls"),
    "nodal_analysis.label.cells": ("n", "nodal_analysis.label.cells"),
    "nodal_analysis.label.components": ("n", "nodal_analysis.label.components"),
    "nodal_analysis.label.self_ms": ("ms", "nodal_analysis.label"),
    "nodal_analysis.sweep.calls": ("n", "nodal_analysis.sweep.calls"),
    "nodal_analysis.sweep.thetas": ("n", "nodal_analysis.sweep.thetas"),
    "nodal_analysis.sweep.self_ms": ("ms", "nodal_analysis.sweep"),
    "nodal_analysis.verdict.self_ms": ("ms", "nodal_analysis.verdict"),
    "nodal_analysis.roots.calls": ("n", "nodal_analysis.roots.calls"),
    "nodal_analysis.roots.roots": ("n", "nodal_analysis.roots.roots"),
    "nodal_analysis.roots.self_ms": ("ms", "nodal_analysis.roots"),
    "svg_export.segments.cells": ("n", "svg_export.segments.cells"),
    "svg_export.segments.segments": ("n", "svg_export.segments.segments"),
    "svg_export.segments.self_ms": ("ms", "svg_export.segments"),
    "svg_export.render.self_ms": ("ms", "svg_export.render"),
    "svg_export.render.bytes": ("n", "svg_export.render.bytes"),
    "lattice_spectrum.enumerate.calls": ("n", "lattice_spectrum.enumerate.calls"),
    "lattice_spectrum.enumerate.modes": ("n", "lattice_spectrum.enumerate.modes"),
    "lattice_spectrum.enumerate.box_cells": ("n", "lattice_spectrum.enumerate.box_cells"),
    "lattice_spectrum.enumerate.box_yield": ("yield", None),
    "lattice_spectrum.enumerate.self_ms": ("ms", "lattice_spectrum.enumerate"),
    "lattice_spectrum.query.calls": ("n", "lattice_spectrum.query.calls"),
    "lattice_spectrum.query.self_ms": ("ms", "lattice_spectrum.query"),
    "pleijel_screening.calls": ("n", "pleijel_screening.calls"),
    "pleijel_screening.self_ms": ("ms", "pleijel_screening"),
    "cli_report.self_ms": ("ms", "cli_report"),
}


def sum_totals(totals_list):
    out = {}
    for totals in totals_list:
        for name, value in totals.items():
            out[name] = out.get(name, 0) + value
    return out


def per_layer_metrics(totals):
    """Reported per-layer metrics from summed totals; self times in ms."""
    out = {}
    for name, (kind, source) in PER_LAYER.items():
        if kind == "ms":
            out[name] = totals[f"{source}.self_s"] * 1e3
        elif kind == "n":
            out[name] = totals[source]
        elif kind == "reuse":
            # share of the grids evaluated inside theta sweeps whose
            # (domain, mode, resolution) the same op had evaluated before
            calls = totals["nodal_analysis.grid_values.in_sweep"]
            distinct = totals["nodal_analysis.grid_values.distinct"]
            out[name] = 1.0 - distinct / calls if calls else 0.0
        else:
            cells = totals["lattice_spectrum.enumerate.box_cells"]
            out[name] = totals["lattice_spectrum.enumerate.modes"] / cells if cells else 0.0
    return out


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms") or name.endswith("ms_p50"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "yield", "spread")):
        return "ratio"
    if name.endswith(("bytes", "bytes_out")):
        return "bytes"
    return "count"
