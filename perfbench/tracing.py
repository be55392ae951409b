"""Outside-in layer tracing for ebring.

``Tracer.install`` replaces each public layer function with a wrapper that
records a span (metric, start, end, parent, error) and rebinds every name
that refers to the function in every ``ebring`` module namespace, so calls
made through ``from .x import f`` bindings, module attributes and calls
inside the defining module are all seen. A call into a layer whose span is
already the innermost open one is folded into that span. Nothing in the
package is edited; ``uninstall`` restores the original bindings.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, public functions that form the layer)
LAYERS = {
    "search": ("search", ["max_free_sequence"]),
    "groups.davenport": ("groups", ["davenport"]),
    "groups.unit_view": ("groups", ["unit_group_view"]),
    "groups.invariant_factors": ("groups", ["invariant_factors"]),
    "rings.construct": ("rings", ["make_zmod", "make_gf", "make_poly_quotient",
                                  "make_product", "make_from_table"]),
    "rings.validate": ("rings", ["validate_ring"]),
    "gfpoly": ("gfpoly", ["trim", "degree", "constant", "from_int_coeffs", "add", "neg",
                          "mul", "scale", "shift", "divmod_poly", "mod", "is_monic",
                          "is_irreducible", "find_irreducible", "factor_monic", "render"]),
    "ideals.nilradical": ("ideals", ["nilradical"]),
    "ideals.quotient": ("ideals", ["quotient_ring"]),
    "ideals.maximal": ("ideals", ["maximal_ideals"]),
    "ideals.chain": ("ideals", ["ideal_index", "ideal_power"]),
    "ideals.product": ("ideals", ["ideal_product"]),
    "ideals.crt": ("ideals", ["crt_solve"]),
    "erdos_burgess.construct": ("erdos_burgess", ["construct_extremal"]),
    "erdos_burgess.exact": ("erdos_burgess", ["exact_eb"]),
    "erdos_burgess.report": ("erdos_burgess", ["report"]),
    "erdos_burgess.crosscheck": ("erdos_burgess", ["dedekind_crosscheck_int",
                                                   "dedekind_crosscheck_poly"]),
    "sequences.verify": ("sequences", ["is_idempotent_product_free", "product_set"]),
    "cli": ("cli", ["run"]),
}

# Per-layer metrics reported by the benchmark, besides trace.overhead_frac.
# "_s" is self time: span time minus the time of its child spans.
SELF_METRICS = {
    "search.s": "search",
    "groups.davenport_s": "groups.davenport",
    "groups.unit_view_s": "groups.unit_view",
    "groups.invariant_factors_s": "groups.invariant_factors",
    "rings.construct_s": "rings.construct",
    "rings.validate_s": "rings.validate",
    "gfpoly.s": "gfpoly",
    "ideals.nilradical_s": "ideals.nilradical",
    "ideals.quotient_s": "ideals.quotient",
    "ideals.maximal_s": "ideals.maximal",
    "ideals.chain_s": "ideals.chain",
    "ideals.product_s": "ideals.product",
    "ideals.crt_s": "ideals.crt",
    "erdos_burgess.construct_s": "erdos_burgess.construct",
    "erdos_burgess.exact_s": "erdos_burgess.exact",
    "erdos_burgess.report_s": "erdos_burgess.report",
    "erdos_burgess.crosscheck_s": "erdos_burgess.crosscheck",
    "sequences.verify_s": "sequences.verify",
    "cli.self_s": "cli",
}
CALL_METRICS = {
    "search.calls": "search",
    "groups.davenport_calls": "groups.davenport",
    "rings.construct_calls": "rings.construct",
    "rings.validate_calls": "rings.validate",
    "ideals.quotient_calls": "ideals.quotient",
    "ideals.product_calls": "ideals.product",
    "ideals.crt_calls": "ideals.crt",
}


class Tracer:
    """Span recorder for one pass. Spans stay in memory until ``spans`` is
    read at the end."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # (layer, span id) of the spans still running
        self._saved: list = []  # (namespace, name, original) to restore

    def _wrap(self, layer, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and open_[-1][0] == layer:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = open_[-1][1] if open_ else -1
            open_.append((layer, sid))
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                spans[sid] = (layer, start, clock(), parent, error)
                open_.pop()

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ebring" or name.startswith("ebring."))]
        for layer, (module, names) in LAYERS.items():
            home = sys.modules[f"ebring.{module}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()


def layer_totals(spans) -> dict:
    """Per layer: self seconds, span count and spans ended by BudgetExceeded."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = {layer: {"self_s": 0.0, "calls": 0, "budget_exceeded": 0} for layer in LAYERS}
    for (layer, start, end, _, error), inner in zip(spans, child_time):
        row = totals[layer]
        row["self_s"] += end - start - inner
        row["calls"] += 1
        row["budget_exceeded"] += error == "BudgetExceeded"
    return totals


def layer_metrics(totals) -> dict:
    """The benchmark's per-layer metrics, ``{name: (value, unit)}``, from
    ``layer_totals``."""
    out = {name: (totals[layer]["self_s"], "s") for name, layer in SELF_METRICS.items()}
    out.update({name: (totals[layer]["calls"], "count") for name, layer in CALL_METRICS.items()})
    out["search.budget_exceeded"] = (totals["search"]["budget_exceeded"], "count")
    return out
