"""Per-layer tracing of convexa from outside the package.

`Tracer.install()` replaces every module-level binding of the public
functions of each layer (and a few public methods) with a wrapper that
records a span and updates the layer's counters; `uninstall()` puts the
originals back. Nothing in `src/` changes: a binding made with
`from .quadrature import integrate_unit` is a separate name in the
importing module, so every module of the package is searched for bindings
of each wrapped function.

Spans are (name, layer, start, end, parent) and stay in memory; a nested
call into the same layer records no span of its own, so its time is the
enclosing span's self time. A layer's self time is the sum over its spans
of the span's duration minus the time covered by its child spans.
"""

import statistics
import time

import numpy as np

import convexa
from convexa import cli, expr, membership, quadrature, specfun, theorems, weights

LAYERS = ("quadrature", "weights", "specfun", "expr", "membership", "theorems", "cli")

# module -> public functions to wrap; the module is the function's layer
_FUNCTIONS = {
    specfun: ("log_gamma", "beta"),
    quadrature: ("integrate", "integrate_unit"),
    weights: (
        "classical",
        "young",
        "nesbitt",
        "young_cross_moment_proof_display",
        "young_cross_moment_theorem_display",
        "young_inequality",
        "nesbitt_inequality",
        "dominates_classical",
    ),
    expr: ("tokenize", "parse", "parse_source", "unparse", "parse_function",
           "builtin_function", "evaluate"),
    membership: ("check_convex", "check_concave", "nonnegativity_witness"),
    theorems: (
        "hadamard_classical",
        "young_right_bound",
        "young_sandwich_coefficients",
        "young_sandwich",
        "young_product_bound",
        "nesbitt_sandwich",
        "nesbitt_product_bound",
        "nesbitt_similarly_ordered_bound",
        "pachpatte_bounds",
        "constants_table",
    ),
    cli: ("verify_paper", "render", "report_to_json", "report_to_text",
          "report_to_csv", "run", "main"),
}

# (class, layer) -> public methods to wrap on the class itself
_METHODS = {
    (weights.WeightSystem, "weights"): (
        "eval_arrays",
        "eval",
        "lemma_rhs_arrays",
        "lemma_rhs",
        "moments_closed_form",
        "moments",
    ),
    (expr.FunctionDef, "expr"): ("__call__",),
}

_BINDING_MODULES = (convexa, specfun, quadrature, weights, expr, membership, theorems, cli)

COUNTERS = (
    "quadrature.calls",
    "quadrature.evals",
    "quadrature.useful_evals",
    "quadrature.nonconverged",
    "weights.moment_calls",
    "weights.eval_calls",
    "weights.eval_points",
    "specfun.calls",
    "expr.parse_calls",
    "expr.eval_calls",
    "expr.eval_points",
    "membership.scans",
    "membership.samples",
    "membership.certificates",
    "membership.computed_bytes",
    "membership.max_scan_bytes",
    "theorems.calls",
    "theorems.integrals",
    "theorems.redundant_integrals",
    "cli.render_calls",
    "cli.report_bytes",
    "trace.spans",
)


def _integrand_key(obj, depth=0):
    """Hashable identity of an integrand: its source function(s) and weights."""
    if isinstance(obj, expr.FunctionDef):
        return ("f", obj.source)
    if isinstance(obj, weights.WeightSystem):
        return ("w", obj.kind.value, obj.p)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    code = getattr(obj, "__code__", None)
    if code is None or depth > 4:
        return type(obj).__name__
    cells = []
    for cell in obj.__closure__ or ():
        try:
            cells.append(_integrand_key(cell.cell_contents, depth + 1))
        except ValueError:  # empty cell
            cells.append(None)
    return (code, tuple(cells))


class Tracer:
    """Wraps the package's layer boundaries; one cycle of counts at a time."""

    def __init__(self):
        self._originals = []  # (owner, attribute, original)
        self.keep_spans = False
        self.reset()

    # -- per-cycle state ------------------------------------------------------

    def reset(self):
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(LAYERS + ("bench",), 0.0)
        self.render_s = 0.0
        self.spans = []
        self._seen_integrals = set()
        self.cycle_start = time.perf_counter()
        # stack entries: [layer, start, child_time, span_index]
        self._stack = [["bench", self.cycle_start, 0.0, -1]]

    def finish_cycle(self):
        """Close the root span; return (counts, self time per layer, render
        time, cycle time) of this cycle."""
        root = self._stack[0]
        cycle_s = time.perf_counter() - root[1]
        self.self_s["bench"] += cycle_s - root[2]
        return dict(self.counts), dict(self.self_s), self.render_s, cycle_s

    # -- wrapping -------------------------------------------------------------

    def install(self):
        wrappers = {}  # id(original) -> wrapper; the originals stay bound meanwhile
        for module, names in _FUNCTIONS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                original = getattr(module, name)
                wrappers[id(original)] = self._wrap(name, layer, original)
        for mod in _BINDING_MODULES:
            for attr, value in list(vars(mod).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is None:
                    continue
                if mod is theorems and attr in ("integrate", "integrate_unit"):
                    wrapped = self._wrap(attr, "quadrature", value, theorem_integral=True)
                self._originals.append((mod, attr, value))
                setattr(mod, attr, wrapped)
        for (cls, layer), names in _METHODS.items():
            for name in names:
                original = cls.__dict__[name]
                self._originals.append((cls, name, original))
                setattr(cls, name, self._wrap(name, layer, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def _wrap(self, name, layer, fn, theorem_integral=False):
        hook = _HOOKS.get(name)
        label = f"{layer}.{name}"
        tracer = self

        def wrapper(*args, **kwargs):
            if theorem_integral:
                tracer._note_theorem_integral(name, args)
            return tracer._call(label, layer, fn, args, kwargs, hook)

        return wrapper

    def _call(self, label, layer, fn, args, kwargs, hook):
        stack = self._stack
        parent = stack[-1]
        nested = parent[0] == layer
        if nested:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, result, True, time.perf_counter() - start)
            return result
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append([label, layer, 0.0, 0.0, parent[3]])
        self.counts["trace.spans"] += 1
        entry = [layer, time.perf_counter(), 0.0, index]
        stack.append(entry)
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - entry[1]
            self.self_s[layer] += duration - entry[2]
            parent[2] += duration
            if index >= 0:
                self.spans[index][2] = entry[1]
                self.spans[index][3] = end
        if hook is not None:
            hook(self, args, result, False, duration)
        return result

    def _note_theorem_integral(self, name, args):
        if name == "integrate":
            interval = args[1]
            bounds = (interval.a, interval.b)
        else:
            bounds = (0.0, 1.0)
        key = (_integrand_key(args[0]), bounds)
        self.counts["theorems.integrals"] += 1
        if key in self._seen_integrals:
            self.counts["theorems.redundant_integrals"] += 1
        else:
            self._seen_integrals.add(key)


# -- counting hooks: (tracer, args, result, nested, duration) -------------------


def _quadrature_hook(tr, args, result, nested, duration):
    if nested:
        return
    c = tr.counts
    c["quadrature.calls"] += 1
    c["quadrature.evals"] += result.evaluations
    if result.converged:
        c["quadrature.useful_evals"] += result.evaluations
    else:
        c["quadrature.nonconverged"] += 1


def _outermost(counter):
    def hook(tr, args, result, nested, duration):
        if not nested:
            tr.counts[counter] += 1

    return hook


def _eval_arrays_hook(tr, args, result, nested, duration):
    tr.counts["weights.eval_calls"] += 1
    tr.counts["weights.eval_points"] += int(np.size(args[1]))


def _function_call_hook(tr, args, result, nested, duration):
    tr.counts["expr.eval_calls"] += 1
    tr.counts["expr.eval_points"] += int(np.size(args[1]))


def _scan_hook(tr, args, result, nested, duration):
    if nested:
        return
    c = tr.counts
    c["membership.scans"] += 1
    c["membership.samples"] += result.samples
    # one dense nx*ny*nt float64 array per scan, computed from the grid size
    dense = 8 * result.samples
    c["membership.computed_bytes"] += dense
    c["membership.max_scan_bytes"] = max(c["membership.max_scan_bytes"], dense)
    if result.certificate is not None:
        c["membership.certificates"] += 1


def _render_hook(tr, args, result, nested, duration):
    tr.counts["cli.render_calls"] += 1
    tr.counts["cli.report_bytes"] += len(result.encode("utf-8"))
    tr.render_s += duration


_THEOREM_HOOK = _outermost("theorems.calls")
_SPECFUN_HOOK = _outermost("specfun.calls")

_HOOKS = {
    "integrate": _quadrature_hook,
    "integrate_unit": _quadrature_hook,
    "moments": _outermost("weights.moment_calls"),
    "eval_arrays": _eval_arrays_hook,
    "__call__": _function_call_hook,
    "parse_function": _outermost("expr.parse_calls"),
    "check_convex": _scan_hook,
    "check_concave": _scan_hook,
    "log_gamma": _SPECFUN_HOOK,
    "beta": _SPECFUN_HOOK,
    "render": _render_hook,
}
_HOOKS.update({name: _THEOREM_HOOK for name in _FUNCTIONS[theorems]})


def layer_metrics(cycles, traced_iter_s, untraced_iter_s, peak_rss_mb, probe_failed):
    """Per-layer metric values from the traced cycles of one run.

    `cycles` is a list of `Tracer.finish_cycle()` results. Counts come from
    the first cycle (the caller checks that they repeat). Times are medians
    over cycles, reported as shares of the cycle: a layer a workload never
    calls then reads 0 as a share rather than as a time, and shares hold
    still when the machine's speed changes. Share times `trace.cycle_s` is
    the layer's self time in seconds.
    """
    counts = cycles[0][0]

    def share(layer):
        return statistics.median(c[1][layer] / c[3] for c in cycles)

    evals = counts["quadrature.evals"]
    points = counts["expr.eval_points"]
    calls = counts["expr.eval_calls"]
    m = {
        "quadrature.calls": (counts["quadrature.calls"], "count"),
        "quadrature.evals": (evals, "count"),
        "quadrature.panels": (evals // 15, "count"),
        "quadrature.nonconverged": (counts["quadrature.nonconverged"], "count"),
        "quadrature.useful_eval_frac": (
            counts["quadrature.useful_evals"] / evals if evals else 0.0, "ratio"),
        "quadrature.self_share": (share("quadrature"), "ratio"),
        "weights.moment_calls": (counts["weights.moment_calls"], "count"),
        "weights.eval_calls": (counts["weights.eval_calls"], "count"),
        "weights.eval_points": (counts["weights.eval_points"], "count"),
        "weights.self_share": (share("weights"), "ratio"),
        "specfun.calls": (counts["specfun.calls"], "count"),
        "specfun.self_share": (share("specfun"), "ratio"),
        "expr.parse_calls": (counts["expr.parse_calls"], "count"),
        "expr.eval_calls": (calls, "count"),
        "expr.eval_points": (points, "count"),
        "expr.points_per_call": (points / calls if calls else 0.0, "count"),
        "expr.self_share": (share("expr"), "ratio"),
        "membership.scans": (counts["membership.scans"], "count"),
        "membership.samples": (counts["membership.samples"], "count"),
        "membership.certificates": (counts["membership.certificates"], "count"),
        "membership.computed_bytes": (counts["membership.computed_bytes"], "B"),
        "membership.max_scan_bytes": (counts["membership.max_scan_bytes"], "B"),
        "membership.self_share": (share("membership"), "ratio"),
        "theorems.calls": (counts["theorems.calls"], "count"),
        "theorems.integrals": (counts["theorems.integrals"], "count"),
        "theorems.redundant_integrals": (counts["theorems.redundant_integrals"], "count"),
        "theorems.self_share": (share("theorems"), "ratio"),
        "cli.render_calls": (counts["cli.render_calls"], "count"),
        "cli.render_share": (statistics.median(c[2] / c[3] for c in cycles), "ratio"),
        "cli.report_bytes": (counts["cli.report_bytes"], "B"),
        "cli.self_share": (share("cli"), "ratio"),
        "bench.self_share": (share("bench"), "ratio"),
        "trace.cycle_s": (statistics.median(c[3] for c in cycles), "s"),
        "trace.spans": (counts["trace.spans"], "count"),
        "trace.overhead_s": (
            statistics.median(traced_iter_s) - statistics.median(untraced_iter_s), "s"),
        "process.peak_rss_mb": (peak_rss_mb, "MB"),
        "probe.failed": (probe_failed, "count"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}
