"""Per-layer tracing from outside the package.

``Tracer.install`` replaces every public function of the package's layers
with a timing wrapper, at every name a caller looks it up by: the scan covers
each ``hypermorse`` module's namespace, so aliases such as ``mkernels``'
import of ``hkernels.resolvent_closed`` or ``hkernels``' by-name import of
the ``geometry`` functions are wrapped too.  Integrands handed to ``quad`` are
wrapped as spans of the layer that defined them, and the integrand handed to
``quad.integrate_finite`` (the only place integrands are evaluated) also
counts abscissae and panels, so nested integrals are counted where the work
happens rather than from the ``n_evals`` a kernel chooses to report.

Spans form a stack: each span knows its parent, its self time is its
duration minus the time its child spans cover, and counts propagate to every
ancestor when a span closes.  Spans are folded into per-name aggregates as
they close, which keeps the memory of a traced run independent of its length.
"""
from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("specfun", "quad", "geometry", "hkernels", "mkernels", "harness")
QUAD_INTEGRATORS = ("integrate_finite", "integrate_semiinfinite", "integrate_sqrt_endpoint")

# frame slots; the last three are counts that propagate to every ancestor
_NAME, _LAYER, _START, _CHILD, _POINTS, _PANELS, _UNCONV = range(7)
_COUNTERS = (_POINTS, _PANELS, _UNCONV)


class _Stat:
    """Aggregate of one span name; points and unconverged are inclusive."""

    __slots__ = ("calls", "total_s", "self_s", "points", "unconverged", "n_evals")

    def __init__(self):
        self.calls = 0
        self.total_s = self.self_s = 0.0
        self.points = self.unconverged = self.n_evals = 0


def _layer_of(fn) -> str:
    mod = getattr(fn, "__module__", "") or ""
    return mod.rsplit(".", 1)[-1] if mod.startswith("hypermorse.") else "bench"


class Tracer:
    def __init__(self):
        self.stack = [["root", "root", 0.0, 0.0, 0, 0, 0]]
        self.stats = defaultdict(_Stat)
        self.layer_self = Counter()
        self.layer_errors = Counter()
        self.edges = Counter()
        self._undo = []

    # -- spans -------------------------------------------------------------

    def _close(self, frame, end: float):
        self.stack.pop()
        parent = self.stack[-1]
        dur = end - frame[_START]
        parent[_CHILD] += dur
        st = self.stats[frame[_NAME]]
        st.calls += 1
        st.total_s += dur
        st.self_s += dur - frame[_CHILD]
        self.layer_self[frame[_LAYER]] += dur - frame[_CHILD]
        self.edges[(parent[_NAME], frame[_NAME])] += 1
        st.points += frame[_POINTS]
        st.unconverged += frame[_UNCONV]
        for slot in _COUNTERS:
            parent[slot] += frame[slot]

    def span(self, name: str, layer: str, fn):
        stack = self.stack
        perf = time.perf_counter
        count_unconverged = layer == "quad"

        def wrapper(*args, **kwargs):
            frame = [name, layer, 0.0, 0.0, 0, 0, 0]
            # errors and unconverged results count once, where they leave a layer
            outer = stack[-1][_LAYER] != layer
            stack.append(frame)
            frame[_START] = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(frame, perf())
                if outer:
                    self.layer_errors[layer] += 1
                raise
            self._close(frame, perf())
            n = getattr(result, "n_evals", None)
            if n is not None:
                self.stats[name].n_evals += n
                if count_unconverged and outer and not result.converged:
                    self.stats[name].unconverged += 1
                    stack[-1][_UNCONV] += 1
            return result

        wrapper._bench_span = True
        wrapper.__wrapped__ = fn
        return wrapper

    def _integrand(self, f):
        if f is None or getattr(f, "_bench_span", False):
            return f
        layer = _layer_of(f)
        return self.span(f"{layer}.integrand", layer, f)

    def _counted(self, f):
        stack = self.stack

        def counted(x):
            frame = stack[-1]
            frame[_PANELS] += 1
            frame[_POINTS] += getattr(x, "size", 1)
            return f(x)

        counted._bench_span = True
        return counted

    def _quad_wrapper(self, name: str, fn):
        inner = self.span(f"quad.{name}", "quad", fn)
        wrap_f = self._integrand

        if name == "integrate_finite":
            def wrapper(f, *args, **kwargs):
                return inner(self._counted(wrap_f(f)), *args, **kwargs)
        elif name == "integrate_sqrt_endpoint":
            def wrapper(g, *args, m=None, dm=None, **kwargs):
                return inner(wrap_f(g), *args, m=wrap_f(m), dm=wrap_f(dm), **kwargs)
        else:
            def wrapper(f, *args, **kwargs):
                return inner(wrap_f(f), *args, **kwargs)
        wrapper._bench_span = True
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, hm):
        """Wrap the public functions of every layer of package ``hm``."""
        replace = {}
        for layer in LAYERS:
            mod = getattr(hm, layer)
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not inspect.isfunction(fn):
                    continue
                if layer == "quad" and name in QUAD_INTEGRATORS:
                    replace[id(fn)] = (fn, self._quad_wrapper(name, fn))
                else:
                    replace[id(fn)] = (fn, self.span(f"{layer}.{name}", layer, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "hypermorse" and not modname.startswith("hypermorse."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def root_counts(self):
        root = self.stack[0]
        return {"points": root[_POINTS], "panels": root[_PANELS], "unconverged": root[_UNCONV]}


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------

SPECFUN_FNS = ("gauss_2f1", "log_gamma", "kummer_1f1", "whittaker", "bessel", "chebyshev_t",
               "humbert_phi1")
HKERNELS_FNS = ("resolvent_closed", "resolvent_integral", "heat_kernel", "wave_kernel",
                "wave_kernel_radial")
MKERNELS_FNS = ("resolvent_closed", "resolvent_integral", "heat_kernel", "wave_kernel_fourier",
                "wave_kernel_bessel0", "hartman_watson_heat_oracle", "theta_hw")


def per_layer_spec():
    """[(name, unit, better)] of every per-layer metric, in output order."""
    spec = [("specfun.calls", "count"), ("specfun.self_s", "s"), ("specfun.errors", "count")]
    for fn in SPECFUN_FNS:
        spec += [(f"specfun.{fn}.calls", "count"), (f"specfun.{fn}.self_s", "s")]
    spec += [(f"quad.{fn}.calls", "count") for fn in QUAD_INTEGRATORS]
    spec += [("quad.panels", "count"), ("quad.points", "count"), ("quad.self_s", "s"),
             ("quad.unconverged", "count")]
    for layer, fns in (("hkernels", HKERNELS_FNS), ("mkernels", MKERNELS_FNS)):
        for fn in fns:
            spec += [(f"{layer}.{fn}.calls", "count"), (f"{layer}.{fn}.self_s", "s")]
        spec.append((f"{layer}.self_s", "s"))
    spec += [("mkernels.heat_kernel.quad_points", "count"),
             ("mkernels.heat_kernel.n_evals", "count"),
             ("mkernels.resolvent_integral.quad_points", "count"),
             ("mkernels.resolvent_integral.n_evals", "count"),
             ("mkernels.hartman_watson_heat_oracle.quad_points", "count"),
             ("mkernels.hartman_watson_heat_oracle.quad_unconverged", "count"),
             ("geometry.calls", "count"), ("geometry.self_s", "s"),
             ("harness.eval_kernel.self_s", "s"), ("harness.grid_eval.self_s", "s"),
             ("harness.calibrate_spectral_mapping.s", "s"), ("harness.self_s", "s"),
             ("trace.overhead_s", "s"), ("probe.failed", "count")]
    return [(name, unit, "lower") for name, unit in spec]


def per_layer_metrics(tracer: Tracer, overhead_s: float, probe_failed: int) -> dict:
    st = tracer.stats
    root = tracer.root_counts()

    def layer_calls(layer):
        return sum(s.calls for name, s in st.items()
                   if name.startswith(layer + ".") and not name.endswith(".integrand"))

    values = {
        "specfun.calls": layer_calls("specfun"),
        "specfun.errors": tracer.layer_errors["specfun"],
        "quad.panels": root["panels"],
        "quad.points": root["points"],
        "quad.unconverged": root["unconverged"],
        "geometry.calls": layer_calls("geometry"),
        "harness.calibrate_spectral_mapping.s": st["harness.calibrate_spectral_mapping"].total_s,
        "trace.overhead_s": overhead_s,
        "probe.failed": probe_failed,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.layer_self[layer]
    for name, stat in list(st.items()):
        values[f"{name}.calls"] = stat.calls
        values[f"{name}.self_s"] = stat.self_s
        values[f"{name}.quad_points"] = stat.points
        values[f"{name}.n_evals"] = stat.n_evals
        values[f"{name}.quad_unconverged"] = stat.unconverged
    out = {}
    for name, unit, _ in per_layer_spec():
        value = values.get(name, 0)
        out[name] = (float(value) if unit == "s" else int(value), unit)
    return out


def print_spans(tracer: Tracer, top_edges: int = 40):
    """Per-span aggregates and the most frequent parent -> child edges."""
    print("span                                           calls     total_s      self_s"
          "    quad_points  n_evals")
    for name, s in sorted(tracer.stats.items(), key=lambda kv: -kv[1].total_s):
        print(f"{name:44s} {s.calls:9d} {s.total_s:11.4f} {s.self_s:11.4f} "
              f"{s.points:14d} {s.n_evals:8d}")
    for (parent, child), n in tracer.edges.most_common(top_edges):
        print(f"edge {parent} -> {child}: {n}")
