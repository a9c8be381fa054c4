"""Per-layer call tracing by rebinding the library's public functions.

The tracer wraps every public function of the traced modules and replaces
*every* binding of it inside the ``rieszbounds`` package: the defining
module, modules that did ``from .riesz import riesz_value``, and the package
namespace that re-exports ``riesz_mean`` and friends.  Check families are
timed by replacing the entries of ``verify.MARGINS``, which ``_sweep`` looks
up at call time.

Each wrapper records calls, inclusive time and self time (inclusive minus
the time spent in wrapped callees).  A layer's time counts only its
outermost calls, so a bound that calls another bound is not counted twice.
Per-call spans are not kept: the hot functions are called millions of times.
"""

from __future__ import annotations

import sys
import time

#: traced module -> layer name used in metric names
LAYERS = {
    "rieszbounds.specfun": "specfun",
    "rieszbounds.spectra": "spectra",
    "rieszbounds._kernels": "kernels",
    "rieszbounds._kernels.pykernels": "kernels",
    "rieszbounds.riesz": "riesz",
    "rieszbounds.bounds": "bounds",
    "rieszbounds.verify": "verify",
    "rieszbounds.cli": "cli",
}


class Stat:
    __slots__ = ("calls", "incl", "self_s")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs counting/timing wrappers; ``uninstall`` restores bindings."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.layer_calls: dict[str, int] = {}
        self.layer_s: dict[str, float] = {}
        self.riesz_keys: set = set()
        self.zero_keys: set = set()
        self.riesz_terms = 0
        self.eigenvalues = 0
        self.scoped: dict[str, dict] = {}
        self.site_calls: dict[str, int] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._undo: list = []
        self._on_call = self._hooks()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, site: str | None = None):
        stat = self.stats.setdefault(name, Stat())
        sites = self.site_calls
        if site is not None:
            sites.setdefault(site, 0)
        self.layer_calls.setdefault(layer, 0)
        self.layer_s.setdefault(layer, 0.0)
        depth = self._depth
        depth.setdefault(layer, 0)
        stack = self._stack
        clock = time.perf_counter
        on_call = self._on_call.get(name)

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if on_call is not None:
                    on_call(args, kwargs, result)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                stat.calls += 1
                if site is not None:
                    sites[site] += 1
                stat.incl += dt
                stat.self_s += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if depth[layer] == 0:
                    self.layer_calls[layer] += 1
                    self.layer_s[layer] += dt

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _hooks(self):
        def riesz_value(args, kwargs, result):
            spec, sigma, z = args + tuple(
                kwargs[k] for k in ("spec", "sigma", "z") if k in kwargs)
            self.riesz_keys.add((id(spec), float(sigma), float(z)))

        def riesz_sum(args, kwargs, result):
            self.riesz_terms += result[1]

        def bessel_zero(args, kwargs, result):
            self.zero_keys.add((result.order, result.index))

        def spectrum(args, kwargs, result):
            if self._depth["spectra"] == 1:
                self.eigenvalues += len(result)

        return {
            "riesz.riesz_value": riesz_value,
            "kernels.riesz_sum": riesz_sum,
            "specfun.bessel_zero": bessel_zero,
            "spectra.box_spectrum": spectrum,
            "spectra.ball_spectrum": spectrum,
            "spectra.load_spectrum": spectrum,
        }

    def _scope(self, name: str, fn):
        """Record the riesz/kernel counters accumulated inside ``fn``."""
        def counters():
            return {
                "riesz_value.calls": self._get("riesz.riesz_value").calls,
                "riesz_value.calls_via_verify":
                    self.site_calls.get("verify:riesz.riesz_value", 0),
                "riesz_value.distinct": len(self.riesz_keys),
                "riesz_sum.calls": self._get("kernels.riesz_sum").calls,
                "riesz_sum.terms": self.riesz_terms,
            }

        def scoped(*args, **kwargs):
            before = counters()
            result = fn(*args, **kwargs)
            self.scoped[name] = {k: v - before[k]
                                 for k, v in counters().items()}
            return result
        scoped.__wrapped__ = fn
        return scoped

    def install(self) -> "Tracer":
        from rieszbounds import verify

        names = {}
        for modname in LAYERS:
            for attr, obj in vars(sys.modules[modname]).items():
                if (not attr.startswith("_") and not isinstance(obj, type)
                        and callable(obj)
                        and getattr(obj, "__module__", None) in LAYERS):
                    layer = LAYERS[obj.__module__]
                    names.setdefault(id(obj), f"{layer}.{attr}")

        # one wrapper per binding site, sharing the function's statistics;
        # calls are also counted per site ("verify:riesz.riesz_value")
        modules = [m for n, m in sys.modules.items()
                   if n == "rieszbounds" or n.startswith("rieszbounds.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                name = names.get(id(obj))
                if name is None:
                    continue
                site = f"{LAYERS.get(module.__name__, module.__name__)}:{name}"
                wrapped = self._wrap(name, LAYERS[obj.__module__], obj, site)
                if name == "verify.sweep":
                    wrapped = self._scope(name, wrapped)
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrapped)
        for check_id, fn in list(verify.MARGINS.items()):
            self._undo.append((verify.MARGINS, check_id, fn))
            verify.MARGINS[check_id] = self._wrap(
                f"verify.{check_id}", "verify", fn)
        return self

    def uninstall(self) -> None:
        for target, key, obj in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)
        self._undo.clear()

    # -- metrics ----------------------------------------------------------

    def _get(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    def metrics(self, check_ids) -> dict[str, tuple[float, str]]:
        """Per-layer metric values with units, named as in BENCHMARK.json."""
        s = self._get
        out = {}

        def put(name, value, unit):
            out[name] = (value, unit)

        zeros = len(self.zero_keys)
        jv = s("specfun.bessel_j").calls
        put("specfun.bessel_zero.calls", s("specfun.bessel_zero").calls,
            "count")
        put("specfun.bessel_zero.s", s("specfun.bessel_zero").incl, "s")
        put("specfun.bessel_j.calls", jv, "count")
        put("specfun.bessel_j.s", s("specfun.bessel_j").incl, "s")
        put("specfun.zeros", zeros, "count")
        put("specfun.jv_per_zero", jv / zeros if zeros else 0.0, "ratio")

        put("spectra.ball_spectrum.self_s",
            s("spectra.ball_spectrum").self_s, "s")
        put("spectra.box_spectrum.s", s("spectra.box_spectrum").incl, "s")
        put("spectra.load_spectrum.s", s("spectra.load_spectrum").incl, "s")
        put("spectra.eigenvalues", self.eigenvalues, "count")

        for fn in ("riesz_sum", "power_sum", "prefix_sums"):
            put(f"kernels.{fn}.calls", s(f"kernels.{fn}").calls, "count")
            put(f"kernels.{fn}.s", s(f"kernels.{fn}").incl, "s")
        put("kernels.riesz_sum.terms", self.riesz_terms, "count")

        rv = s("riesz.riesz_value").calls
        put("riesz.riesz_value.calls", rv, "count")
        put("riesz.riesz_value.distinct", len(self.riesz_keys), "count")
        put("riesz.riesz_value.useful_ratio",
            len(self.riesz_keys) / rv if rv else 0.0, "ratio")
        put("riesz.means.calls", s("riesz.means").calls, "count")
        put("riesz.means.self_s", s("riesz.means").self_s, "s")
        for fn in ("riesz_mean", "legendre_R1", "eigensum_prefix"):
            put(f"riesz.{fn}.s", s(f"riesz.{fn}").incl, "s")

        put("bounds.calls", self.layer_calls.get("bounds", 0), "count")
        put("bounds.s", self.layer_s.get("bounds", 0.0), "s")

        for check_id in check_ids:
            put(f"verify.{check_id}.points", s(f"verify.{check_id}").calls,
                "count")
            put(f"verify.{check_id}.s", s(f"verify.{check_id}").incl, "s")
        put("verify.z_grid.s", s("verify.z_grid").incl, "s")
        put("verify.sweep.s", s("verify.sweep").incl, "s")
        put("verify.controls.s",
            s("verify.run_suite").incl - s("verify.sweep").incl, "s")

        put("cli.main.s", s("cli.main").incl, "s")
        put("cli.self_s",
            sum(st.self_s for name, st in self.stats.items()
                if name.startswith("cli.")), "s")
        return out
