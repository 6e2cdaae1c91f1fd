"""Outside-in tracer: wraps each layer's public functions from outside the library.

Every function in LAYERS is replaced, in every `swlyap` module that binds it,
by a wrapper that counts calls and accumulates self time (its own wall time
minus that of traced calls made inside it).  Each call also records its
nearest traced caller, which gives ratios such as `apply` calls per `evolve`.

Foreign functions (scipy's `expm`) are traced only at the listed modules, so
each importing module gets its own counter.  Library functions are traced
at their home module and at every other module found binding the same
object.

`install` fails loudly when a named function or a listed binding site is
missing, so a refactor that moves a call reads as a missing counter and
never as a silent zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

PACKAGE = "swlyap"


@dataclass(frozen=True)
class Layer:
    name: str  # counter prefix
    module: str  # module holding the function, relative to the package
    attr: str
    sites: tuple  # other modules that must bind the same object
    foreign: bool = False  # trace only at `module`, not at every binding


LAYERS = (
    Layer("state_space.canonicalize", "state_space", "canonicalize", ("semigroups",)),
    Layer("state_space.lp_norm_pow", "state_space", "lp_norm_pow", ("lyapunov",)),
    Layer("semigroups.apply", "semigroups", "apply", ("switching", "lyapunov")),
    Layer("semigroups.expm", "semigroups", "expm", (), foreign=True),
    Layer("switching.evolve", "switching", "evolve", ("lyapunov", "certificates", "cli")),
    Layer("switching.enumerate_family", "switching", "enumerate_family",
          ("lyapunov", "certificates", "gram")),
    Layer("lyapunov.trajectory_cost", "lyapunov", "trajectory_cost", ("cli",)),
    Layer("lyapunov.v_sup", "lyapunov", "v_sup", ("cli",)),
    Layer("lyapunov.generalized_derivative", "lyapunov", "generalized_derivative",
          ("certificates",)),
    Layer("gram.expm", "gram", "expm", (), foreign=True),
    Layer("gram.segment_energy", "gram", "segment_energy", ()),
    Layer("gram.lyapunov_solve", "gram", "lyapunov_solve", ()),
    Layer("gram.gram_of_signal", "gram", "gram_of_signal", ()),
    Layer("certificates.fit_growth", "certificates", "fit_growth", ("cli",)),
    Layer("certificates.fit_decay", "certificates", "fit_decay", ("cli",)),
    Layer("certificates.condition_report", "certificates", "condition_report", ("cli",)),
    Layer("cli.validate_config", "cli", "validate_config", ()),
    Layer("cli.main", "cli", "main", ()),
)

# `apply` is counted per mode kind, keyed on the class of its first argument.
APPLY_KINDS = {
    "MatrixMode": "matrix",
    "ShiftAmplifyMode": "transport",
    "HalfLineShiftMode": "transport",
    "DiagonalGroupMode": "group",
}


class TraceSetupError(RuntimeError):
    """A traced function or one of its binding sites is missing."""


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.callers = Counter()  # (nearest traced caller, callee) -> calls
        self.yielded = Counter()
        self._stack = []  # [name, time spent in traced children]

    def _wrap(self, layer: Layer, fn):
        label = _apply_label if layer.name == "semigroups.apply" else (lambda a, k: layer.name)
        counts_yield = layer.name == "switching.enumerate_family"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label(args, kwargs)
            caller = self._stack[-1][0] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dt - frame[1]
                self.callers[(caller, name)] += 1
                if self._stack:
                    self._stack[-1][1] += dt
            return self._count_yields(name, result) if counts_yield else result

        return traced

    def _count_yields(self, name, items):
        for item in items:
            self.yielded[name] += 1
            yield item

    def install(self):
        """Wrap every layer at every binding site; raise TraceSetupError first
        if any function or listed site is missing."""
        prefix = PACKAGE + "."
        modules = {
            name[len(prefix):]: mod for name, mod in sys.modules.items()
            if name.startswith(prefix) and mod is not None
        }
        modules[""] = sys.modules.get(PACKAGE)
        problems, plan = [], []
        for layer in LAYERS:
            home = modules.get(layer.module)
            fn = getattr(home, layer.attr, None)
            if not callable(fn):
                problems.append(f"{PACKAGE}.{layer.module}.{layer.attr} is missing")
                continue
            for site in layer.sites:
                if getattr(modules.get(site), layer.attr, None) is not fn:
                    problems.append(
                        f"{PACKAGE}.{site} no longer binds {layer.module}.{layer.attr}"
                    )
            scope = {layer.module: home} if layer.foreign else modules
            bindings = [
                (mod, attr) for mod in scope.values() if mod is not None
                for attr, value in list(vars(mod).items()) if value is fn
            ]
            plan.append((layer, fn, bindings))
        if problems:
            raise TraceSetupError("tracer self-check failed:\n  " + "\n  ".join(problems))
        for layer, fn, bindings in plan:
            traced = self._wrap(layer, fn)
            for mod, attr in bindings:
                setattr(mod, attr, traced)
        return self

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "callers": {f"{a}>{b}": n for (a, b), n in self.callers.items()},
            "yielded": dict(self.yielded),
        }


def _apply_label(args, kwargs) -> str:
    mode = args[0] if args else kwargs.get("mode")
    return "semigroups.apply." + APPLY_KINDS.get(type(mode).__name__, "other")
