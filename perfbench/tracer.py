"""Spans and counters around the public functions of each splineids layer.

The wrappers live in the benchmark, not in the package. ``Tracer.install``
rebinds every attribute of every loaded ``splineids`` module that refers to
a wrapped function, so calls through ``module.func`` and through names
bound by ``from .module import func`` both reach the wrapper;
``Tracer.uninstall`` puts the originals back.

A span is recorded only while ``Tracer.op`` names an operation; with
``op`` set to None a wrapper costs one attribute test per call.
"""

import functools
import os
import sys
import time
from dataclasses import asdict, dataclass

MODEL_NAMES = ("logistic", "linear", "quadratic", "cubic", "bspline")
CLI_COMMANDS = ("simulate", "experiment", "train", "evaluate")


def model_name(spec) -> str:
    """Benchmark name of the model a basis spec belongs to (None = plain logistic)."""
    if spec is None:
        return "logistic"
    if spec.kind.value == "bspline":
        return "bspline"
    return MODEL_NAMES[spec.degree]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _design_counts(args, kwargs, dm):
    return {"rows": dm.n_rows, "bytes": dm.n_rows * dm.n_cols * 8}


def _fit_counts(args, kwargs, model):
    return {"iterations": model.iterations, "separation_flags": int(model.separation_flag)}




# (module, function, suffix of the span name from the call, counts from the result)
LAYERS = (
    ("simulate", "generate_dataset", None, lambda a, k, r: {"records": len(r)}),
    ("simulate", "write_csv", None, lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 1, "path"))}),
    ("simulate", "read_csv", None, lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))}),
    ("splines", "quantile_knots", None, None),
    ("logistic", "build_design_matrix", lambda a, k: model_name(_arg(a, k, 0, "spec")), _design_counts),
    ("logistic", "fit_logistic", lambda a, k: model_name(_arg(a, k, 0, "dm").basis_spec), _fit_counts),
    ("logistic", "predict_prob", None, None),
    ("experiment", "split_train_test", None, None),
    ("experiment", "run_experiment", None, None),
    ("experiment", "emit_curves", None, None),
    ("experiment", "render_report", None, None),
    ("experiment", "save_model", None, None),
    ("experiment", "load_model", None, None),
    ("cli", "main", lambda a, k: _arg(a, k, 0, "argv")[0], None),
)

# per-point calls counted without a span: a span each would cost more than the call
COUNTED = (("splines", "basis_row"),)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str


class Tracer:
    """In-memory spans (name, start, end, parent index, op id) and per-op counters."""

    def __init__(self):
        self.op: str | None = None
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._t0 = time.perf_counter()
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, value: int) -> None:
        per_op = self.counters.setdefault(self.op, {})
        per_op[name] = per_op.get(name, 0) + value

    def _span_wrapper(self, fn, name, suffix, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            full = f"{name}.{suffix(args, kwargs)}" if suffix else name
            parent = self._stack[-1] if self._stack else None
            span = Span(full, time.perf_counter() - self._t0, 0.0, parent, self.op)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter() - self._t0
                self._stack.pop()
            if counts:
                for key, value in counts(args, kwargs, result).items():
                    self.count(f"{full}.{key}", value)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is not None:
                self.count(name, 1)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        import importlib

        wrappers = {}
        for module, func, suffix, counts in LAYERS:
            fn = getattr(importlib.import_module(f"splineids.{module}"), func)
            wrappers[id(fn)] = (fn, self._span_wrapper(fn, f"{module}.{func}", suffix, counts))
        for module, func in COUNTED:
            fn = getattr(importlib.import_module(f"splineids.{module}"), func)
            wrappers[id(fn)] = (fn, self._count_wrapper(fn, f"{module}.{func}.calls"))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "splineids" or mod_name.startswith("splineids.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its direct children cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "self_s": self.self_times(),
            "counters": self.counters,
        }
