"""Spans around the public functions of each matchident module.

The benchmark records spans from outside the library: ``Tracer.install``
replaces every reference to a traced function, in every matchident module
namespace, by a wrapper that records a span, and ``Tracer.uninstall`` puts
the originals back.  Because names imported from one module into another
(``identify.is_maximizer``, ``lp.enumerate_vertices``) are replaced too,
nested work gets its own span, and a span's self time is its duration minus
the time its direct children cover.

A span is a small dict: ``name``, ``parent`` (index into the span list or
``None``), ``dur`` and ``self`` in seconds, ``error`` (exception class name
or ``None``), ``op`` (the tags of the benchmark operation that caused it),
and ``extra`` (shape, sweeps, vertex count, repeat flag).  Spans stay in
memory until the run ends; a traced CLI subprocess writes its spans to a
JSON file that the parent merges.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

_MODULES = ("matchident", "matchident.core", "matchident.polytope", "matchident.lp",
            "matchident.entropy", "matchident.identify", "matchident.cli")


def _shape_of(obj) -> str:
    shape = getattr(obj, "shape", None)
    if shape is None:
        shape = obj.mu.shape
    return f"{shape[0]}x{shape[1]}"


def _model_kind(args, kwargs, position: int) -> str:
    model = args[position] if len(args) > position else kwargs["model"]
    return model.kind


class Tracer:
    """Collects spans while installed; one tracer per process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op_tags: dict = {}
        self.cli_import_s: list[float] = []
        self._stack: list[int] = []
        self._ipfp_seen: set = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> dict:
        span = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "dur": 0.0,
            "self": 0.0,
            "error": None,
            "op": self.op_tags,
            "extra": {},
            "_child": 0.0,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span: dict, start: float) -> None:
        span["dur"] = perf_counter() - start
        span["self"] = span["dur"] - span.pop("_child")
        self._stack.pop()
        if span["parent"] is not None:
            self.spans[span["parent"]]["_child"] += span["dur"]

    def _wrap(self, fn, name, describe=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name(args, kwargs) if callable(name) else name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                if describe is not None:
                    describe(tracer, span, args, kwargs, None, exc)
                raise
            finally:
                tracer._exit(span, start)
            if describe is not None:
                describe(tracer, span, args, kwargs, result, None)
            return result

        return traced

    # -- per-function details ------------------------------------------

    def _describe_lp(self, span, args, kwargs, result, exc):
        span["extra"]["shape"] = _shape_of(args[1] if len(args) > 1 else kwargs["margins"])

    def _describe_vertices(self, span, args, kwargs, result, exc):
        span["extra"]["vertices"] = 0 if result is None else len(result)

    def _describe_ipfp(self, span, args, kwargs, result, exc):
        phi = args[1] if len(args) > 1 else kwargs["phi"]
        margins = args[2] if len(args) > 2 else kwargs["margins"]
        key = hash((phi.phi.tobytes(), margins.p.tobytes(), margins.q.tobytes()))
        span["extra"]["repeat"] = key in self._ipfp_seen
        self._ipfp_seen.add(key)
        if result is not None:
            span["extra"]["sweeps"] = result[1].iterations
        else:
            span["extra"]["sweeps"] = getattr(exc, "iterations", 0)

    def _describe_matching(self, span, args, kwargs, result, exc):
        span["extra"]["shape"] = _shape_of(args[0] if args else kwargs["mu_hat"])

    # -- install / uninstall -------------------------------------------

    def _targets(self):
        import matchident
        from matchident import core, entropy, identify, lp, polytope

        d = Tracer
        return [
            (core.decompose_separable, "core.decompose_separable", None),
            (core.is_nonseparable, "core.is_nonseparable", None),
            (polytope.gauge, "polytope.gauge", None),
            (polytope.enumerate_vertices, "polytope.enumerate_vertices", d._describe_vertices),
            (lp.maximize_surplus, "lp.maximize_surplus", d._describe_lp),
            (lp.is_maximizer, "lp.is_maximizer", None),
            (lp.is_discriminating, "lp.is_discriminating", None),
            (entropy.solve_regularized, "entropy.solve_regularized", d._describe_ipfp),
            (entropy.grad_entropy,
             lambda a, k: "entropy.grad_entropy." + _model_kind(a, k, 0), None),
            (identify.check_rationalizable, "identify.check_rationalizable",
             d._describe_matching),
            (identify.rationalize_gauge, "identify.rationalize_gauge", d._describe_matching),
            (identify.identify_entropy,
             lambda a, k: "identify.identify_entropy." + _model_kind(a, k, 1),
             d._describe_matching),
            (identify.simulate_market, "identify.simulate_market", None),
        ], [matchident.Margins, matchident.Matching, matchident.Surplus]

    def install(self) -> None:
        """Wrap every traced function wherever a matchident module refers to it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        functions, classes = self._targets()
        modules = [sys.modules[name] for name in _MODULES if name in sys.modules]
        for fn, name, describe in functions:
            wrapper = self._wrap(fn, name, describe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for cls in classes:
            original = cls.__dict__["__post_init__"]
            self._undo.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self._wrap(original, "core.validate"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- exchange with traced subprocesses --------------------------------

    def export(self) -> list[dict]:
        return [{k: v for k, v in span.items() if k != "op"} for span in self.spans]

    def merge(self, spans: list[dict]) -> None:
        """Append spans recorded in a subprocess, under the current operation."""
        offset = len(self.spans)
        for span in spans:
            parent = span["parent"]
            self.spans.append(dict(span, parent=None if parent is None else parent + offset,
                                   op=self.op_tags))
