"""Span tracing of lamesusy's public functions, installed from outside.

The tracer replaces each traced function at every name that refers to
it: the defining module's attribute, the package re-export and every
``from .x import f`` binding in a sibling module, plus methods on their
class.  Calls made between modules are therefore caught the same way as
the benchmark's own calls.  ``uninstall`` restores the original objects
and ``assert_unwrapped`` proves it, so an untraced run never carries a
wrapper.

Each span records name, start, end, parent span and op id.  Self time is
a span's duration minus the time covered by its children; the benchmark
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

import numpy as np

MARK = "__perfbench_original__"

MODULES = ("elliptic", "susy", "bandsolver", "grid", "verify", "cli")

# (defining module, function name) -> span name
FUNCTIONS = {
    ("elliptic", "jacobi"): "elliptic.jacobi",
    ("elliptic", "complete_k"): "elliptic.complete_k",
    ("bandsolver", "band_edges"): "bandsolver.band_edges",
    ("bandsolver", "galerkin_edges"): "bandsolver.galerkin_edges",
    ("bandsolver", "ground_energy"): "bandsolver.ground_energy",
    ("bandsolver", "numeric_partner"): "bandsolver.numeric_partner",
    ("verify", "selfiso_distance"): "verify.selfiso_distance",
    ("verify", "schrodinger_residual"): "verify.schrodinger_residual",
    ("verify", "run_edge_state_suite"): "verify.suite.edgestates",
    ("verify", "run_limit_suite"): "verify.suite.limits",
    ("verify", "run_isospectrality_suite"): "verify.suite.iso",
    ("verify", "run_selfiso_suite"): "verify.suite.selfiso",
    # the CLI renders claims through these two
    ("verify", "reports_to_json"): "cli.render",
    ("verify", "render_table"): "cli.render",
}
# the closed-form evaluators and edge states share one layer name
for _name in ("raw_lame", "v_minus", "superpotential", "v_plus_closed", "v_plus_susy",
              "v_minus_check", "psi_minus", "psi_minus_prime", "psi_plus"):
    FUNCTIONS[("susy", _name)] = "susy.potential"

METHODS = {
    ("grid", "GridFunction", "eval"): "grid.eval",
    ("grid", "GridFunction", "derivative"): "grid.derivative",
}

# spans that keep their arguments and result, for accuracy and claim counts
KEEP_CALLS = {"bandsolver.band_edges", "verify.suite.edgestates", "verify.suite.limits",
              "verify.suite.iso", "verify.suite.selfiso"}

# positional index of the sample-point argument, for point counts
POINTS_ARG = {"elliptic.jacobi": 0, "susy.potential": -1, "grid.eval": 1}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "points", "failed",
                 "children_s", "call")

    def __init__(self, name, parent, op, points):
        self.name = name
        self.parent = parent
        self.op = op
        self.points = points
        self.failed = False
        self.children_s = 0.0
        self.call = None
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _modules(pkg):
    return [pkg] + [importlib.import_module(f"{pkg.__name__}.{m}") for m in MODULES]


def _points(name, args):
    idx = POINTS_ARG.get(name)
    if idx is None:
        return 0
    try:
        return int(np.size(args[idx]))
    except IndexError:  # points passed by keyword
        return 0


class Tracer:
    """Collects spans in memory while installed and not paused."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None
        self._paused = 0
        self._restore: list[tuple] = []

    # -- installation -----------------------------------------------------

    def install(self, pkg) -> None:
        mods = _modules(pkg)
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        for (home, fname), span in FUNCTIONS.items():
            original = getattr(by_name[home], fname)
            wrapper = self._wrap(span, original, keep_call=span in KEEP_CALLS)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for (home, cls_name, meth), span in METHODS.items():
            cls = getattr(by_name[home], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name, fn, keep_call=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent, tracer._op, _points(name, args))
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
            if keep_call:
                span.call = (args, kwargs, result)
            return result

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- scoping ----------------------------------------------------------

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            yield
        finally:
            self._op = None

    @contextlib.contextmanager
    def paused(self):
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1


def assert_unwrapped(pkg) -> None:
    """Raise if any lamesusy name still refers to a tracing wrapper."""
    owners = _modules(pkg)
    owners += [getattr(importlib.import_module(f"{pkg.__name__}.{home}"), cls)
               for home, cls, _ in METHODS]
    for owner in owners:
        for attr, value in vars(owner).items():
            if hasattr(value, MARK):
                raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{attr}")
