"""Outside-in tracer: spans around calls into dircurv's public functions.

``Tracer.install`` wraps each function in ``TARGETS`` once and writes the
wrapper into every dircurv namespace that binds the original object --
including names imported with ``from .linalg import sym_eigen`` and the
package's re-exports -- and replaces the listed ``ImplicitBody`` methods on
the class.  Code under test therefore reaches the wrappers only through
module attributes looked up at call time; a name bound before ``install``
keeps the original and records nothing.

A span is (name id, start ns, end ns, parent index, query id), appended to
one flat ``array('q')`` and written out by ``save``.  The clock is paused
while ``expr.differentiate``'s result is measured (``nodes_out``), so that
work lands in no span.  Self time is a span's duration minus the durations
of its direct children.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

PACKAGE = "dircurv"
MODULES = ("expr", "linalg", "body", "curvature", "goldman", "oracle", "cli")

TARGETS = (
    ("expr", "parse"), ("expr", "differentiate"), ("expr", "evaluate"),
    ("body", "body_from_dict"), ("body", "validate_point"), ("body", "tangent_frame"),
    ("body", "minkowski_gauge"),
    ("body", "ImplicitBody.gradient"), ("body", "ImplicitBody.hessian"),
    ("linalg", "determinant"), ("linalg", "sym_eigen"), ("linalg", "orthonormalize"),
    ("linalg", "exterior_magnitude"),
    ("curvature", "kappa_directional"), ("curvature", "gamma_directional"),
    ("curvature", "extrema"),
    ("goldman", "plane_system"), ("goldman", "goldman_tangent"),
    ("goldman", "goldman_curvature_closed"), ("goldman", "goldman_curvature_general"),
    ("oracle", "modulus_bruteforce"), ("oracle", "gamma_estimate"),
    ("oracle", "radius_containment"),
)

FIELDS = 5  # name, start, end, parent, query


def tree_size(node, memo=None) -> int:
    """Nodes of the expression tree under ``node``, shared subtrees counted per use."""
    if memo is None:
        memo = {}
    key = id(node)
    size = memo.get(key)
    if size is None:
        size = 1
        for attr in ("left", "right", "base", "child"):
            child = getattr(node, attr, None)
            if child is not None:
                size += tree_size(child, memo)
        memo[key] = size
    return size


def _namespaces() -> list:
    return [sys.modules[PACKAGE]] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]


class Tracer:
    """In-memory span recorder; one per traced phase."""

    def __init__(self):
        self.names: list[str] = []
        self.spans = array("q")
        self.errors: dict[str, int] = {}
        self.nodes_out = 0
        self.query = -1
        self._stack: list[int] = []
        self.paused_ns = 0  # time spent measuring results, off the trace clock
        self._undo: list = []

    def now(self) -> int:
        """Trace clock: wall nanoseconds minus time spent measuring results."""
        return perf_counter_ns() - self.paused_ns

    def _wrap(self, name: str, fn, measure=None):
        nid = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans) // FIELDS
            spans.extend((nid, self.now(), 0, stack[-1] if stack else -1, self.query))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                spans[idx * FIELDS + 2] = self.now()
                stack.pop()
            if measure is not None:
                t0 = perf_counter_ns()
                self.nodes_out += measure(result)
                self.paused_ns += perf_counter_ns() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding of every target in the package's namespaces."""
        spaces = _namespaces()
        for mod_name, attr in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
            measure = tree_size if attr == "differentiate" else None
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrap(f"{mod_name}.{attr}", original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original, measure)
            for space in spaces:
                for key, value in list(vars(space).items()):
                    if value is original:
                        self._undo.append((space, key, original))
                        setattr(space, key, wrapper)

    def uninstall(self) -> None:
        for space, key, original in reversed(self._undo):
            setattr(space, key, original)
        self._undo.clear()

    def arrays(self) -> dict:
        """Spans as numpy columns, plus the name table."""
        flat = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS)
        return {
            "name": flat[:, 0].copy(), "start": flat[:, 1].copy(), "end": flat[:, 2].copy(),
            "parent": flat[:, 3].copy(), "query": flat[:, 4].copy(),
            "names": np.array(self.names),
        }


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
    return duration - covered


def save(path: str, columns: dict, queries: dict) -> None:
    """Write spans and per-query (start, end, n) columns to a compressed .npz file."""
    np.savez_compressed(path, **columns, **{f"q_{k}": v for k, v in queries.items()})
