"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper at every
module binding inside the package (``solve_lp`` as imported into
``space``, ``properties`` and ``isometry``, the package's own re-exports,
and so on) and each traced method on its class; ``uninstall`` puts the
originals back. A wrapper records a span, with name, start, end, parent
and job id, in memory. A span's self time is its duration minus the time
its child spans cover.
"""

import functools
import sys
import time
from collections import Counter

import polysphere
from polysphere import catalog, formats, isometry, linalg, lp, properties, space


def _dd_sizes(args, result):
    return {"space.enumerate_ball_vertices.rows_in": len(args[0]),
            "space.enumerate_ball_vertices.vertices_out": len(result)}


def _rank_rows(args, result):
    return {"linalg.rank.rows": len(args[0])}


def _lp(args, result):
    problem = args[0]
    return {"lp.tableau_cells": len(problem.constraints) * problem.num_vars,
            "lp.infeasible": int(result.status == lp.INFEASIBLE)}


def _records(args, result):
    return {"properties.condition_iii_records": len(result.condition_iii)}


# (span name, owner, attribute, counts taken from the call)
TARGETS = (
    ("lp.solve_lp", lp, "solve_lp", _lp),
    ("properties.distance_to_hull", properties, "distance_to_hull", None),
    ("properties.in_convex_hull", properties, "in_convex_hull", None),
    ("properties.check_t_property", properties, "check_t_property", _records),
    ("space.enumerate_ball_vertices", space, "enumerate_ball_vertices", _dd_sizes),
    ("space.PolyhedralSpace.init", space.PolyhedralSpace, "__init__", None),
    ("space.PolyhedralSpace.norm", space.PolyhedralSpace, "norm", None),
    ("linalg.rank", linalg, "rank", _rank_rows),
    ("linalg.affine_rank", linalg, "affine_rank", None),
    ("linalg.invert", linalg, "invert", None),
    ("linalg.solve", linalg, "solve", None),
    ("linalg.null_space_vector", linalg, "null_space_vector", None),
    ("linalg.independent_row_indices", linalg, "independent_row_indices", None),
    ("isometry.verify_isometry", isometry, "verify_isometry", None),
    ("isometry.extend", isometry, "extend", None),
    ("isometry.SphereMap.apply", isometry.SphereMap, "apply", None),
    ("formats.parse_space_text", formats, "parse_space_text", None),
    ("formats.parse_map_text", formats, "parse_map_text", None),
    ("catalog.resolve", catalog, "resolve", None),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if name == polysphere.__name__ or name.startswith(polysphere.__name__ + ".")]


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        # A span is [name, start, end, parent index, job id, child time].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._job = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ------------------------------------------------------

    def install(self):
        modules = _package_modules()
        for name, owner, attr, counter in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job, 0.0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int):
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        if span[3] is not None:
            self.spans[span[3]][5] += span[2] - span[1]

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return wrapper

    def job(self, job_id, fn, *args):
        """Run ``fn`` as the root span of one job."""
        self._job = job_id
        index = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(index)
            self._job = None

    # -- reading ---------------------------------------------------------

    def layer_totals(self) -> tuple[Counter, Counter]:
        """Calls and self seconds per span name."""
        calls, self_s = Counter(), Counter()
        for name, start, end, _, _, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        return calls, self_s

    def records(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "job")
        return [dict(zip(keys, span[:5])) for span in self.spans]
