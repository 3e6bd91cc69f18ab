"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side only: wrappers replace the
module attributes that the library looks up at call time, and are removed
again when the traced phase ends, so no library file changes and the
untraced phase runs the library exactly as shipped.

Layers are keyed by module and role, not by function name.  A role lists
every attribute that has served it; the role is measured when at least one of
them exists and is reported as unmeasured (``None``), never as zero, when
none does.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np


def _cols_full(args, kwargs, out):
    return int(np.shape(args[0] if args else kwargs["p"])[0])


def _cols_partial(args, kwargs, out):
    return int(args[1] if len(args) > 1 else kwargs["z"])


def _unique_points(args, kwargs, out):
    return int(out.count)


def _classified_points(args, kwargs, out):
    return int((args[0] if args else kwargs["cr"]).n_z)


# role -> (targets, work counters).  A target is (module, "name") or
# (module, "Class.method").  ``work`` and ``base`` compute the two integers
# a span records at its boundary: columns factorized for the Cholesky roles,
# deduplicated and classified nonlinear points for ``cubature.unique``.
ROLES = {
    "moments.match": (
        (
            ("plfilt.filters", "match_full"),
            ("plfilt.filters", "match_structured"),
            ("plfilt.filters", "match_pl"),
        ),
        None,
        None,
    ),
    "filters.kalman_update": ((("plfilt.filters", "kalman_update"),), None, None),
    "linalg.permute": ((("plfilt.filters", "permute_moments"),), None, None),
    "linalg.cholesky_full": (
        (("plfilt.filters", "cholesky_full"), ("plfilt.moments", "cholesky_full")),
        _cols_full,
        None,
    ),
    "linalg.cholesky_partial": (
        (("plfilt.moments", "cholesky_partial"),),
        _cols_partial,
        None,
    ),
    "cubature.unique": (
        (("plfilt.moments", "unique_nonlinear"),),
        _unique_points,
        _classified_points,
    ),
    "cubature.build": (
        (("plfilt.models", "spherical_rule"), ("plfilt.models", "classify")),
        None,
        None,
    ),
    "models.g": (
        (("plfilt.moments", "PartiallyLinearFunction.eval_g_batch"),),
        None,
        None,
    ),
    "models.bearings": ((("plfilt.models", "stacked_bearings_batch"),), None, None),
}


class Recorder:
    """Spans kept in memory as flat integer arrays.

    A span has a name, start and end (``perf_counter_ns``), a parent span
    (-1 for a root) and the operation it belongs to.  Operations carry a mode
    label; self time is a span's duration minus the durations of its direct
    children, which nest strictly because everything runs on one thread.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.op_modes: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.base = array("q")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_op(self, mode: str):
        self.op_modes.append(mode)

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(len(self.op_modes) - 1)
        self.work.append(0)
        self.base.append(0)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int):
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(self.name_id(name))
        try:
            yield i
        finally:
            self.close(i)

    def arrays(self):
        """Span columns as numpy arrays plus per-span self time (ns)."""
        cols = {
            key: np.frombuffer(getattr(self, key), dtype=np.int64)
            if key != "name"
            else np.frombuffer(self.name, dtype=np.int32)
            for key in ("name", "parent", "op", "start", "end", "work", "base")
        }
        dur = cols["end"] - cols["start"]
        child = np.zeros(dur.size, dtype=np.int64)
        nested = cols["parent"] >= 0
        np.add.at(child, cols["parent"][nested], dur[nested])
        cols["dur"] = dur
        cols["self"] = dur - child
        return cols

    def write_csv(self, fh):
        """Write every span, one line each, in recording order."""
        fh.write("span,name,parent,op,mode,start_ns,end_ns,work,base\n")
        for i in range(len(self.start)):
            op = self.op[i]
            mode = self.op_modes[op] if op >= 0 else ""
            fh.write(
                f"{i},{self.names[self.name[i]]},{self.parent[i]},{op},{mode},"
                f"{self.start[i]},{self.end[i]},{self.work[i]},{self.base[i]}\n"
            )


def _resolve(module_name: str, attr: str):
    """(owner, name) for a target, or None when it does not exist."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


def _wrapper(rec: Recorder, name_id: int, fn, work, base):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = rec.open(name_id)
        try:
            out = fn(*args, **kwargs)
            if work is not None:
                rec.work[i] = work(args, kwargs, out)
            if base is not None:
                rec.base[i] = base(args, kwargs, out)
            return out
        finally:
            rec.close(i)

    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Install span wrappers for every role of :data:`ROLES` and yield the
    set of roles that could not be measured."""
    patched = []
    unmeasured = set()
    try:
        for role, (targets, work, base) in ROLES.items():
            found = False
            for module_name, attr in targets:
                hit = _resolve(module_name, attr)
                if hit is None:
                    continue
                owner, name = hit
                own = name in vars(owner)
                original = vars(owner)[name] if own else getattr(owner, name)
                patched.append((owner, name, original, own))
                setattr(owner, name, _wrapper(rec, rec.name_id(role), original, work, base))
                found = True
            if not found:
                unmeasured.add(role)
        yield unmeasured
    finally:
        for owner, name, original, own in reversed(patched):
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
