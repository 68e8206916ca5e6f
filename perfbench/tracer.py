"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are appended to flat arrays
when they open, so a parent's index is known to its children, and closed in
place.  Per-name call counts and self time (duration minus the time covered
by child spans) are folded in as each span closes, so reading a layer's
totals needs no pass over the spans.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

# Public functions wrapped where fairpca.arpgda and fairpca.baselines look
# them up.  A name a module does not have is skipped, so the traced run keeps
# working when a later version of the package drops or renames a layer.
TRACED_NAMES = (
    "smoothness_constants",
    "projections",
    "group_objectives",
    "euclidean_gradient_U",
    "group_riemannian_gradient",
    "polar_retract",
    "project_to_tangent",
    "orthonormality_error",
    "project_to_simplex",
    "simplex_violation",
    "arpgda_step",
    "rsg_step",
)


def layer_name(fn: Callable[..., Any]) -> str:
    """'fairpca.problem' + 'projections' -> 'problem.projections'."""
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        # one [span index, time covered by children] per open span
        self._stack: list[list[Any]] = []
        self._t0 = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def _open(self, nid: int) -> list[Any]:
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._start.append(time.perf_counter())
        self._end.append(0.0)
        frame = [idx, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, nid: int, frame: list[Any]) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx = frame[0]
        self._end[idx] = end
        duration = end - self._start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        self.calls[nid] += 1
        self.self_s[nid] += duration - frame[1]

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        nid = self._id(name)
        frame = self._open(nid)
        try:
            yield
        finally:
            self._close(nid, frame)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        nid = self._id(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(nid, frame)

        return traced

    @contextlib.contextmanager
    def patched(self, *modules: Any) -> Iterator[None]:
        """Replace TRACED_NAMES in each module by traced wrappers, restoring
        the originals on exit.  A function seen in several modules shares one
        span name."""
        saved = []
        try:
            for module in modules:
                for attr in TRACED_NAMES:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self.wrap(layer_name(fn), fn))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self, name: str) -> tuple[int, float]:
        """(calls, self seconds) of one span name; (0, 0.0) if never seen."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0
        return self.calls[nid], self.self_s[nid]

    @property
    def span_count(self) -> int:
        return len(self._start)

    def save(self, path: Path) -> None:
        """Write every span, times in seconds from the tracer's creation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64) - self._t0,
            end=np.frombuffer(self._end, dtype=np.float64) - self._t0,
        )
