"""Spans recorded from the benchmark's side of each layer boundary.

The program is not instrumented here (spans inside it are a later
change).  One ``op`` span covers each client call; a timing wrapper
around the ``FileSystem`` the in-process workloads pass as ``fs``
contributes ``storage.append`` / ``storage.fsync`` / ``storage.read``
child spans.  A child is attributed to the op open on the *calling
thread*: under group commit the leader's fsync therefore belongs to the
leader's bind, and the follower's wait for it shows as that bind's self
time.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import time
from threading import get_ident

_now = time.perf_counter


class SpanLog:
    """An in-memory list of ``(id, parent, op_id, name, start, end, bytes)``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._open: dict[int, int] = {}  # thread ident -> id of its open op

    def begin(self) -> int:
        """Open an op span on this thread; returns its id."""
        span_id = next(self._ids)
        self._open[get_ident()] = span_id
        return span_id

    def end(self, span_id: int, name: str, start: float, end: float) -> None:
        del self._open[get_ident()]
        self.spans.append((span_id, None, span_id, name, start, end, 0))

    def child(self, name: str, start: float, end: float, nbytes: int) -> None:
        parent = self._open.get(get_ident())
        self.spans.append(
            (next(self._ids), parent, parent, name, start, end, nbytes)
        )

    def write(self, path: str) -> None:
        keys = ("span", "parent", "op_id", "name", "start", "end", "bytes")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(keys, span))) + "\n")

    def breakdown(self, op_name: str) -> dict[str, list[float]]:
        """Per-op seconds of ``op_name`` spans: self time and each child name.

        Self time is the op's duration minus its children's; the children
        of one op run sequentially on its thread, so they never overlap.
        Raises if a child does not fit inside its op.
        """
        ops = {s[0]: s for s in self.spans if s[1] is None and s[3] == op_name}
        children: dict[int, dict[str, float]] = {}
        for _id, parent, _op, name, start, end, _n in self.spans:
            if parent in ops:
                op = ops[parent]
                if start < op[4] or end > op[5]:
                    raise AssertionError(f"{name} span escapes its {op_name} op")
                per_op = children.setdefault(parent, {})
                per_op[name] = per_op.get(name, 0.0) + (end - start)
        out: dict[str, list[float]] = {"self": []}
        for span_id, op in ops.items():
            mine = children.get(span_id, {})
            out["self"].append(op[5] - op[4] - sum(mine.values()))
            for name in ("storage.append", "storage.fsync", "storage.read"):
                out.setdefault(name, []).append(mine.get(name, 0.0))
        return out


class TimingFS:
    """A ``FileSystem`` wrapper that records storage spans when told to.

    While no log is attached the data methods *are* the base file
    system's bound methods, so an untraced section run through this
    wrapper pays nothing for it.
    """

    _SPANS = {
        "append": "storage.append",
        "write": "storage.append",
        "fsync": "storage.fsync",
        "read": "storage.read",
        "read_range": "storage.read",
    }

    def __init__(self, base) -> None:
        self.base = base
        self.record(None)

    def __getattr__(self, name: str):
        return getattr(self.base, name)

    def record(self, log: SpanLog | None) -> None:
        for method, span in self._SPANS.items():
            call = getattr(self.base, method)
            setattr(self, method, call if log is None else _timed(call, span, log))


def _timed(call, span: str, log: SpanLog):
    def timed(name, *args):
        start = _now()
        result = call(name, *args)
        end = _now()
        if span == "storage.append":
            nbytes = len(args[-1])
        else:
            nbytes = len(result) if result is not None else 0
        log.child(span, start, end, nbytes)
        return result

    return timed
