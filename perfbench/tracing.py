"""In-memory span tracer that wraps chronident's public functions from outside.

`Tracer.install` replaces each listed function by a recording wrapper in
every ``chronident`` module that binds it by name: ``ident_acov`` imports
``acov_grid`` that way and ``cli`` imports the estimators that way, so
rebinding only the defining module would miss those calls. A listed
function the program no longer has records zero calls.

A span records its name, start, end, parent span and process. Spans stay in
memory until `collect`. Pool workers forked while the tracer is installed
inherit the wrappers; each appends its spans to one JSON-lines file per
process in ``spool_dir`` whenever its outermost span closes, and `collect`
reads those files back. Workers started with ``spawn`` or ``forkserver``
import an untraced chronident and contribute no spans; `collect` reports how
many worker processes did.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

# counters(args, kwargs, result) -> {counter: number}; names starting with
# "peak_" aggregate by maximum, all others by sum
Counter = Callable[[tuple, dict, object], dict]


class Tracer:
    def __init__(
        self,
        functions: dict[str, Counter | None],
        spool_dir: Path,
        memory: frozenset[str] = frozenset(),
    ):
        self.functions = functions
        self.memory = memory
        self.spool_dir = Path(spool_dir)
        self.enabled = False
        self._pid = os.getpid()
        self._in_worker = False
        self._base_depth = 0
        self._next_id = 0
        self._stack: list[str] = []
        self._spans: list[dict] = []
        self._bindings: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "chronident" or name.startswith("chronident."))
        ]
        for qualname, counter in self.functions.items():
            module_name, func_name = qualname.rsplit(".", 1)
            home = sys.modules.get(f"chronident.{module_name}")
            original = getattr(home, func_name, None)
            if not callable(original):
                continue
            wrapper = self._wrap(qualname, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._bindings.append((mod, attr, original))
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = True

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bindings):
            setattr(mod, attr, original)
        self._bindings.clear()
        self.enabled = False

    @contextmanager
    def paused(self):
        """Call the wrapped functions untraced, e.g. from correctness checks."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    def _wrap(self, name: str, fn, counter: Counter | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if os.getpid() != self._pid:
                self._enter_worker()
            span_id = f"{self._pid}:{self._next_id}"
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            track_memory = name in self.memory and not tracemalloc.is_tracing()
            if track_memory:
                tracemalloc.start()
            counts: dict = {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts["errors"] = 1
                raise
            finally:
                end = time.perf_counter()
                if track_memory:
                    counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "pid": self._pid,
                    "counts": counts,
                }
                self._spans.append(span)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            if self._in_worker and len(self._stack) == self._base_depth:
                self._spool()
            return result

        return wrapper

    def _enter_worker(self) -> None:
        # the spans copied from the parent at fork belong to the parent; the
        # open stack is kept so worker spans name the parent span that
        # started the pool
        self._pid = os.getpid()
        self._in_worker = True
        self._base_depth = len(self._stack)
        self._spans = []

    def _spool(self) -> None:
        path = self.spool_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span in self._spans:
                fh.write(json.dumps(span) + "\n")
        self._spans = []

    def collect(self) -> tuple[list[dict], int]:
        """All spans of this process and its workers, plus the worker count."""
        spans = list(self._spans)
        workers = 0
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
            path.unlink()
            workers += 1
        return spans, workers


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per-function calls, total time, self time and summed counters.

    Self time is the span's duration minus the part of it covered by its
    child spans; children in parallel workers overlap, so the covered part
    is the length of the union of their intervals.
    """
    children = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    stats: dict[str, dict] = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        reach = start
        for child in sorted(children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = stats.setdefault(
            span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": {}}
        )
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - covered
        for key, value in span["counts"].items():
            if key.startswith("peak_"):
                entry["counts"][key] = max(entry["counts"].get(key, 0), value)
            else:
                entry["counts"][key] = entry["counts"].get(key, 0) + value
    return stats
