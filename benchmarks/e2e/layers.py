"""Per-layer tracing for the end-to-end benchmark, from outside the program.

:data:`TARGETS` is the one table of layer boundaries: each row names a
span and a ``module:qualname`` to wrap.  A function imported into a
caller's namespace is wrapped *there* (``repro.experiments.runner:
check_serializable``, not only ``repro.analysis.serializability``),
because that is the name the caller looks up.  A target the program no
longer has is reported ``absent`` instead of failing the run, so deleting
an engine, executor or shim leaves the benchmark working.

Run as a script, this file is the traced program: ``python layers.py
SPANS_DIR <repro cli args>`` imports ``repro.experiments.cli`` (timed as
``experiments.import``), wraps every target, and calls the CLI's
``main``.  Spans stay in memory and are appended to
``SPANS_DIR/spans-<pid>.jsonl`` when the process ends; a worker forked by
a process pool flushes whenever its outermost span closes, since pool
workers exit without running ``atexit`` hooks.

Each line is ``["span", pid, name, start, duration, id, parent id, key,
returned None]``.  ``key`` is shared by every span under one cell
(``experiments.cell``) or one gateway request (``gateway.submit``).  Self
time is a span's duration minus its children's.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

#: (span name, wrap target).  Several targets may feed one span name.
TARGETS = (
    ("experiments.cell", "repro.experiments.runner:run_instrumented"),
    ("experiments.cell", "repro.gateway.app:run_instrumented"),
    ("experiments.spec_load", "repro.experiments.spec:ExperimentSpec.load"),
    ("experiments.spec_load", "repro.experiments.spec:ExperimentSpec.from_dict"),
    ("workloads.build", "repro.experiments.runner:build_generator"),
    ("workloads.build", "repro.engine.array:WorkloadTensors.from_config"),
    ("workloads.build", "repro.engine.array:WorkloadTensors.materialize"),
    ("system.load", "repro.system.model:RTDBSystem.load_workload"),
    ("system.run", "repro.system.model:RTDBSystem.run"),
    ("metrics.summary", "repro.metrics.stats:MetricsCollector.summary"),
    ("analysis.serializability", "repro.experiments.runner:check_serializable"),
    ("results.open", "repro.experiments.cli:open_store"),
    ("results.open", "repro.experiments.runner:open_store"),
    ("results.open", "repro.gateway.app:open_store"),
    ("results.fingerprint", "repro.experiments.runner:cell_fingerprint"),
    ("results.fingerprint", "repro.experiments.runner:config_payload"),
    ("results.fingerprint", "repro.gateway.app:cell_fingerprint"),
    ("results.fingerprint", "repro.gateway.app:config_payload"),
    ("results.fingerprint", "repro.results.record:cell_fingerprint"),
    ("results.append", "repro.results.store:RunStore.append"),
    ("results.append", "repro.results.sqlite_store:SQLiteRunStore.append"),
    ("results.get", "repro.results.store:BaseRunStore.get"),
    ("telemetry.bus", "repro.telemetry.bus:EventBus.publish"),
    ("gateway.submit", "repro.gateway.app:GatewayApp.submit"),
    ("gateway.claim", "repro.experiments.distributed:JobBoard.claim_payload"),
    ("gateway.board_complete", "repro.experiments.distributed:JobBoard.complete"),
)

#: Span names that start a new key (a cell, a gateway request).
KEYED = {"experiments.cell": "cell", "gateway.submit": "req"}

#: Targets returning a lazy workload generator: its ``generate()`` is
#: consumed inside ``RTDBSystem.load_workload``, so the iteration is
#: timed separately and booked to ``workloads.build``.
LAZY = {"repro.experiments.runner:build_generator"}


class Recorder:
    """In-memory span buffer for one process, with per-thread stacks."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._reset()
        os.register_at_fork(after_in_child=self._fork_child)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.meta: list = []
        self.forked = False
        self._ids = itertools.count(1)
        self._keys = itertools.count(1)
        self._local = threading.local()

    def _fork_child(self) -> None:
        # The parent's buffer and stacks are not this process's spans.
        self._reset()
        self.forked = True

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, func, args, kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        parent, key = stack[-1] if stack else (0, None)
        if name in KEYED:
            key = f"{KEYED[name]}-{self.pid}-{next(self._keys)}"
        span_id = next(self._ids)
        stack.append((span_id, key))
        result = None
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
            return result
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            self.spans.append(
                (name, start, duration, span_id, parent, key, result is None)
            )
            if self.forked and not stack:
                self.flush()

    def timed_iter(self, name: str, iterable):
        """Yield from ``iterable``, booking the time spent in it as a span."""
        iterator = iter(iterable)
        total = 0.0
        first = None
        parent = key = None
        try:
            while True:
                start = time.perf_counter()
                try:
                    item = next(iterator)
                finally:
                    total += time.perf_counter() - start
                    if first is None:
                        first = start
                        stack = self._stack()
                        parent, key = stack[-1] if stack else (0, None)
                yield item
        except StopIteration:
            return
        finally:
            if first is not None:
                self.spans.append(
                    (name, first, total, next(self._ids), parent, key, False)
                )

    def flush(self) -> None:
        """Append buffered spans to this process's file."""
        if not self.spans and not self.meta:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(["meta", *m]) for m in self.meta]
        lines += [json.dumps(["span", self.pid, *span]) for span in self.spans]
        with open(self.directory / f"spans-{self.pid}.jsonl", "a") as out:
            out.write("\n".join(lines) + "\n")
        self.spans = []
        self.meta = []


class _LazyGenerator:
    """Proxy whose ``generate()`` iteration is timed by the recorder."""

    def __init__(self, inner, recorder: Recorder, name: str) -> None:
        self._inner = inner
        self._recorder = recorder
        self._name = name

    def generate(self, *args, **kwargs):
        return self._recorder.timed_iter(
            self._name, self._inner.generate(*args, **kwargs)
        )

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _wrapper(recorder: Recorder, name: str, target: str, func):
    if target in LAZY:
        @functools.wraps(func)
        def lazy(*args, **kwargs):
            inner = recorder.call(name, func, args, kwargs)
            return _LazyGenerator(inner, recorder, name)
        return lazy

    @functools.wraps(func)
    def wrapped(*args, **kwargs):
        return recorder.call(name, func, args, kwargs)
    return wrapped


def _resolve(target: str):
    """``(owner, attribute)`` for a target, or None when it is gone."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


def install(recorder: Recorder) -> list:
    """Wrap every target in :data:`TARGETS`; returns the absent ones."""
    absent = []
    for name, target in TARGETS:
        resolved = _resolve(target)
        if resolved is None:
            absent.append(target)
            continue
        owner, attr = resolved
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(_wrapper(recorder, name, target, raw.__func__))
        elif callable(raw):
            wrapped = _wrapper(recorder, name, target, raw)
        else:
            absent.append(target)
            continue
        setattr(owner, attr, wrapped)
    return absent


def main(argv: list) -> int:
    """``layers.py SPANS_DIR <cli args>``: run the CLI with every layer traced."""
    recorder = Recorder(Path(argv[0]))
    atexit.register(recorder.flush)
    start = time.perf_counter()
    import repro.experiments.cli as cli

    recorder.spans.append(
        ("experiments.import", start, time.perf_counter() - start,
         next(recorder._ids), 0, None, False)
    )
    recorder.meta.append(("absent", install(recorder)))
    return cli.main(argv[1:])


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------


def load_spans(directory: Path) -> tuple[list, set]:
    """All spans under ``directory`` as dicts, and the absent targets.

    Each dict carries ``self`` (duration minus its children's) and
    ``nested`` (an ancestor has the same name, so the span's time is
    already counted in that ancestor's).
    """
    spans = []
    absent: set = set()
    for path in sorted(Path(directory).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            row = json.loads(line)
            if row[0] == "meta" and row[1] == "absent":
                absent.update(row[2])
            elif row[0] == "span":
                pid, name, start, duration, span_id, parent, key, none = row[1:]
                spans.append({
                    "pid": pid, "name": name, "start": start, "dur": duration,
                    "id": span_id, "parent": parent, "key": key,
                    "none": none, "self": duration, "nested": False,
                })
    by_id = {(span["pid"], span["id"]): span for span in spans}
    for span in spans:
        parent = by_id.get((span["pid"], span["parent"]))
        if parent is not None:
            parent["self"] -= span["dur"]
        while parent is not None:
            if parent["name"] == span["name"]:
                span["nested"] = True
                break
            parent = by_id.get((parent["pid"], parent["parent"]))
    return spans, absent


def absent_layers(absent: set) -> dict:
    """Span name -> its targets, for names whose every target is absent."""
    targets: dict = {}
    for name, target in TARGETS:
        targets.setdefault(name, []).append(target)
    return {
        name: listed for name, listed in targets.items()
        if all(target in absent for target in listed)
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
