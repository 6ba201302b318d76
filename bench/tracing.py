"""Spans around calls into cochange, recorded from outside the package.

``Tracer.install`` rebinds every public function of the layer modules,
in every module that binds it (``branch_commits`` lives in both
``history`` and ``branches``), to a wrapper that records a span: name,
start, end and parent.  ``remove`` puts every original back.  Modules are
reached through ``importlib`` because the package namespace shadows the
``cochange.recommend`` module with the ``recommend`` function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path
from types import FunctionType

LAYERS = ("cli", "ingest", "history", "recommend", "mining", "evaluation",
          "branches", "reporting")

# Called once per record, file or printed value; a span each would cost
# more than the work it measures.  Their time stays in the caller's self time.
UNWRAPPED = frozenset({
    "history.validate_commit_id",
    "history.validate_file_path",
    "history.additional_changes",
    "reporting.fmt_decimal",
    "reporting.frac_json",
})

# Spans kept for the output file; calls beyond it are only aggregated.
SPAN_CAP = 300_000


def _layer_modules():
    return {name: importlib.import_module(f"cochange.{name}") for name in LAYERS}


def public_functions() -> dict[str, FunctionType]:
    """``layer.function`` -> function, for every wrapped public function."""
    found = {}
    for layer, module in _layer_modules().items():
        for name, value in vars(module).items():
            key = f"{layer}.{name}"
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not name.startswith("_") and key not in UNWRAPPED):
                found[key] = value
    return found


def _observe_counts(counters: dict, name: str, args, result) -> None:
    """Counts taken where the work happens, for the per-layer ratios."""
    if name == "mining.single_consequent_rules":
        counters["raw_rules"] += len(result)
        counters["mined_transactions"] += len(args[0])
    elif name == "mining.filter_rules":
        counters["kept_rules"] += len(result)
    elif name == "history.strategy_walk":
        counters["walk_entries"] += len(result)
    elif name == "history.branch_commits":
        counters["branch_merges"].add(args[1])
    elif name == "evaluation.run_experiment":
        counters["commits_considered"] += result.commits_considered
        counters["commits_eligible"] += result.commits_eligible
        counters["cases"] += result.events
    elif name == "ingest.load_snapshot":
        counters["snapshot_bytes"] += Path(args[0]).stat().st_size
    elif name == "ingest.save_snapshot":
        counters["snapshot_bytes"] += Path(args[1]).stat().st_size


class Tracer:
    """Records spans while installed; aggregates calls, total and self time."""

    def __init__(self) -> None:
        self.reset()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new pass: clear aggregates, counters and spans."""
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped = 0
        self.counters = {
            "raw_rules": 0, "mined_transactions": 0, "kept_rules": 0,
            "walk_entries": 0, "branch_merges": set(), "commits_considered": 0,
            "commits_eligible": 0, "cases": 0, "snapshot_bytes": 0,
            "git_calls": 0, "git_wait_s": 0.0,
        }

    def _wrap(self, name: str, fn: FunctionType):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                row = self.stats.setdefault(name, [0, 0.0, 0.0])
                row[0] += 1
                row[1] += duration
                row[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], name, start, end,
                                       parent[0] if parent is not None else -1))
                else:
                    self.dropped += 1
            _observe_counts(self.counters, name, args, result)
            return result

        traced.__wrapped_by_bench__ = True
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self._wrap(name, fn) for name, fn in public_functions().items()}
        modules = [importlib.import_module("cochange"), *_layer_modules().values()]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._patches.append((module, attr, value))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    @contextmanager
    def count_git(self):
        """Count ``git`` subprocesses and the time spent waiting on them."""
        original = subprocess.run

        def counted(cmd, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(cmd, *args, **kwargs)
            finally:
                if cmd and str(cmd[0]) == "git":
                    self.counters["git_calls"] += 1
                    self.counters["git_wait_s"] += time.perf_counter() - start

        subprocess.run = counted
        try:
            yield
        finally:
            subprocess.run = original

    def write_spans(self, path: Path) -> None:
        """Spans of the current pass as JSON: one [id, name, start, end,
        parent] row each, times in seconds, parent -1 for a root span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"columns": ["id", "name", "start_s", "end_s", "parent"],
                   "dropped": self.dropped, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n",
                        encoding="utf-8")


def installed_wrappers() -> list[str]:
    """Names still bound to a tracing wrapper anywhere in the package."""
    modules = [importlib.import_module("cochange"), *_layer_modules().values()]
    return sorted(
        f"{module.__name__}.{attr}"
        for module in modules
        for attr, value in vars(module).items()
        if getattr(value, "__wrapped_by_bench__", False)
    )
