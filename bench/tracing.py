"""Layer tracing from outside the package.

``Tracer.install()`` wraps the public functions of every loaded
``pbstages`` module and rebinds each wrapper wherever a module holds a
reference to the original (``pbstages.strategy.allocation_value`` as well
as ``pbstages.preferences.allocation_value``), so calls are seen at the
place the caller looks them up.  ``uninstall()`` puts the originals back.

Each traced call is a span with a name, start, end, parent span and task
id.  Self time (a span's duration minus the time its child spans cover)
and call counts are aggregated for every span as it ends; every span is
also kept in memory, in compact columns, and written out by
``write_spans``.  The hottest functions are only counted, never timed:
their time stays in the span of whoever called them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# Functions that are only counted: hot enough that a span per call would
# dominate the run, cheap enough that their time may stay with the caller.
COUNT_ONLY = {
    "pbstages.core.Instance.cost",
    "pbstages.core.Instance.total_cost",
    "pbstages.core.tiebreak_project",
    "pbstages.shortlisting.geometric_median",
    "pbstages.shortlisting.proposal_union",
    "pbstages.shortlisting.check_proposals",
    "pbstages.allocation.check_ballots",
    "pbstages.preferences.check_model",
    "pbstages.preferences.check_ranking",
    "pbstages.strategy.check_mode",
    "pbstages.strategy.check_variant",
    "pbstages.verification.ids_list",
}
METHODS = ("pbstages.core.Instance.cost", "pbstages.core.Instance.total_cost")
CACHE = "pbstages.verification.OutcomeCache.__call__"
ALLOCATION_RULES = ("pbstages.allocation.greedy_approval", "pbstages.allocation.approval_maximising")


def layer_of(name: str) -> str:
    """``pbstages.core.Instance.cost`` -> ``core``; benchmark spans -> ``bench``."""
    parts = name.split(".")
    return parts[1] if parts[0] == "pbstages" else parts[0]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans = 0
        self.cache_lookups = 0
        self.cache_misses = 0
        self._rule_calls = 0
        self._stack: list[list] = []
        self.task = -1
        self.kept = {
            "name": array("H"),
            "parent": array("i"),
            "task": array("i"),
            "start": array("d"),
            "end": array("d"),
        }
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._ids[name]

    def enter(self, nid: int) -> list:
        index = self.spans
        self.spans += 1
        parent = self._stack[-1][0] if self._stack else -1
        start = perf_counter()
        kept = self.kept
        kept["name"].append(nid)
        kept["parent"].append(parent)
        kept["task"].append(self.task)
        kept["start"].append(start)
        kept["end"].append(start)
        entry = [index, nid, start, 0.0]
        self._stack.append(entry)
        return entry

    def exit(self, entry: list) -> None:
        end = perf_counter()
        self._stack.pop()
        index, nid, start, covered = entry
        duration = end - start
        self.calls[nid] += 1
        self.self_s[nid] += duration - covered
        if self._stack:
            self._stack[-1][3] += duration
        self.kept["end"][index] = end

    @contextmanager
    def span(self, name: str, task: int):
        """A benchmark-side span (one task, or the set-up as task -1)."""
        self.task = task
        entry = self.enter(self.name_id(name))
        try:
            yield
        finally:
            self.exit(entry)
            self.task = -1

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name: str, fn):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit
        counts_rules = name in ALLOCATION_RULES
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    entry = enter(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_(entry)
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_rules:
                tracer._rule_calls += 1
            entry = enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(entry)

        return wrapper

    def _counted(self, name: str, fn):
        nid = self.name_id(name)
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _cache(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(cache, ballots):
            tracer.cache_lookups += 1
            before = tracer._rule_calls
            try:
                return fn(cache, ballots)
            finally:
                if tracer._rule_calls != before:
                    tracer.cache_misses += 1

        return wrapper

    def install(self) -> None:
        modules = {
            name: module
            for name, module in sys.modules.items()
            if name.startswith("pbstages.") and module is not None
        }
        wrappers: dict[int, object] = {}
        for modname, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != modname:
                    continue
                name = f"{modname}.{attr}"
                wrap = self._counted if name in COUNT_ONLY else self._timed
                wrappers[id(value)] = (value, wrap(name, value))
        for modname, module in modules.items():
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])
        core = modules.get("pbstages.core")
        verification = modules.get("pbstages.verification")
        for name in METHODS:
            owner = getattr(core, "Instance", None)
            method = name.rsplit(".", 1)[1]
            if owner is not None and hasattr(owner, method):
                original = vars(owner)[method]
                self._restore.append((owner, method, original))
                setattr(owner, method, self._counted(name, original))
        owner = getattr(verification, "OutcomeCache", None)
        if owner is not None and "__call__" in vars(owner):
            original = vars(owner)["__call__"]
            self._restore.append((owner, "__call__", original))
            owner.__call__ = self._cache(original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def count(self, *names: str) -> int:
        return sum(self.calls[self._ids[n]] for n in names if n in self._ids)

    def self_ms(self, *names: str) -> float:
        return 1000.0 * sum(self.self_s[self._ids[n]] for n in names if n in self._ids)

    def layer_self_ms(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            layer = layer_of(name)
            out[layer] = out.get(layer, 0.0) + 1000.0 * self.self_s[nid]
        return out

    def write_spans(self, stem) -> None:
        """``<stem>.json`` describes the columns of the raw ``<stem>.bin``."""
        kept = self.kept
        header = {
            "names": self.names,
            "spans": self.spans,
            "columns": [[column, kept[column].typecode] for column in kept],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
            "parent": "index of the parent span, -1 for none; task -1 is set-up",
        }
        with open(f"{stem}.bin", "wb") as handle:
            for column in kept.values():
                column.tofile(handle)
        with open(f"{stem}.json", "w") as handle:
            json.dump(header, handle, indent=1)
