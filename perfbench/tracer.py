"""Run one primewheel command with spans around the calls between its modules.

    python perfbench/tracer.py <primewheel arguments...> <fd>

Behaves like `python -m primewheel <arguments...>` (same stdout, stderr
and exit code) but first wraps, from outside the package, the names
through which the layers call each other: `cli.enumerate_interval`,
`cli.theorems.verify_theorem1`, `theorems.oracle.coprime_scan`,
`enumeration.sorted_block_residues` and so on. Internal calls within a
module are left alone. When the command ends, the span tree is written
as JSON to file descriptor <fd>.

Spans with the same name and the same parent are merged into one node
that keeps the call count, the summed duration, the first start and the
last end, so a call made once per value costs one node, not one per
call. A span around a generator covers only the time spent inside its
next() calls. Peak-RSS rises are taken with getrusage(RUSAGE_SELF) on
every span except the per-value ones, where the syscall would cost more
than the call it measures.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
from bisect import bisect_left
from time import perf_counter

from primewheel import cli, enumeration, theorems, wheel
from primewheel.errors import BudgetExceeded

# (caller module, name it calls through, layer of the callee, kind)
# kind: "call" is timed with RSS, "hot" (once per value) without RSS,
# "gen" wraps a generator.
BOUNDARIES = (
    (cli, "enumerate_interval", "enumeration", "gen"),
    (cli, "count_interval", "enumeration", "call"),
    (cli, "count_block", "enumeration", "call"),
    (cli, "build_canonical", "wheel", "call"),
    (cli, "build_raw", "wheel", "call"),
    (cli, "canonicalize", "wheel", "call"),
    (cli, "decompose", "wheel", "hot"),
    (theorems, "enumerate_interval", "enumeration", "gen"),
    (theorems, "build_canonical", "wheel", "call"),
    (theorems, "solve_unit", "diophantine", "hot"),
    (theorems, "nth_solution", "diophantine", "hot"),
    (wheel, "solve_unit", "diophantine", "hot"),
    (wheel, "nth_solution", "diophantine", "hot"),
)
# Modules reached as `module.function`: the caller's reference to the
# module is replaced by a stand-in whose listed functions are wrapped.
MODULE_BOUNDARIES = (
    (cli, "theorems", "theorems", ("verify_theorem1", "verify_corollary2", "search_identity25",
                                   "check_identity26", "compare_pi"), ()),
    (cli, "oracle", "oracle", ("primes_in", "coprime_scan", "rough_sieve", "factor_profile"),
     ("omega", "spf")),
    (theorems, "oracle", "oracle", ("primes_in", "coprime_scan", "rough_sieve"), ("omega",)),
)


def _peak_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Node:
    """Merged spans of one name under one parent."""

    __slots__ = ("id", "name", "layer", "parent", "calls", "dur", "start", "end",
                 "rss_rise_mb", "budget_s", "counts")

    def __init__(self, idx: int, name: str, layer: str, parent: int) -> None:
        self.id, self.name, self.layer, self.parent = idx, name, layer, parent
        self.calls, self.dur, self.start, self.end = 0, 0.0, None, None
        self.rss_rise_mb, self.budget_s = 0.0, 0.0
        self.counts: dict[str, int] = {}

    def close(self, t0: float, t1: float) -> None:
        self.calls += 1
        self.dur += t1 - t0
        if self.start is None:
            self.start = t0
        self.end = t1

    def add(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Spans kept in memory as a tree of merged nodes; see the module docstring."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._index: dict[tuple[str, int], Node] = {}
        self._stack = [-1]

    def _node(self, name: str, layer: str) -> Node:
        key = (name, self._stack[-1])
        node = self._index.get(key)
        if node is None:
            node = self._index[key] = Node(len(self.nodes), name, layer, self._stack[-1])
            self.nodes.append(node)
        return node

    def wrap(self, name: str, layer: str, fn, rss: bool = True, after=None):
        """`fn` inside a span; `after(node, args, result)` records counts."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            node = self._node(name, layer)
            stack.append(node.id)
            rss0 = _peak_mb() if rss else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                node.budget_s += perf_counter() - t0
                raise
            finally:
                node.close(t0, perf_counter())
                stack.pop()
                if rss:
                    node.rss_rise_mb = max(node.rss_rise_mb, _peak_mb() - rss0)
            if after is not None:
                after(node, args, result)
            return result

        return traced

    def wrap_generator(self, name: str, layer: str, fn):
        """A generator function whose span covers only the time inside next()."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._drive(self._node(name, layer), fn(*args, **kwargs))

        return traced

    def _drive(self, node: Node, it):
        push, pop, step, clock = self._stack.append, self._stack.pop, it.__next__, perf_counter
        busy, values = 0.0, 0
        node.calls += 1
        first = t1 = clock()  # the body starts at the consumer's first next()
        try:
            while True:
                push(node.id)
                t0 = clock()
                try:
                    value = step()
                except StopIteration:
                    return
                finally:
                    t1 = clock()
                    busy += t1 - t0
                    pop()
                values += 1
                yield value
        finally:
            node.dur += busy
            node.add("values", values)
            if node.start is None:
                node.start = first
            node.end = t1

    def wrap_table(self, fn):
        """enumeration.sorted_block_residues, split into cold builds and cache hits."""

        @functools.wraps(fn)
        def traced(form):
            misses = fn.cache_info().misses
            rss0 = _peak_mb()
            t0 = perf_counter()
            try:
                table = fn(form)
            finally:
                t1 = perf_counter()
                built = fn.cache_info().misses > misses
                name = "enumeration.table_build" if built else "enumeration.table_hit"
                node = self._node(name, "enumeration")
                node.close(t0, t1)
                node.rss_rise_mb = max(node.rss_rise_mb, _peak_mb() - rss0)
            if built:
                node.add("entries", len(table))
                node.add("bytes", table_bytes(table))
            return table

        traced.cache_info = fn.cache_info
        return traced

    def to_json(self, cache_info) -> dict:
        info = cache_info() if cache_info is not None else None
        return {"nodes": [node.to_json() for node in self.nodes],
                "cache": {"hits": info.hits if info else 0, "misses": info.misses if info else 0}}


def table_bytes(table) -> int:
    """sys.getsizeof of a residue table plus that of every int it holds.

    The table is sorted and non-negative, so the ints of each size are
    counted with bisect: sizing 1.7M ints one by one takes half a second.
    """
    total = sys.getsizeof(table)
    if not isinstance(table, tuple):
        return total  # e.g. an array, whose size includes its items
    idx, low, high = 0, 0, 1
    while idx < len(table):
        end = bisect_left(table, high)
        total += (end - idx) * sys.getsizeof(low)
        idx, low, high = end, high, high << 30
    return total


def _width(node: Node, args, result) -> None:
    node.add("width", getattr(args[0], "width", 0) if args else 0)


def _rows(node: Node, args, result) -> None:
    node.add("rows", int(result.details.get("rows_scanned", 0)))


AFTER = {"primes_in": _width, "coprime_scan": _width, "rough_sieve": _width,
         "search_identity25": _rows}


class _ModuleView:
    """A module as one caller sees it, with some of its functions wrapped."""

    def __init__(self, module, wrapped: dict) -> None:
        self._module = module
        self.__dict__.update(wrapped)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def install(tracer: Tracer):
    """Wrap every boundary that exists in this version of the package and
    return the residue-table cache's cache_info (None without that cache).
    Names a later version drops are skipped; their metrics read 0."""
    for module, attr, layer, kind in BOUNDARIES:
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        name = f"{_short(module)}.{attr}"
        if kind == "gen":
            setattr(module, attr, tracer.wrap_generator(name, layer, fn))
        else:
            setattr(module, attr, tracer.wrap(name, layer, fn, rss=kind == "call"))
    for module, attr, layer, calls, hot in MODULE_BOUNDARIES:
        target = getattr(module, attr, None)
        if target is None:
            continue
        prefix = f"{_short(module)}.{attr}"
        wrapped = {
            fn: tracer.wrap(f"{prefix}.{fn}", layer, getattr(target, fn), rss=fn not in hot,
                            after=AFTER.get(fn))
            for fn in (*calls, *hot)
            if hasattr(target, fn)
        }
        setattr(module, attr, _ModuleView(target, wrapped))
    first = wheel.PrimeBasis.first.__func__
    wheel.PrimeBasis.first = classmethod(tracer.wrap("wheel.PrimeBasis.first", "wheel", first))
    table = getattr(enumeration, "sorted_block_residues", None)
    if not hasattr(table, "cache_info"):
        return None
    enumeration.sorted_block_residues = tracer.wrap_table(table)
    return table.cache_info


def main() -> int:
    *argv, fd = sys.argv[1:]
    tracer = Tracer()
    cache_info = install(tracer)
    try:
        return tracer.wrap("cli.main", "cli", cli.main)(argv)
    finally:
        with os.fdopen(int(fd), "w") as out:
            json.dump(tracer.to_json(cache_info), out)


if __name__ == "__main__":
    sys.exit(main())
