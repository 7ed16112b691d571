"""Spans around calls into zdgenus's public functions, recorded from outside.

A Tracer replaces each function listed in TARGETS with a wrapper, at its
defining module and at every other zdgenus module that bound the same
function object with `from ... import` (cli, classify, and the modules that
call each other through such names).  Each call records a span
(name, start, end, parent); spans stay in memory and are written when the
run ends.  span_stats() turns the spans of one or more processes into
per-name totals; a span's self time is its duration minus the durations
of its direct children, which never overlap because the program is
single-threaded.
"""

from __future__ import annotations

import functools
import sys
import time
import warnings
from collections import defaultdict

TARGETS = {
    "zdgenus.rings": ("build_ring", "product_tables", "iso_check"),
    "zdgenus.ideals": ("enumerate_ideals", "quotient", "is_prime",
                       "is_radical"),
    "zdgenus.graphs": ("ideal_zero_divisor_graph", "zero_divisor_graph",
                       "diameter", "girth", "clique_number"),
    "zdgenus.genus": ("exact_genus", "is_planar", "face_trace",
                      "euler_lower_bound", "subgraph_lower_bound"),
    "zdgenus.classify": ("verify",),
}

SPANS = frozenset(f"{mod.rsplit('.', 1)[1]}.{fn}"
                  for mod, fns in TARGETS.items() for fn in fns)

# genus.lower_bounds.self_s sums these two spans
LOWER_BOUND_SPANS = ("genus.euler_lower_bound", "genus.subgraph_lower_bound")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.genus_calls: list[tuple] = []  # (graph, GenusBounds)
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, record_genus: bool = False):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "classify.verify":
                theorem = args[0] if args else kwargs["theorem"]
                span_name = f"{name}.{getattr(theorem, 'value', theorem)}"
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
            if record_genus:
                self.genus_calls.append((args[0], result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every zdgenus module attribute bound to it.
        zdgenus.catalog is reached through sys.modules, because the package
        attribute of that name is the catalog() function."""
        modules = [m for name, m in sys.modules.items()
                   if name == "zdgenus" or name.startswith("zdgenus.")]
        for mod_name, fns in TARGETS.items():
            layer = mod_name.rsplit(".", 1)[1]
            for fn_name in fns:
                orig = getattr(sys.modules[mod_name], fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", orig,
                                     record_genus=fn_name == "exact_genus")
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)

    def genus_records(self) -> list[dict]:
        """One record per exact_genus call, with the input's WL hash.
        Called after the run, so hashing stays outside every span."""
        import networkx as nx

        out = []
        for g, bounds in self.genus_calls:
            gx = nx.Graph()
            gx.add_nodes_from(range(g.n))
            gx.add_edges_from(g.edges())
            with warnings.catch_warnings():
                # networkx notes that unlabelled hashes changed in 3.5;
                # only equality within one run matters here
                warnings.simplefilter("ignore", UserWarning)
                wl = nx.weisfeiler_lehman_graph_hash(gx)
            out.append({
                "wl": f"{g.n}:{g.m}:{wl}",
                "lower": bounds.lower,
                "upper": bounds.upper,
                "provenance": list(bounds.provenance),
            })
        return out


def span_stats(processes: list[list[list]]) -> dict[str, dict]:
    """calls, total, self and max seconds per span name, over the span
    lists of one or more processes."""
    stats: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "max_s": 0.0})
    for spans in processes:
        child_time = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for k, (name, start, end, _parent) in enumerate(spans):
            s = stats[name]
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child_time[k]
            s["max_s"] = max(s["max_s"], end - start)
    return dict(stats)


def genus_counts(records: list[dict]) -> dict[str, float]:
    """Counts read from GenusBounds.provenance over exact_genus calls.

    A call is searched when the rotation search ran: it either embedded at
    some level or ran out of budget.  It hits at the lower bound when it
    embedded without exhausting any level first."""
    searched = [r for r in records
                if any(p.startswith("embedded at genus")
                       or p == "budget exhausted" for p in r["provenance"])]
    first_level = [r for r in searched
                   if r["upper"] is not None
                   and not any(p.startswith("search exhausted genus")
                               for p in r["provenance"])]
    return {
        "genus.settled_planar": sum(r["upper"] == 0 for r in records),
        "genus.settled_search": sum(
            r["upper"] is not None and r["upper"] > 0 for r in records),
        "genus.settled_open": sum(r["upper"] is None for r in records),
        "genus.levels_exhausted": sum(
            p.startswith("search exhausted genus")
            for r in records for p in r["provenance"]),
        "genus.searched_calls": len(searched),
        "genus.lower_bound_hit_ratio": (
            len(first_level) / len(searched) if searched else 1.0),
        "genus.distinct_wl": len({r["wl"] for r in records}),
    }
