"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds each function in ``TRACED`` to a timing wrapper
in every ``freeknot`` module namespace that holds it.  A ``from .diagrams
import splice_out`` gives each importer its own binding, so every copy is
replaced, not only the defining module's.  Calls are aggregated per
(function, caller) as (count, total time, self time), where self time is the
total minus the time of traced callees; one record per call would not fit
the ~10^5 states a ``statesum`` run makes.  Op spans are kept one per op.
"""

from __future__ import annotations

import functools
import sys
import time

#: module -> functions whose calls and self time the traced run reports
TRACED = {
    "cli": ("main",),
    "diagrams": ("splice_out", "unicursal_components", "canonicalize", "enumerate_codes",
                 "to_framed", "from_framed", "parse_gauss_code"),
    "moves": ("reduce_r2", "find_r2", "apply_r2_decrease", "find_all_moves", "find_r3",
              "find_increases", "apply_move"),
    "parity": ("interlacement", "gaussian_parity", "component_parity"),
    "brackets": ("resolve", "alex_bracket", "kauffman_bracket", "delta", "kdelta", "formal_sum"),
    "analysis": ("lower_bound_knot", "lower_bound_link2", "realizable", "graphs_isomorphic",
                 "explore_moves", "bfs_equivalent"),
}

TRACED_NAMES = [f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns]

#: functions whose SearchReport.visited is summed into ``search_visited``
_SEARCHES = ("analysis.explore_moves", "analysis.bfs_equivalent")


class Tracer:
    def __init__(self):
        self.stats: dict = {}       # (function, caller) -> [calls, total_ns, self_ns]
        self.spans: list = []       # (op index, op name, start_ns, end_ns)
        self.search_visited = 0
        self._stack: list = []      # frames [name, ns spent in traced callees]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "freeknot" or name.startswith("freeknot.")]
        for mod, fns in TRACED.items():
            home = sys.modules[f"freeknot.{mod}"]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{mod}.{fn}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def _wrap(self, name: str, fn):
        stats, stack, clock = self.stats, self._stack, time.perf_counter_ns
        search = name in _SEARCHES

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                caller = stack[-1] if stack else None
                key = (name, caller[0] if caller else "-")
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if caller is not None:
                    caller[1] += elapsed
            if search:
                self.search_visited += result.visited
            return result

        functools.update_wrapper(traced, fn)
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def run_op(self, index: int, name: str, call):
        """Run one op as the root span ``op:<name>``."""
        frame = [f"op:{name}", 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return call()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((index, name, t0, t1))

    def snapshot(self) -> dict:
        """Per-function totals so far: name -> (calls, self seconds), plus
        the counters derived from callers and results."""
        per_fn = {name: [0, 0] for name in TRACED_NAMES}
        for (name, _caller), (calls, _total, self_ns) in self.stats.items():
            per_fn[name][0] += calls
            per_fn[name][1] += self_ns
        out = {}
        for name, (calls, self_ns) in per_fn.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_ns / 1e9
        out["brackets.states"] = per_fn["brackets.resolve"][0]
        out["analysis.realizable.words_scanned"] = \
            self.stats.get(("parity.interlacement", "analysis.realizable"), [0])[0]
        out["analysis.search.visited"] = self.search_visited
        return out

    def table(self) -> list:
        """Rows (function, caller, calls, total_s, self_s), heaviest self first."""
        rows = [(fn, caller, c, tot / 1e9, own / 1e9)
                for (fn, caller), (c, tot, own) in self.stats.items()]
        return sorted(rows, key=lambda r: -r[4])
