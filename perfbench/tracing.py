"""Per-layer spans for a traced run, recorded from outside the package.

The tracer rebinds the module-level names listed in WRAP_POINTS, which
covsize's callers resolve at call time, to wrappers that record one span per
call.  A layer's self time is its spans' duration minus the wrapped calls
made inside them, and the benchmark's own loop is the root, so the self
times and the root's remainder add up to the traced wall time exactly.  If a
later change stops calling a wrapped name, that time moves into the caller's
self time; a wrapped name that no longer exists is reported, never skipped
silently.  Only one thread may run while the tracer is installed.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter

# (module, name, layer).  The submodules are reached through importlib,
# because the package attribute `covsize.coverage` is the function.
WRAP_POINTS = (
    ("covsize", "min_sample_size", "search"),
    ("covsize", "min_coverage", "minimize"),
    ("covsize", "grid_min_coverage", "oracle.grid"),
    ("covsize.search", "min_coverage", "minimize"),
    ("covsize.minimize", "candidate_set_for", "candidates"),
    ("covsize.minimize", "coverage", "coverage"),
    ("covsize.coverage", "acceptance_window", "coverage.window"),
    ("covsize.coverage", "prob_range", "families.prob"),
    ("covsize.oracle", "indicator_coverage", "oracle.indicator"),
    ("covsize.oracle", "prob_range", "oracle.prob"),
    ("covsize.oracle", "candidate_set_for", "candidates"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        # bound arguments of every production prob_range call, for counting terms
        self._prob_calls: list = []
        # time covered by wrapped calls, one entry per open span; [0] is the root
        self._children = [0.0]
        self._installed: list = []
        self._hooks = {
            ("covsize.search", "min_coverage"): self._count_search_step,
            ("covsize.minimize", "candidate_set_for"): self._count_points,
            ("covsize.oracle", "candidate_set_for"): self._count_oracle_points,
            ("covsize.coverage", "prob_range"): self._keep_prob_call,
            ("covsize", "grid_min_coverage"): self._count_grid_rows,
        }

    def wrap(self, layer: str, fn, hook=None):
        children, clock = self._children, time.perf_counter
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(fn, args, kwargs, result)
                return result
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                calls[layer] += 1
                self_s[layer] += elapsed - inner

        return traced

    def install(self) -> None:
        for module_name, name, layer in WRAP_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, name, None)
            if original is None:
                self.missing.append(f"{module_name}.{name}")
                continue
            hook = self._hooks.get((module_name, name))
            setattr(module, name, self.wrap(layer, original, hook))
            self._installed.append((module, name, original))

    def uninstall(self) -> None:
        while self._installed:
            module, name, original = self._installed.pop()
            setattr(module, name, original)

    @property
    def attributed_s(self) -> float:
        """Time covered by top-level wrapped calls since the tracer was made."""
        return self._children[0]

    # hooks run inside the span of the call they count

    def _count_search_step(self, fn, args, kwargs, report) -> None:
        self.counts["search.n_examined"] += 1
        self.counts["search.evals"] += len(report.evaluations)

    def _count_points(self, fn, args, kwargs, cset) -> None:
        self.counts["candidates.points"] += len(cset)

    def _count_oracle_points(self, fn, args, kwargs, cset) -> None:
        self.counts["candidates.points"] += len(cset)
        self.counts["oracle.candidate_points"] += len(cset)

    def _keep_prob_call(self, fn, args, kwargs, value) -> None:
        self._prob_calls.append((fn, args, kwargs))

    def _count_grid_rows(self, fn, args, kwargs, value) -> None:
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        a, b, step = bound["a"], bound["b"], bound["grid"].step
        self.counts["oracle.grid_rows"] += math.floor((b - a) / step) + 1

    def terms(self) -> int:
        """pmf terms summed by the production prob_range calls, over clipped windows."""
        from covsize.families import resolve_family

        signatures: dict = {}
        total = 0
        for fn, args, kwargs in self._prob_calls:
            if fn not in signatures:
                signatures[fn] = inspect.signature(fn)
            bound = signatures[fn].bind(*args, **kwargs).arguments
            fam = resolve_family(bound["family"])
            n, k, l, theta = bound["n"], bound["k"], bound["l"], bound["theta"]
            kmin, kmax = fam.support_bound(n)
            lo = max(k, kmin)
            if l is not None:
                hi = l if kmax is None else min(l, kmax)
            elif kmax is not None:
                hi = kmax
            else:
                hi = max(fam.tail_cutoff(n, theta), lo)
            total += max(hi - lo + 1, 0)
        return total

    def layer_metrics(self, passes: int, wall_s: float) -> dict[str, float]:
        """Per-pass layer figures; wall_s is the traced time of all passes."""
        calls, self_s, counts = self.calls, self.self_s, self.counts
        terms = self.terms()
        searches = calls["search"]
        wrapped_calls = sum(calls.values())
        overhead_s = wrapped_calls * wrapper_cost_s()
        return {
            "search.n_examined": counts["search.n_examined"] // passes,
            "search.evals_per_answer": counts["search.evals"] / searches if searches else 0.0,
            "search.self_s": self_s["search"] / passes,
            "minimize.calls": calls["minimize"] // passes,
            "minimize.self_s": self_s["minimize"] / passes,
            "candidates.calls": calls["candidates"] // passes,
            "candidates.points": counts["candidates.points"] // passes,
            "candidates.s": self_s["candidates"] / passes,
            "coverage.evals": calls["coverage"] // passes,
            "coverage.window_s": self_s["coverage.window"] / passes,
            "coverage.self_s": self_s["coverage"] / passes,
            "families.prob_calls": calls["families.prob"] // passes,
            "families.terms": terms // passes,
            "families.prob_s": self_s["families.prob"] / passes,
            "families.ns_per_term": 1e9 * self_s["families.prob"] / terms if terms else 0.0,
            "oracle.grid_calls": calls["oracle.grid"] // passes,
            "oracle.grid_rows": counts["oracle.grid_rows"] // passes,
            "oracle.indicator_calls": calls["oracle.indicator"] // passes,
            "oracle.flagged_rows":
                (calls["oracle.indicator"] - counts["oracle.candidate_points"]) // passes,
            "oracle.indicator_s": self_s["oracle.indicator"] / passes,
            "oracle.prob_s": self_s["oracle.prob"] / passes,
            "oracle.vector_s": self_s["oracle.grid"] / passes,
            "trace.wall_s": wall_s / passes,
            "trace.unattributed_s": (wall_s - self.attributed_s) / passes,
            "trace.overhead_ratio": overhead_s / (wall_s - overhead_s),
        }


def wrapper_cost_s(count: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds: a wrapped no-op timed against the bare one."""
    def noop(*args, **kwargs):
        return None

    traced = Tracer().wrap("probe", noop)

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(count):
            fn(1, 2, 3)
        return (time.perf_counter() - start) / count

    bare = min(per_call(noop) for _ in range(repeats))
    wrapped = min(per_call(traced) for _ in range(repeats))
    return max(wrapped - bare, 0.0)
