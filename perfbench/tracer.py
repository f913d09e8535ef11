"""Outside-in span tracer for the rotcon modules.

`Tracer.install()` replaces every public function of every loaded `rotcon`
module, and the `__post_init__` validator of every dataclass defined there,
with a wrapper that records a span: name, start, end and parent span.  The
replacement is made for every module attribute that is bound to the
original object, so calls through re-exports (`rotcon.cutoff_rate`), by-name
imports (`optimize.difference_multiset`) and lazy imports inside functions
(`from .metrics import cutoff_rate`) are all seen.  `scipy.linalg.expm`,
which `liegroup` calls for every trial step of the geodesic descent, is
wrapped as the span `liegroup.expm`.  `uninstall()` restores every binding.

A few spans also record counts computed from their arguments and results
(see `HOOKS`).  `layer_metrics` turns the spans of the traced passes into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

PACKAGE = "rotcon"


def _difference_multiset_counts(args, result):
    m = len(args["points"])
    rows = len(result[0])
    return {"pairs_in": m * (m - 1), "distinct_out": rows,
            "raw_fallbacks": int(rows == m * (m - 1))}


def _ber_counts(args, result):
    return {"symbols": sum(r.symbols_simulated for r in result.rows),
            "symbol_errors": sum(r.symbol_errors for r in result.rows)}


HOOKS = {
    "metrics.difference_multiset": _difference_multiset_counts,
    "optimize.optimize_nuqam": lambda args, result: {"iterations": result.iterations},
    "liegroup.geodesic_descent": lambda args, result: {"iterations": result.iterates[-1][0]},
    "channel.ber_monte_carlo": _ber_counts,
}


class Tracer:
    """Records spans as [name, start, end, parent index, counts] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as one pass."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.spans[idx][4] = hook(bound.arguments, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        )
        wrappers = {}  # id(original function) -> (original, wrapper)
        for modname, mod in modules:
            short = modname.rsplit(".", 1)[-1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                    self._set(obj, "__post_init__",
                              self._wrap(f"{short}.{attr}", vars(obj)["__post_init__"]))
        for _, mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        import scipy.linalg

        self._set(scipy.linalg, "expm", self._wrap("liegroup.expm", scipy.linalg.expm))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per-name call count, self time and hook counts.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, counts) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child[i]
        for key, value in (counts or {}).items():
            s[key] = s.get(key, 0) + value
    return stats


def _count_under(spans: list[list], name: str, ancestor: str) -> int:
    """Spans called `name` that have a span called `ancestor` above them."""
    n = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


# (span name, stat) pairs reported per traced pass; the metric name is
# "<span name>.<stat>".
REPORTED = [
    ("metrics.difference_multiset", ("calls", "self_s", "pairs_in", "distinct_out",
                                     "raw_fallbacks")),
    ("metrics.cutoff_rate", ("calls", "self_s")),
    ("metrics.pair_sum_rational", ("self_s",)),
    ("metrics.local_cutoff_rate", ("self_s",)),
    ("metrics.diversity_order", ("self_s",)),
    ("metrics.min_product_distance", ("self_s",)),
    ("metrics.compute_report", ("self_s",)),
    ("optimize.grid_search_t", ("calls", "self_s")),
    ("optimize.optimize_nuqam", ("self_s", "iterations")),
    ("optimize.optimize_rotation_full", ("self_s",)),
    ("liegroup.geodesic_descent", ("self_s", "iterations")),
    ("liegroup.expm", ("self_s",)),
    ("liegroup.RotationMatrix", ("calls", "self_s")),
    ("constellation.Constellation", ("calls", "self_s")),
    ("constellation.make_nuqam", ("self_s",)),
    ("constellation.normalize_energy", ("self_s",)),
    ("constellation.rotate", ("self_s",)),
    ("channel.ber_monte_carlo", ("self_s", "symbols", "symbol_errors")),
    ("cli.main", ("calls", "self_s")),
]

# Validators run once per object built, so their call count is reported as
# constructions.
_RENAMED = {"liegroup.RotationMatrix.calls": "liegroup.RotationMatrix.constructions",
            "constellation.Constellation.calls": "constellation.Constellation.constructions"}


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics, each a mean over `passes` traced passes."""
    stats = span_stats(spans)
    out = {}
    for name, keys in REPORTED:
        s = stats.get(name, {})
        for key in keys:
            metric = f"{name}.{key}"
            out[_RENAMED.get(metric, metric)] = s.get(key, 0) / passes
    t_evals = _count_under(spans, "metrics.rate_from_pair_sum", "optimize.grid_search_t")
    out["optimize.grid_search_t.t_evals"] = t_evals / passes
    objective_evals = _count_under(spans, "metrics.cutoff_rate", "optimize.optimize_nuqam")
    out["optimize.optimize_nuqam.objective_evals"] = objective_evals / passes
    trial_steps = _count_under(spans, "liegroup.expm", "liegroup.geodesic_descent")
    out["liegroup.geodesic_descent.trial_steps"] = trial_steps / passes
    accepted = stats.get("liegroup.geodesic_descent", {}).get("iterations", 0)
    out["liegroup.geodesic_descent.accept_ratio"] = accepted / trial_steps if trial_steps else 0.0
    symbols = stats.get("channel.ber_monte_carlo", {}).get("symbols", 0)
    ber_self = stats.get("channel.ber_monte_carlo", {}).get("self_s", 0.0)
    out["channel.ber_monte_carlo.us_per_symbol"] = 1e6 * ber_self / symbols if symbols else 0.0
    out["trace.spans"] = len(spans) / passes
    return out
