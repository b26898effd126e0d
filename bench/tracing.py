"""Span recording around essentia's layer boundaries, for the traced run.

Wrappers are installed at the module bindings that callers actually use
(`essentia.driver.lp_values`, not `essentia.detection.lp_values`), and at the
`essentia.graphs` globals so that calls between graph functions are caught
too.  Every call of a wrapped function records a span: name, start, end,
parent span and operation id.  Spans are kept in memory and written out when
the run ends.  A layer's self time is the duration of its spans minus the
time covered by their child spans; the layer is the part of the span name
before the first dot.

Nothing here touches `src/`: the wrappers replace module attributes for the
duration of one traced operation and put the originals back afterwards.
"""

from __future__ import annotations

import gzip
import inspect
import json
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable

from essentia import detection, driver, exact, graphs, lp, problems
from essentia.simplex import PackingSimplex

LAYERS = ("driver", "detection", "lp", "simplex", "problems", "graphs", "exact")

# Spans whose return value the metrics need; it is kept beside the span and
# looked at only after the run, so inspecting it costs no traced time.
_KEEP_RESULT = {"lp.solve", "exact.solve_exact", "detection.lp_values"}


def _bindings() -> list[tuple[Any, str, str]]:
    """(owner, attribute, span name) for every wrapped callable."""
    out = [
        (detection, "solve", "lp.solve"),
        (lp, "find_violated_obstacle", "problems.find_violated_obstacle"),
        (PackingSimplex, "add_constraint", "simplex.add_constraint"),
        (PackingSimplex, "optimize", "simplex.optimize"),
        (driver, "lp_values", "detection.lp_values"),
        (driver, "solve_exact", "exact.solve_exact"),
        (driver, "restrict_instance", "driver.restrict_instance"),
        (exact, "is_solution", "problems.is_solution"),
    ]
    for module in (graphs, problems):
        for attr, fn in vars(module).items():
            if (
                inspect.isfunction(fn)
                and fn.__module__ == graphs.__name__
                and not attr.startswith("_")
            ):
                out.append((module, attr, f"graphs.{attr}"))
    return out


class Tracer:
    """In-memory span log.  A span is [name, start, end, parent, op, result]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, keep = self.spans, self._stack, name in _KEEP_RESULT

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if keep:
                span[5] = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding for the duration of the block."""
        saved = [(owner, attr, name, getattr(owner, attr)) for owner, attr, name in _bindings()]
        try:
            for owner, attr, name, original in saved:
                setattr(owner, attr, self._wrap(name, original))
            yield
        finally:
            for owner, attr, _, original in saved:
                setattr(owner, attr, original)

    def run_op(self, op: int, name: str, fn: Callable, *args) -> Any:
        """Run one operation as a root span, with every layer wrapped."""
        self._op = op
        with self.installed():
            return self._wrap(name, fn)(*args)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines: op, span id, parent, name, start, end."""
        with gzip.open(path, "wt") as fh:
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(json.dumps([op, i, parent, name, start, end]) + "\n")


def layer_metrics(tracer: Tracer, reports: list) -> dict[str, tuple[float, str]]:
    """Per-layer counts, times and ratios, each with its unit, from the spans.

    `reports` holds the DriverReport of every traced reduce operation (empty
    for the solve workload); driver totals that no span carries come from it.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    children: dict[int, list[int]] = {}
    for i, (_, start, end, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children.setdefault(parent, []).append(i)

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def self_time(i: int) -> float:
        return dur(i) - child_time[i]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def ids(name: str) -> list[int]:
        return by_name.get(name, [])

    def total(name: str, fn: Callable[[int], float] = dur) -> float:
        return sum(fn(i) for i in ids(name))

    # columns added before an LP's first oracle call are seeds, the rest cuts
    seeds = cuts = 0
    for i in ids("lp.solve"):
        seen_oracle = False
        for c in children.get(i, []):
            if spans[c][0] == "problems.find_violated_obstacle":
                seen_oracle = True
            elif spans[c][0] == "simplex.add_constraint":
                if seen_oracle:
                    cuts += 1
                else:
                    seeds += 1
    denominator_bits = max(
        (
            x.denominator.bit_length()
            for i in ids("lp.solve")
            for x in spans[i][5].weights + (spans[i][5].value,)
        ),
        default=0,
    )
    pinned = [dur(i) for i in ids("lp.solve")]
    exact_ids = ids("exact.solve_exact")
    driver_exact = [i for i in exact_ids if spans[i][3] >= 0]
    solved = [i for i in driver_exact if spans[i][5] is not None]
    oracle_calls = len(ids("problems.find_violated_obstacle"))
    lp_solves = len(ids("lp.solve"))

    root_time = sum(dur(i) for i, span in enumerate(spans) if span[3] < 0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span in enumerate(spans):
        layer_self[span[0].split(".", 1)[0]] += self_time(i)

    def quantile(values: list[float], q: int) -> float:
        if len(values) < 2:
            return values[0] if values else 0.0
        return statistics.quantiles(values, n=10)[q - 1]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {
        "simplex.columns": (len(ids("simplex.add_constraint")), "count"),
        "simplex.add_constraint_s": (total("simplex.add_constraint"), "s"),
        "simplex.optimize_calls": (len(ids("simplex.optimize")), "count"),
        "simplex.optimize_s": (total("simplex.optimize"), "s"),
        "lp.solves": (lp_solves, "count"),
        "lp.self_s": (total("lp.solve", self_time), "s"),
        "lp.cuts": (cuts, "count"),
        "lp.cuts_per_solve": (ratio(cuts, lp_solves), "count"),
        "lp.seed_columns": (seeds, "count"),
        "lp.denominator_bits_max": (denominator_bits, "bits"),
        "problems.oracle_calls": (oracle_calls, "count"),
        "problems.oracle_self_s": (total("problems.find_violated_obstacle", self_time), "s"),
        "problems.oracle_hit_ratio": (ratio(cuts, oracle_calls), "ratio"),
        "problems.is_solution_calls": (len(ids("problems.is_solution")), "count"),
        "problems.is_solution_s": (total("problems.is_solution"), "s"),
        "graphs.shortest_path_calls": (len(ids("graphs.shortest_weighted_path")), "count"),
        "graphs.shortest_path_s": (total("graphs.shortest_weighted_path"), "s"),
        "graphs.min_cycle_calls": (len(ids("graphs.min_weight_cycle_through")), "count"),
        "graphs.min_cycle_s": (total("graphs.min_weight_cycle_through"), "s"),
        "graphs.check_weights_calls": (len(ids("graphs.check_weights")), "count"),
        "graphs.check_weights_per_oracle_call": (
            ratio(len(ids("graphs.check_weights")), oracle_calls),
            "count",
        ),
        "detection.lp_values_s": (total("detection.lp_values"), "s"),
        "detection.pinned_lp_s_p50": (quantile(pinned, 5), "s"),
        "detection.pinned_lp_s_p90": (quantile(pinned, 9), "s"),
        "detection.selected": (sum(len(r.detected) for r in reports), "count"),
        "exact.calls": (len(exact_ids), "count"),
        "exact.self_s": (total("exact.solve_exact", self_time), "s"),
        "exact.none_calls": (sum(1 for i in exact_ids if spans[i][5] is None), "count"),
        "driver.iterations": (sum(len(r.iterations) for r in reports), "count"),
        "driver.exact_calls": (len(driver_exact), "count"),
        "driver.exact_useful_ratio": (ratio(len(solved), len(driver_exact)), "ratio"),
        "driver.residual_unsolved_s": (
            sum(dur(i) for i in driver_exact if spans[i][5] is None),
            "s",
        ),
        "driver.residual_budget": (sum(r.residual_budget for r in reports), "count"),
        "driver.restrict_s": (total("driver.restrict_instance"), "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (ratio(layer_self[layer], root_time), "ratio")
    return metrics
