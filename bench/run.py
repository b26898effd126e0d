#!/usr/bin/env python3
"""Benchmark of essentia's `reduce` and `solve` entry points.

    python3 bench/run.py --workload reduce-enum --seed 0 --seconds 35 --trace 0

Runs one workload as a closed loop with a single client (one process,
jobs=1; the next instance starts when the previous call returns) through
`driver.solve_with_detection` (the work of `essentia reduce`) or
`exact.solve_exact` (the work of `essentia solve`).  Every operation gets a
freshly generated instance (see workloads.py) and every output is checked
outside the timed region.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 times the loop with nothing wrapped and reports the end-to-end
metrics, scaled to a reference machine speed (see reference_seconds).
--trace 1 runs a fixed number of operations, each once plain and once with
every layer wrapped (tracing.py), and reports per-layer metrics; the
operation count depends only on --seconds, so counts repeat exactly.

The essentia package is imported from the checkout's `src/`; without it the
benchmark exits with status 2 and prints no result.  See README.md for the
workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"
GOLDEN = BENCH / "golden.json"

NODE_CAP = 2_000_000  # explicit, so ESSENTIA_NODE_CAP cannot change the work
SETUP_ROUNDS = 20  # rounds of instances generated during set-up
SETUP_REPEATS = 7  # set-ups measured per run (this process plus fresh ones)
DIGEST_ROUNDS = 2  # leading rounds every run completes and digests
# Operations per stored seed whose optimum golden.json keeps.  At the baseline
# a 35 s run on a 2-vCPU Xeon VM completes at most about 600, so it is checked
# against stored optima throughout; later operations and unstored seeds fall
# back to opt_value.
STORED_OPTIMA = 1000
# Traced rounds per second of --seconds: at the baseline a traced run (each
# operation plain, then wrapped) takes about --seconds.
TRACE_ROUNDS_PER_S = {"reduce-enum": 0.7, "reduce-paths": 1.1, "solve-exact": 1.4}
WORKLOAD_NAMES = tuple(TRACE_ROUNDS_PER_S)

# Seconds the reference work takes on the machine the figures are scaled to.
# On a 2-vCPU Xeon VM with Python 3.11.7 it took 0.006-0.010 s as the
# machine's speed drifted.
REFERENCE_S = 0.008
REFERENCE_WINDOW = 4  # reference samples around an operation that scale it

_RNG = random.Random(2404)
_REF_GRAPH = [[(v, _RNG.randrange(1, 9)) for v in _RNG.sample(range(60), 6)] for _ in range(60)]
_REF_MATRIX = [[Fraction(_RNG.randrange(1, 7), _RNG.randrange(1, 7)) for _ in range(9)]
               for _ in range(8)]


def reference_seconds() -> float:
    """Time of a fixed piece of standard-library work like essentia's own.

    Shortest paths with a heap and Gaussian elimination over fractions, the
    inner loops of the separation oracle and the simplex, written without
    essentia, so a change to the program cannot change it.  The speed of the
    shared machine this runs on drifts by 20-60% within minutes and takes
    every workload with it; reported times are scaled by REFERENCE_S over this
    time measured beside them, which cancels the drift.
    """
    start = perf_counter()
    for source in range(len(_REF_GRAPH)):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _REF_GRAPH[u]:
                if d + w < dist.get(v, d + w + 1):
                    dist[v] = d + w
                    heapq.heappush(heap, (d + w, v))
    rows = [row[:] for row in _REF_MATRIX]
    for k, pivot_row in enumerate(rows):
        pivot_row[:] = [x / pivot_row[k] for x in pivot_row]
        for r, row in enumerate(rows):
            if r != k and row[k]:
                f = row[k]
                row[:] = [a - f * b for a, b in zip(row, pivot_row)]
    return perf_counter() - start


def speed_scale(samples: int = 3) -> float:
    """REFERENCE_S over the median of fresh reference timings."""
    return REFERENCE_S / statistics.median(reference_seconds() for _ in range(samples))


def setup(workload: str, seed: int):
    """Import essentia from src/ and generate the first rounds of the corpus."""
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import essentia
    except ImportError as exc:
        print(f"bench: cannot import essentia from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(essentia.__file__).resolve().is_relative_to(SRC):
        print(f"bench: essentia came from {essentia.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    corpus = [w.instance(seed, i) for i in range(SETUP_ROUNDS * len(w.families))]
    return perf_counter() - start, w, corpus


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(proc.stdout.split()[-1])


def decode_optima(text: str) -> list[int]:
    """Stored optima: one base-36 digit per operation."""
    return [int(c, 36) for c in text]


def encode_optima(values: list[int]) -> str:
    return "".join("0123456789abcdefghijklmnopqrstuvwxyz"[v] for v in values)


class Operations:
    """The workload's entry point, its output checks and its output digest."""

    def __init__(self, w, seed: int, optima: list[int]):
        from essentia.driver import solve_with_detection
        from essentia.exact import SolveBudget, opt_value, solve_exact
        from essentia.problems import is_solution

        self.w, self.seed = w, seed
        self.families = len(w.families)
        self.digest_ops = DIGEST_ROUNDS * self.families
        self.digest = hashlib.sha256()
        # The optimum of each operation, from golden.json where it is stored:
        # computed once, so a fault in the search that solve_exact and
        # opt_value share cannot hide behind itself.
        self.optima = optima
        self.resolved = 0  # checked operations whose optimum was re-solved
        self._opt_value, self._is_solution = opt_value, is_solution
        if w.exact_only:
            budget = SolveBudget(node_cap=NODE_CAP)
            self.root = "exact.solve_exact"
            self.call = lambda inst: solve_exact(inst, budget)
        else:
            self.root = "driver.solve_with_detection"
            self.call = lambda inst: solve_with_detection(inst, jobs=1, node_cap=NODE_CAP)

    def instance(self, corpus: list, i: int):
        if i < len(corpus):
            item, corpus[i] = corpus[i], None
            return item
        return self.w.instance(self.seed, i)

    def record(self, family: str, out) -> list:
        """Solution, opt, detected set and residual budget of one output."""
        if self.w.exact_only:
            return [family, None] if out is None else [family, sorted(out), len(out), [], None]
        return [family, sorted(out.solution), out.opt, sorted(out.detected), out.residual_budget]

    def check(self, i: int, inst, out) -> str | None:
        """Why the output of operation i is wrong, or None when it is right."""
        if self.w.exact_only:
            if out is None or not self._is_solution(inst, out):
                return "solve_exact returned no solution"
            opt = len(out)
        else:
            if not self._is_solution(inst, out.solution):
                return "reduce returned no solution"
            if not out.detected <= out.solution:
                return "detected set not inside the solution"
            if out.opt != len(out.solution):
                return "opt differs from the solution size"
            opt = out.opt
        if i < len(self.optima):
            expected = self.optima[i]
        else:
            expected = self._opt_value(inst, NODE_CAP)
            self.resolved += 1
        if opt != expected:
            return f"size {opt} but the optimum is {expected}"
        return None

    def add_to_digest(self, i: int, entry: list) -> None:
        if i < self.digest_ops:
            self.digest.update(json.dumps(entry).encode() + b"\n")


def _run_one(inst, call):
    """(output, error class name or None, seconds) of one operation."""
    from essentia.errors import EssentiaError

    start = perf_counter()
    try:
        out, error = call(inst), None
    except EssentiaError as exc:
        out, error = None, type(exc).__name__
    return out, error, perf_counter() - start


def timed_run(ops: Operations, corpus: list, seconds: float) -> dict:
    """Closed loop, in whole rounds, until `seconds` have passed.

    The output checks and the reference work run between operations, outside
    the timed region; each operation's time is scaled by the reference
    samples around it.
    """
    raw: list[float] = []  # seconds of each completed operation
    at: list[int] = []  # how many reference samples preceded it
    start = perf_counter()
    reference = [reference_seconds()]
    errors: Counter = Counter()
    wrong: list[str] = []
    i = 0
    while i < ops.digest_ops or i % ops.families or perf_counter() - start < seconds:
        family, inst = ops.instance(corpus, i)
        out, error, elapsed = _run_one(inst, ops.call)
        if error:
            errors[error] += 1
            ops.add_to_digest(i, [family, "error", error])
        else:
            raw.append(elapsed)
            at.append(len(reference))
            ops.add_to_digest(i, ops.record(family, out))
            reason = ops.check(i, inst, out)
            if reason:
                wrong.append(f"op {i} ({family}): {reason}")
        reference.append(reference_seconds())
        i += 1
    half = REFERENCE_WINDOW // 2
    latencies = [
        t * REFERENCE_S / statistics.median(reference[max(0, k - half):k + half])
        for t, k in zip(raw, at)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(latencies)
    return {
        "attempted": i,
        "errors": errors,
        "wrong": wrong,
        "unscaled": {
            "ops_per_s": n / sum(raw),
            "latency_s_p50": statistics.median(raw),
            "latency_s_p90": statistics.quantiles(raw, n=10)[8],
            "reference_s": statistics.median(reference),
        },
        "metrics": {
            "ops_per_s": (n / sum(latencies), "1/s", n),
            "latency_s_p50": (statistics.median(latencies), "s", n),
            "latency_s_p90": (statistics.quantiles(latencies, n=10)[8], "s", n),
            "peak_rss_mb": (peak_rss_mb, "MB", 1),
        },
    }


def traced_run(ops: Operations, corpus: list, seconds: float) -> dict:
    """Fixed operation count; each operation runs plain and wrapped."""
    from essentia.problems import all_induced_p4s
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    rounds = max(DIGEST_ROUNDS, round(seconds * TRACE_ROUNDS_PER_S[ops.w.name]))
    errors: Counter = Counter()
    wrong: list[str] = []
    reports = []
    plain_s = traced_s = 0.0
    for i in range(rounds * ops.families):
        family, inst = ops.instance(corpus, i)
        first_span = len(tracer.spans)
        runs = {}
        # Alternate which run goes first, so neither gains from going second,
        # and clear the P4 cache (keyed by graph) so neither finds it warm.
        for traced in (i % 2 == 1, i % 2 == 0):
            all_induced_p4s.cache_clear()
            call = (lambda x: tracer.run_op(i, ops.root, ops.call, x)) if traced else ops.call
            runs[traced] = _run_one(inst, call)
        out, error, elapsed = runs[False]
        traced_out, traced_error, traced_elapsed = runs[True]
        plain_s += elapsed
        traced_s += traced_elapsed
        if error or traced_error:
            errors[error or traced_error] += 1
            ops.add_to_digest(i, [family, "error", error, traced_error])
            continue
        entry = ops.record(family, out)
        if ops.record(family, traced_out) != entry:
            wrong.append(f"op {i} ({family}): traced output differs from the plain one")
        f_v = [
            [f"{x.numerator}/{x.denominator}" for x in span[5]]
            for span in tracer.spans[first_span:]
            if span[0] == "detection.lp_values"
        ]
        ops.add_to_digest(i, entry + f_v)
        if not ops.w.exact_only:
            reports.append(traced_out)
        reason = ops.check(i, inst, out)
        if reason:
            wrong.append(f"op {i} ({family}): {reason}")
    metrics = layer_metrics(tracer, reports)
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"spans-{ops.w.name}-seed{ops.seed}.jsonl.gz")
    return {
        "attempted": i + 1,
        "errors": errors,
        "wrong": wrong,
        "metrics": {name: (value, unit, i + 1) for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-golden", action="store_true",
                    help="store this run's digest and the seed's optima in golden.json")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    setup_s, w, corpus = setup(args.workload, args.seed)
    setup_s *= speed_scale()
    if args.setup_probe:
        print(f"{setup_s:.9f}")
        return 0
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    stored = golden.get(w.name, {}).get(str(args.seed), {})
    ops = Operations(w, args.seed, decode_optima(stored.get("optima", "")))
    result = (traced_run if args.trace else timed_run)(ops, corpus, args.seconds)
    metrics = result["metrics"]
    if not args.trace:
        probes = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = (statistics.median([setup_s] + probes), "s", SETUP_REPEATS)

    mode = "traced" if args.trace else "plain"
    digest = ops.digest.hexdigest()
    if args.update_golden:
        from essentia.exact import opt_value

        stored = golden.setdefault(w.name, {}).setdefault(str(args.seed), {})
        stored[mode] = digest
        stored["optima"] = encode_optima([
            opt_value(w.instance(args.seed, i)[1], NODE_CAP) for i in range(STORED_OPTIMA)
        ])
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    expected = stored.get(mode)
    if expected is not None and expected != digest:
        result["wrong"].append(f"digest {digest} differs from the stored {expected}")

    env = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": 1,
        "node_cap": NODE_CAP,
    }
    failed = sum(result["errors"].values())
    attempted = result["attempted"]
    print(f"# workload={w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit} (samples={samples})")
    if "unscaled" in result:
        print("# unscaled wall-clock figures: " + " ".join(
            f"{k}={v:.6g}" for k, v in result["unscaled"].items()))
    print(f"{'error_rate':40s} {failed / attempted:.6g} ratio "
          f"(failed={failed} attempted={attempted} by class={dict(result['errors'])})")
    print(f"# digest of the first {ops.digest_ops} ops ({mode}): {digest} "
          + ("(no stored digest for this seed)" if expected is None else "(matches)" if expected == digest else "(MISMATCH)"))
    print(f"# optima not in golden.json, re-solved with opt_value: {ops.resolved} ops")
    for reason in result["wrong"]:
        print(f"# WRONG: {reason}")

    correct = not result["wrong"]
    RESULTS.mkdir(exist_ok=True)
    report = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "correct": correct, "attempted": attempted, "failed": failed,
        "errors_by_class": dict(result["errors"]), "wrong": result["wrong"],
        "digest": digest, "unscaled": result.get("unscaled"),
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    out_path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
