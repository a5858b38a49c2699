"""Rain debug-session benchmark.

One session constructs ``RainDebugger`` through the public API and runs
``.run(max_removals, k_per_iteration=10)`` with default settings on
inputs generated beforehand from the workload seed.  Sessions run as a
closed loop: one client, one process, one session after another.

    python3 perfbench/run.py --workload dblp-holistic --seed 0 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, with timings scaled to a
nominal host speed, and ``--trace 1`` the per-layer breakdown from a
separate traced run.  The last line of standard output
is one JSON object; the lines before it summarise the run.  See
``README.md`` next to this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

K_PER_ITERATION = 10
# Sessions that always run, whatever ``--seconds`` says; the printed order
# digest covers exactly these, so it is deterministic per seed.
MIN_SESSIONS = 3
# Sessions that also time a first-fix run.  first_fix_p50_s needs no more
# samples; later sessions skip it, fitting more sessions, and so more
# AUCCR samples, into ``--seconds``.
FIRST_FIX_SESSIONS = 30
# Stop starting sessions after this long, so a run ends well inside the
# 180 s a run may take even on a much slower machine.
HARD_STOP_S = 140.0
# Spans must cover this share of the traced session wall; less means a
# refactor moved work out from under the seams.  Coverage is 0.96-0.999
# at the time of writing; the margin absorbs garbage collections that
# land between spans.
MIN_COVERAGE = 0.90

# Shared hosts change speed by up to 2x within minutes.  A fixed kernel,
# sampled for REFERENCE_SHARE of the session time between sessions,
# tracks that speed; untraced timings are scaled to a host on which the
# kernel's median takes REFERENCE_NOMINAL_S.
REFERENCE_NOMINAL_S = 0.010
REFERENCE_SHARE = 0.05

# Work counters the seams record (spans.SEAMS), reported per session.
COUNTS_PER_SESSION = (
    "relational.execute_calls", "relational.provenance_nodes",
    "complaints.drain_calls", "ml.fit_calls", "relaxation.objective_calls",
    "ilp.lp_solves", "ilp.bb_nodes", "ilp.optima", "influence.cg_iterations",
    "influence.hvp_calls",
)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PATH_KNOBS = ("REPRO_N_WORKERS", "REPRO_ASYNC", "REPRO_ILP_ENCODER")


def pin_environment() -> dict:
    """One BLAS thread and the default code paths; must run before numpy loads.

    The default OpenBLAS pool (2 threads on 2 cores) made DBLP InfLoss
    sessions take 3x longer and vary by half from run to run.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    unset = [knob for knob in PATH_KNOBS if os.environ.pop(knob, None) is not None]
    return {"blas_threads": 1, "unset_knobs": unset, "cpus": os.cpu_count(),
            "python": sys.version.split()[0]}


def host_reference(seed: int) -> float:
    """Seconds for fixed numpy and interpreter work shaped like a DBLP set-up.

    It uses no ``repro`` code, so no change to the program can change it.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    X = np.clip(rng.normal(0.5, 0.16, size=(16000, 17)), 0.0, 1.0)
    labels = np.asarray(["match" if v > 0.5 else "nonmatch" for v in X[:, 0]],
                        dtype=object)
    y = (labels == "match").astype(np.float64)
    w = np.zeros(X.shape[1])
    for _ in range(20):
        p = 1.0 / (1.0 + np.exp(0.5 - X @ w))
        w -= 0.5 * (X.T @ (p - y)) / y.size
    np.argsort(p)
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_session(inputs, method: str, max_removals: int):
    """One debug session from the workload's starting parameters."""
    from repro import RainDebugger

    inputs.reset()
    start = time.perf_counter()
    report = RainDebugger(
        inputs.database, inputs.model_name, inputs.X_train, inputs.y_train,
        inputs.cases, method=method,
    ).run(max_removals, k_per_iteration=K_PER_ITERATION)
    return time.perf_counter() - start, report


def order_problem(report, max_removals: int, n_train: int) -> str | None:
    """What is wrong with a removal order, or None."""
    order = report.removal_order
    if any(not 0 <= index < n_train for index in order):
        return "training id out of range"
    if len(set(order)) != len(order):
        return "duplicate training ids"
    if len(order) > max_removals or (
        len(order) < max_removals and report.stopped_reason == "budget"
    ):
        return (f"{len(order)} removals for a budget of {max_removals}, "
                f"stopped: {report.stopped_reason}")
    return None


def _p50(values):
    return statistics.median(values) if values else 0.0


class Run:
    """State shared by the untraced and traced loops."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.setup_s: list[float] = []
        self.stops: dict[str, int] = {}
        self.started = time.perf_counter()
        self.busy = 0.0

    def sessions(self):
        """Yield (index, inputs) until the time is used and MIN_SESSIONS ran."""
        from workloads import session_seed

        index = 0
        while (index < MIN_SESSIONS or self.busy < self.seconds) and (
            time.perf_counter() - self.started < HARD_STOP_S
        ):
            start = time.perf_counter()
            inputs = self.workload.build(session_seed(self.seed, index))
            self.setup_s.append(time.perf_counter() - start)
            self.attempted += 1
            start = time.perf_counter()
            yield index, inputs
            self.busy += time.perf_counter() - start
            index += 1

    def full_session(self, inputs):
        wall, report = run_session(inputs, self.workload.method,
                                   self.workload.max_removals)
        self.stops[report.stopped_reason] = self.stops.get(report.stopped_reason, 0) + 1
        problem = order_problem(report, self.workload.max_removals,
                                inputs.X_train.shape[0])
        if problem:
            raise AssertionError(problem)
        return wall, report

    def fail(self, index: int, exc: BaseException) -> None:
        self.failed += 1
        print(f"session {index} failed: {exc!r}", file=sys.stderr)
        if not isinstance(exc, AssertionError):
            traceback.print_exc()


def measure(run: Run) -> tuple[dict, list[str]]:
    """The end-to-end metrics, measured with tracing off."""
    from repro import auccr_normalized, recall_curve

    workload = run.workload
    session_s, first_fix_s, auccrs, reference_s = [], [], [], []
    removed = 0
    digest = hashlib.sha256()
    for index, inputs in run.sessions():
        try:
            wall, report = run.full_session(inputs)
            if index < FIRST_FIX_SESSIONS:
                first_wall, first = run_session(inputs, workload.method,
                                                K_PER_ITERATION)
                if first.removal_order != report.removal_order[:K_PER_ITERATION]:
                    raise AssertionError("first-fix order differs from the session's")
                first_fix_s.append(first_wall)
        except Exception as exc:  # a failed session counts; the loop goes on
            run.fail(index, exc)
            continue
        session_s.append(wall)
        removed += len(report.removal_order)
        auccrs.append(auccr_normalized(
            recall_curve(report.removal_order, inputs.corrupted)))
        if index < MIN_SESSIONS:
            digest.update(json.dumps(report.removal_order).encode())
        while (sum(reference_s) < REFERENCE_SHARE * (sum(session_s) + sum(first_fix_s))
               or len(reference_s) < MIN_SESSIONS):
            reference_s.append(host_reference(len(reference_s)))
    ok = run.attempted - run.failed
    # > 1 on a host slower than the nominal one.
    slowdown = _p50(reference_s) / REFERENCE_NOMINAL_S if reference_s else 1.0
    raw = {
        "session_p50_s": _p50(session_s),
        "first_fix_p50_s": _p50(first_fix_s),
        "removals_per_s": removed / sum(session_s) if session_s else 0.0,
        "setup_s": _p50(run.setup_s),
    }
    metrics = {
        "session_p50_s": (raw["session_p50_s"] / slowdown, "s"),
        "first_fix_p50_s": (raw["first_fix_p50_s"] / slowdown, "s"),
        "removals_per_s": (raw["removals_per_s"] * slowdown, "1/s"),
        "auccr": (statistics.fmean(auccrs) if auccrs else 0.0, "ratio"),
        "success_ratio": (ok / run.attempted, "ratio"),
        "setup_s": (raw["setup_s"] / slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"host: reference kernel p50 {_p50(reference_s):.6f} s over "
        f"{len(reference_s)} samples, {slowdown:.4f}x the nominal "
        f"{REFERENCE_NOMINAL_S} s; timings below are scaled by it. Unscaled: "
        + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()),
        f"sessions: {run.attempted} attempted, {run.failed} failed; "
        f"stop reasons {run.stops}",
        f"session_p50_s over {len(session_s)} sessions, first_fix_p50_s over "
        f"{len(first_fix_s)}, setup_s over {len(run.setup_s)} set-ups",
        f"auccr over {len(auccrs)} sessions; the first {MIN_SESSIONS} sessions' "
        f"orders have sha256 {digest.hexdigest()[:16]}",
    ]
    return metrics, notes


def measure_traced(run: Run) -> tuple[dict, list[str], bool]:
    """The per-layer breakdown: each session runs untraced and traced."""
    import spans

    workload = run.workload
    tracer = spans.Tracer()
    plain_s, traced_s = [], []
    iterations = cache_hits = budget_failures = 0
    for index, inputs in run.sessions():
        try:
            # Alternate which variant runs first, so neither always
            # meets warmer caches.
            order = (False, True) if index % 2 == 0 else (True, False)
            results = {}
            for traced in order:
                if traced:
                    with spans.installed(tracer):
                        results[traced] = run.full_session(inputs)
                else:
                    results[traced] = run.full_session(inputs)
            if results[True][1].removal_order != results[False][1].removal_order:
                raise AssertionError("traced order differs from untraced order")
        except Exception as exc:  # a failed session counts; the loop goes on
            run.fail(index, exc)
            continue
        plain_s.append(results[False][0])
        traced_s.append(results[True][0])
        report = results[True][1]
        iterations += len(report.iterations)
        for record in report.iterations:
            cache_hits += record.diagnostics.get("execute_cache", {}).get("hits", 0)
            budget_failures += "ilp_failure" in record.diagnostics

    n = max(len(traced_s), 1)
    wall = sum(traced_s)
    counts = tracer.counts
    enumerations = max(counts["ilp.enumerations"], 1)
    metrics = {f"{layer}_s": (tracer.self_s[layer] / n, "s") for layer in spans.LAYERS}
    metrics.update({name: (counts[name] / n, "count") for name in COUNTS_PER_SESSION})
    metrics.update({
        "core.plan_cache_hits": (cache_hits / n, "count"),
        "ilp.cap_hit_ratio": (counts["ilp.cap_hits"] / enumerations, "ratio"),
        "ilp.program_vars": (counts["ilp.program_vars"] / enumerations, "count"),
        "ilp.budget_failures": (budget_failures / n, "count"),
        "core.loop_self_s": ((wall - tracer.top_s) / n, "s"),
        "core.iterations": (iterations / n, "count"),
        "core.early_stop_ratio": (
            1 - run.stops.get("budget", 0) / max(sum(run.stops.values()), 1),
            "ratio"),
        "trace.coverage": (tracer.top_s / wall if wall else 0.0, "ratio"),
        "trace.overhead": (_p50(traced_s) / _p50(plain_s) - 1 if plain_s else 0.0,
                           "ratio"),
    })
    fired = {layer for layer, seconds in tracer.self_s.items() if seconds > 0}
    silent = [layer for layer in workload.layers if layer not in fired]
    coverage = metrics["trace.coverage"][0]
    notes = [
        f"sessions: {run.attempted} attempted, {run.failed} failed; "
        f"stop reasons {run.stops}",
        f"{len(traced_s)} traced sessions; spans cover {coverage:.4f} of their wall",
        "self time per session: " + ", ".join(
            f"{layer} {tracer.self_s[layer] / n:.4f}" for layer in spans.LAYERS),
        "seam calls: " + ", ".join(f"{seam} {count}" for seam, count
                                   in sorted(tracer.calls.items())),
    ]
    seams_ok = True
    if tracer.missing:
        notes.append(f"seams not found: {sorted(tracer.missing)}")
    if silent:
        notes.append(f"expected layers never fired: {silent}")
        seams_ok = False
    if traced_s and coverage < MIN_COVERAGE:
        notes.append(f"coverage {coverage:.4f} is below {MIN_COVERAGE}")
        seams_ok = False
    return metrics, notes, seams_ok


def main(argv=None) -> int:
    args = parse_args(argv)
    env = pin_environment()
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    env["numpy"] = numpy.__version__
    print("env " + json.dumps(env))

    run = Run(WORKLOADS[args.workload], args.seed, args.seconds)
    correct = True
    if args.trace:
        metrics, notes, correct = measure_traced(run)
    else:
        metrics, notes = measure(run)
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = correct and run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
