"""Outside-in span tracer for the Rain debug-session benchmark.

The benchmark records spans from its own files: :func:`installed` swaps
timing wrappers in for the public functions and methods each layer of
``repro`` exposes to the layer above it, and restores the originals on
exit.  A function imported by name is patched in the module that looks
it up (``repro.core.rain.plan_sql``, not ``repro.relational.sql``),
because that is the binding the caller resolves at call time.

Spans nest: a span's *self time* is its duration minus the time covered
by the spans it encloses, so the self times of all layers plus the
session's uncovered remainder (``core.loop_self_s``) add up to the
session wall.  Spans are aggregated as they close, per layer, and
counters are read at the same boundaries from arguments and return
values.  The loop is single-threaded (the benchmark unsets the worker
knobs), so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    """Per-layer self time, per-seam call counts and work counters."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.top_s = 0.0  # time covered by spans with no enclosing span
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child time covered, per open span
        self.missing: set[str] = set()  # seams that no longer exist

    def wrap(self, fn, layer: str, seam: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self.counts, args, kwargs, out)
                return out
            finally:
                duration = time.perf_counter() - start
                self.self_s[layer] += duration - self._open.pop()
                if self._open:
                    self._open[-1] += duration
                else:
                    self.top_s += duration
                self.calls[seam] += 1

        return traced


# -- counters read at the seams ------------------------------------------------


def _count(name: str):
    def hook(counts, args, kwargs, out) -> None:
        counts[name] += 1

    return hook


def _execute(counts, args, kwargs, result) -> None:
    counts["relational.execute_calls"] += 1
    if result.pool is not None:
        counts["relational.provenance_nodes"] += len(result.pool)


def _enumeration(counts, args, kwargs, solutions) -> None:
    from repro.ilp.solver import enumerate_optima

    bound = inspect.signature(enumerate_optima).bind(*args, **kwargs)
    bound.apply_defaults()
    counts["ilp.enumerations"] += 1
    counts["ilp.program_vars"] += bound.arguments["program"].n_vars
    counts["ilp.optima"] += len(solutions)
    counts["ilp.cap_hits"] += len(solutions) >= bound.arguments["max_solutions"]
    counts["ilp.bb_nodes"] += sum(s.nodes_explored for s in solutions)


def _scalar_cg(counts, args, kwargs, out) -> None:
    counts["influence.cg_iterations"] += args[0].last_cg_result.iterations


def _block_cg(counts, args, kwargs, out) -> None:
    # A block solve iterates until its slowest column converges.
    iterations = args[0].last_block_cg_result.iterations
    counts["influence.cg_iterations"] += int(iterations.max()) if iterations.size else 0


_ANALYZER = "repro.influence.functions:InfluenceAnalyzer"
_OBJECTIVE = "repro.relaxation.objective:RelaxedComplaintObjective"
_MODEL = "repro.ml.linear:LogisticRegression"

# (owner, attribute, layer, counter hook).  ``owner`` is a module, or
# ``module:Class`` for a method; inherited methods are patched on the
# subclass and deleted again on exit.
SEAMS = [
    ("repro.core.rain", "plan_sql", "relational.plan", None),
    ("repro.relational.executor:Executor", "execute", "relational.execute", _execute),
    ("repro.core.rain", "all_satisfied", "complaints.drain",
     _count("complaints.drain_calls")),
    ("repro.core.rain", "all_satisfied_columnar", "complaints.drain",
     _count("complaints.drain_calls")),
    (_MODEL, "fit", "ml.fit", _count("ml.fit_calls")),
    ("repro.core.rankers:LossRanker", "scores", "core.rank", None),
    ("repro.core.rankers:InfLossRanker", "scores", "core.rank", None),
    ("repro.core.rankers:TwoStepRanker", "scores", "core.rank", None),
    ("repro.core.rankers:HolisticRanker", "scores", "core.rank", None),
    (_OBJECTIVE, "__init__", "relaxation.objective", None),
    (_OBJECTIVE, "q_and_grad_theta", "relaxation.objective",
     _count("relaxation.objective_calls")),
    ("repro.core.rankers", "batched_q_and_grads", "relaxation.objective", None),
    ("repro.core.rain", "make_encoder", "ilp.encode", None),
    ("repro.core.rankers", "make_encoder", "ilp.encode", None),
    ("repro.ilp.encode:TiresiasEncoder", "add_complaints", "ilp.encode", None),
    ("repro.core.rain", "enumerate_optima", "ilp.enumerate", _enumeration),
    ("repro.core.rankers", "enumerate_optima", "ilp.enumerate", _enumeration),
    ("repro.ilp.solver:PersistentLP", "solve_relaxation", "ilp.lp_solve",
     _count("ilp.lp_solves")),
    (_ANALYZER, "__init__", "influence.rank", None),
    (_ANALYZER, "per_sample_grads", "influence.rank", None),
    (_ANALYZER, "training_losses", "influence.rank", None),
    (_ANALYZER, "self_influence", "influence.rank", None),
    (_ANALYZER, "scores_from_q_grad", "influence.rank", None),
    (_ANALYZER, "scores_from_q_grads", "influence.rank", None),
    (_ANALYZER, "inverse_hvp", "influence.rank", _scalar_cg),
    (_ANALYZER, "inverse_hvp_block", "influence.rank", _block_cg),
    ("repro.core.rankers", "q_grad_for_target_predictions", "influence.rank", None),
    (_MODEL, "hvp", "influence.rank", _count("influence.hvp_calls")),
    (_MODEL, "hvp_block", "influence.rank", _count("influence.hvp_calls")),
]

LAYERS = sorted({layer for _, _, layer, _ in SEAMS})


def seam_name(owner: str, attribute: str) -> str:
    return f"{owner.rpartition('.')[2].replace(':', '.')}.{attribute}"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    return getattr(module, class_name, None) if class_name else module


_MISSING = object()


@contextmanager
def installed(tracer: Tracer):
    """Patch every seam that exists to record into ``tracer``; undo on exit.

    A seam that no longer exists is recorded in ``tracer.missing`` and
    skipped; the workload's expected-layer check then fails if its layer
    stops firing.
    """
    undo = []
    try:
        for owner, attribute, layer, after in SEAMS:
            target = _resolve(owner)
            if target is None or not hasattr(target, attribute):
                tracer.missing.add(f"{owner}.{attribute}")
                continue
            undo.append((target, attribute, vars(target).get(attribute, _MISSING)))
            setattr(
                target,
                attribute,
                tracer.wrap(getattr(target, attribute), layer,
                            seam_name(owner, attribute), after),
            )
        yield tracer
    finally:
        for target, attribute, original in reversed(undo):
            if original is _MISSING:
                delattr(target, attribute)
            else:
                setattr(target, attribute, original)
