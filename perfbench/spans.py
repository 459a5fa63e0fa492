"""Outside-in layer trace: spans recorded around the public entry points.

The benchmark never edits the program.  It replaces the attribute each
caller looks up (a class method, or a module global that a caller imports
at call time) with a wrapper that records a span and then calls the
original.  A span holds its name, op id, parent span, start, end and a few
counters read from the objects the call touched.

Spans live in memory.  Parent links follow the caller's ``contextvars``
context, so the interleaved requests of an asyncio service and the
executor threads that run its pool jobs each keep their own stack.  The
service's fork worker inherits the wrappers at fork time; a traced job
carries an op id in its job dict, and the worker returns its spans inside
the reply, where the parent re-attaches them under the pool call.

Layer self time is a span's duration minus the spans directly under it.
The op span is the benchmark's own call, so its self time is ``other_s``:
op wall that no layer span covers.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = List[Any]  # [name, op, parent span or None, start, end, attrs]

_STACK: contextvars.ContextVar[Tuple[Span, ...]] = contextvars.ContextVar(
    "perfbench_stack", default=()
)
_OP: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: Job-dict key carrying a traced op id into the service worker.
JOB_KEY = "_perfbench_op"
#: Reply-dict key carrying the worker's spans back to the parent.
REPLY_KEY = "_perfbench_spans"

# Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRIC = {
    "op": "other_s",
    "core.synthesize": "core.driver_s",
    "core.optimize": "core.driver_s",
    "core.encode": "core.encode_s",
    "core.extend_horizon": "core.extend_horizon_s",
    "core.extract": "core.extract_s",
    "core.validate": "core.validate_s",
    "sat.solve": "sat.search_s",
    "sat.inprocess": "sat.inprocess_s",
    "sat.snapshot": "sat.snapshot_s",
    "sat.restore": "sat.restore_s",
    "arch.subarch": "arch.subarch_s",
    "baselines.sabre": "baselines.sabre_s",
    "service.canonical": "service.canonical_s",
    "service.cache": "service.cache_s",
    "service.queue_wait": "service.queue_wait_s",
    "service.run_job": "service.ipc_s",
}


class Recorder:
    """In-memory span store; one per process."""

    def __init__(self) -> None:
        self.enabled = False
        self.installed = False
        self.spans: List[Span] = []
        # (fingerprint, device, objective) -> [(op id, op span), ...]: the
        # service requests that missed the cache on that key, in order.
        # The first one's job reaches the pool; the rest were coalesced.
        self.pending: Dict[Tuple[str, str, str], List[Tuple[int, Span]]] = {}
        self._next_op = 0

    def add(self, name: str, op: Optional[int], parent: Optional[Span],
            start: float, end: Optional[float] = None) -> Span:
        span = [name, op, parent, start, end, {}]
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def op_scope(self) -> Iterator[Tuple[int, Span]]:
        """One op: a root span, and the op id its children record."""
        self._next_op += 1
        op = self._next_op
        span = self.add("op", op, None, time.perf_counter())
        op_token = _OP.set(op)
        stack_token = _STACK.set((span,))
        try:
            yield op, span
        finally:
            _STACK.reset(stack_token)
            _OP.reset(op_token)
            span[4] = time.perf_counter()

    def run_op(self, fn: Callable[[], Any]) -> Any:
        with self.op_scope():
            return fn()

    def drain(self) -> List[Span]:
        spans, self.spans = self.spans, []
        return spans


REC = Recorder()


def _span_call(name: str, fn: Callable[..., Any], args: tuple, kwargs: dict,
               probe: Optional[Callable[..., Any]]) -> Any:
    stack = _STACK.get()
    span = REC.add(name, _OP.get(), stack[-1] if stack else None, time.perf_counter())
    token = _STACK.set(stack + (span,))
    finish = probe(args) if probe is not None else None
    try:
        result = fn(*args, **kwargs)
        if finish is not None:
            span[5] = finish(result)
        return result
    finally:
        _STACK.reset(token)
        span[4] = time.perf_counter()
        parent = span[2]
        if parent is not None and parent[0] == "op":
            # Where the op's own work last stopped: a later queue wait
            # starts here, so it never overlaps a layer span.
            parent[5]["last_end"] = span[4]


def _wrap(name: str, fn: Callable[..., Any],
          probe: Optional[Callable[..., Any]] = None) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not REC.enabled:
            return fn(*args, **kwargs)
        return _span_call(name, fn, args, kwargs, probe)

    return wrapper


# -- probes: read counters before a call, return the span's attrs after ----

_INPROCESS_REMOVED = ("subsumed_clauses", "strengthened_clauses", "vivified_clauses")


def _solve_probe(args: tuple) -> Callable[[Any], dict]:
    stats = args[0].stats
    c0, p0 = stats.conflicts, stats.propagations

    def finish(result: Any) -> dict:
        return {
            "conflicts": stats.conflicts - c0,
            "propagations": stats.propagations - p0,
            "unsat": int(getattr(result, "name", "") == "UNSAT"),
        }

    return finish


def _inprocess_probe(args: tuple) -> Callable[[Any], dict]:
    stats = args[0].solver.stats
    removed0 = sum(getattr(stats, key) for key in _INPROCESS_REMOVED)
    p0 = stats.propagations

    def finish(_result: Any) -> dict:
        removed = sum(getattr(stats, key) for key in _INPROCESS_REMOVED) - removed0
        return {"removed": removed, "propagations": stats.propagations - p0}

    return finish


def _encode_probe(args: tuple) -> Callable[[Any], dict]:
    # encode() is idempotent: a repeat call on a built encoder does no work
    # and does not count as an encode.
    encoder = args[0]
    if encoder._encoded:
        return lambda _result: {}
    return lambda _result: {"built": 1, "clauses": encoder.ctx.num_clauses}


def _candidates_probe(_args: tuple) -> Callable[[Any], dict]:
    return lambda result: {"candidates": len(result)}


def _cache_get_probe(_args: tuple) -> Callable[[Any], dict]:
    return lambda result: {"hit": int(result is not None)}


# -- service glue ----------------------------------------------------------


def _cache_get(fn: Callable[..., Any]) -> Callable[..., Any]:
    """ResultCache.get, which also notes a miss so the pool call that
    follows can be tied back to the request that caused it."""

    def wrapper(self: Any, key: Any) -> Any:
        if not REC.enabled:
            return fn(self, key)
        result = _span_call("service.cache", fn, (self, key), {}, _cache_get_probe)
        op, stack = _OP.get(), _STACK.get()
        if result is None and op is not None and stack:
            REC.pending.setdefault((key[0], key[1], key[3]), []).append((op, stack[0]))
        return result

    return wrapper


def _pool_run_job(fn: Callable[..., Any]) -> Callable[..., Any]:
    """WorkerPool.run_job in the parent (runs on an executor thread)."""

    def wrapper(self: Any, job: Dict[str, Any]) -> Dict[str, Any]:
        if not REC.enabled:
            return fn(self, job)
        rec = REC
        waiting = rec.pending.get((job["fingerprint"], job["device"], job["objective"]))
        if not waiting:
            return fn(self, job)
        op, root = waiting.pop(0)
        start = time.perf_counter()
        rec.add("service.queue_wait", op, root, root[5]["last_end"], start)
        span = rec.add("service.run_job", op, root, start)
        job[JOB_KEY] = op
        try:
            reply = fn(self, job)
        finally:
            job.pop(JOB_KEY, None)
            span[4] = time.perf_counter()
        # The worker's spans arrive as one pickled list, so their parent
        # links still point into it; its top-level spans hang under the
        # pool call that carried them.
        for worker_span in reply.pop(REPLY_KEY, []):
            if worker_span[2] is None:
                worker_span[2] = span
            rec.spans.append(worker_span)
        return reply

    return wrapper


def _worker_run_job(fn: Callable[..., Any]) -> Callable[..., Any]:
    """The module-level job runner inside the fork worker: traces the job
    when the parent marked it, and ships the spans back in the reply."""

    def wrapper(job: Dict[str, Any], *args: Any, **kwargs: Any) -> Dict[str, Any]:
        op = job.pop(JOB_KEY, None)
        if op is None:
            return fn(job, *args, **kwargs)
        REC.spans = []
        REC.enabled = True
        token = _OP.set(op)
        try:
            reply = fn(job, *args, **kwargs)
        finally:
            _OP.reset(token)
            REC.enabled = False
        reply[REPLY_KEY] = REC.drain()
        return reply

    return wrapper


def _submit(fn: Callable[..., Any]) -> Callable[..., Any]:
    """SynthesisService.submit: the op span of one service request."""

    async def wrapper(self: Any, request: Any) -> Any:
        if not REC.enabled:
            return await fn(self, request)
        try:
            with REC.op_scope() as (op, span):
                return await fn(self, request)
        finally:
            # A coalesced request missed the cache but rode another
            # request's solve: its wait for that solve is queue wait.
            for waiting in REC.pending.values():
                for entry in [e for e in waiting if e[0] == op]:
                    waiting.remove(entry)
                    REC.add("service.queue_wait", op, span, span[5]["last_end"], span[4])

    return wrapper


def install() -> None:
    """Wrap every traced entry point.  Call before the service forks its
    worker, so the worker inherits the wrappers (disabled until a traced
    job arrives)."""
    if REC.installed:
        return
    REC.installed = True
    from repro.baselines.sabre import SABRE
    from repro.circuit import canonical
    from repro.core import olsq2, optimizer, validator
    from repro.core.encoder import LayoutEncoder
    from repro.core.olsq2 import OLSQ2
    from repro.core.optimizer import IterativeSynthesizer
    from repro.sat import snapshot
    from repro.sat.inprocess import Inprocessor
    from repro.sat.solver import Solver
    from repro.service import pool, server
    from repro.service.cache import ResultCache
    from repro.service.pool import WorkerPool
    from repro.service.server import SynthesisService

    def patch(owner: Any, attr: str, name: str, probe: Any = None) -> None:
        setattr(owner, attr, _wrap(name, getattr(owner, attr), probe))

    patch(OLSQ2, "synthesize", "core.synthesize")
    patch(IterativeSynthesizer, "optimize_depth", "core.optimize")
    patch(IterativeSynthesizer, "optimize_swaps", "core.optimize")
    patch(LayoutEncoder, "encode", "core.encode", _encode_probe)
    patch(LayoutEncoder, "extend_horizon", "core.extend_horizon")
    patch(LayoutEncoder, "extract", "core.extract")
    # translate_result looks validate_result up in its module at call
    # time; the optimizer bound is_valid at import.
    patch(validator, "validate_result", "core.validate")
    patch(optimizer, "is_valid", "core.validate")
    patch(Solver, "solve", "sat.solve", _solve_probe)
    patch(Inprocessor, "run", "sat.inprocess", _inprocess_probe)
    patch(snapshot, "snapshot_solver", "sat.snapshot")
    patch(snapshot, "restore_solver", "sat.restore")
    patch(olsq2, "extract_candidates", "arch.subarch", _candidates_probe)
    patch(olsq2, "translate_result", "arch.subarch")
    patch(SABRE, "synthesize", "baselines.sabre")
    patch(server, "canonical_circuit", "service.canonical")
    patch(canonical, "circuit_fingerprint", "service.canonical")
    patch(ResultCache, "put", "service.cache")
    ResultCache.get = _cache_get(ResultCache.get)
    WorkerPool.run_job = _pool_run_job(WorkerPool.run_job)
    pool.run_job = _worker_run_job(pool.run_job)
    SynthesisService.submit = _submit(SynthesisService.submit)


def write(path: Any, spans: List[Span]) -> None:
    """Write spans as JSON lines; ``parent`` is the parent's line number."""
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w") as out:
        for name, op, parent, start, end, attrs in spans:
            out.write(json.dumps({
                "name": name, "op": op,
                "parent": None if parent is None else index[id(parent)],
                "start": start, "end": end,
                "attrs": {k: v for k, v in attrs.items() if k != "last_end"},
            }) + "\n")


def _layer_totals(spans: List[Span]) -> Dict[str, Any]:
    """Per-layer totals over the spans of traced ops.

    Returns self times per metric, op wall (sum of op spans), op count and
    the counters the probes collected.
    """
    children: Dict[int, float] = {}
    for _name, _op, parent, start, end, _attrs in spans:
        if parent is not None:
            children[id(parent)] = children.get(id(parent), 0.0) + (end - start)
    totals: Dict[str, float] = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    counts: Dict[str, float] = {}

    def count(key: str, value: float) -> None:
        counts[key] = counts.get(key, 0.0) + value

    op_wall = 0.0
    ops = 0
    for span in spans:
        name, op, parent, start, end, attrs = span
        if op is None:
            continue
        parent_name = None if parent is None else parent[0]
        duration = end - start
        totals[SELF_TIME_METRIC[name]] += duration - children.get(id(span), 0.0)
        count(name + ".calls", 1)
        if name == "op":
            op_wall += duration
            ops += 1
            continue
        for key, value in attrs.items():
            count(f"{name}.{key}", value)
        if name == "core.synthesize" and parent_name == "service.run_job":
            count("service.worker_synth", duration)
        if name == "sat.inprocess":
            count("sat.inprocess.useful", int(attrs.get("removed", 0) > 0))
            # Inprocessing nested in a solve call ran inside that
            # call's counter window; keep search propagations apart.
            if parent_name == "sat.solve":
                count("sat.solve.propagations", -attrs.get("propagations", 0))
    return {"self": totals, "counts": counts, "op_wall": op_wall, "ops": ops}


def layer_metrics(recorded: List[Span], templates: List[int], coalesced: int,
                  overhead: float) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """Per-layer metrics per traced op, and the check that layer self
    times plus ``other_s`` add up to the op wall."""
    totals = _layer_totals(recorded)
    ops = max(totals["ops"], 1)
    c = totals["counts"].get
    self_s = totals["self"]
    failures = []
    covered = sum(self_s.values())
    if abs(covered - totals["op_wall"]) > 1e-6 * max(1.0, totals["op_wall"]):
        failures.append(f"layer self times sum to {covered}, op wall {totals['op_wall']}")
    if any(v < -1e-6 for v in self_s.values()):
        failures.append(f"negative self time: {self_s}")
    search_props = c("sat.solve.propagations", 0)
    inprocess_calls = c("sat.inprocess.calls", 0)
    encode_calls = c("core.encode.built", 0)
    metrics = {name: (value / ops, "s") for name, value in self_s.items()}
    metrics.update({
        "sat.inprocess_calls": (inprocess_calls / ops, "count"),
        "sat.inprocess_removed": (c("sat.inprocess.removed", 0) / ops, "count"),
        "sat.inprocess_useful": (
            c("sat.inprocess.useful", 0) / inprocess_calls if inprocess_calls else 0.0,
            "ratio"),
        "sat.solve_calls": (c("sat.solve.calls", 0) / ops, "count"),
        "sat.solve_unsat": (c("sat.solve.unsat", 0) / ops, "count"),
        "sat.conflicts": (c("sat.solve.conflicts", 0) / ops, "count"),
        "sat.propagations": (search_props / ops, "count"),
        "sat.props_per_s": (
            search_props / self_s["sat.search_s"] if self_s["sat.search_s"] else 0.0,
            "1/s"),
        "sat.template_hits": (templates[0] / ops, "count"),
        "sat.template_misses": (templates[1] / ops, "count"),
        "core.encode_calls": (encode_calls / ops, "count"),
        "core.clauses_per_encode": (
            c("core.encode.clauses", 0) / encode_calls if encode_calls else 0.0,
            "count"),
        "arch.candidates": (c("arch.subarch.candidates", 0) / ops, "count"),
        "service.cache_hits": (c("service.cache.hit", 0) / ops, "count"),
        "service.coalesced": (coalesced / ops, "count"),
        "service.dispatches": (c("service.run_job.calls", 0) / ops, "count"),
        "service.worker_synth_s": (c("service.worker_synth", 0) / ops, "s"),
        "trace.overhead": (overhead, "ratio"),
    })
    return metrics, failures
