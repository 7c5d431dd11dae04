"""Span tracing for the benchmark's traced runs.

A span records its name, start, end, parent span, run id, wall time,
CPU time (of the calling thread) and layer counters. Spans stay in
memory: driver spans in the driver's :class:`Tracer`, worker spans in
each worker's tracer until the worker's outermost span closes, when
they are handed to one in-memory collector actor. The driver drains the
collector and writes every span out once, at the end of the run.

Where the spans come from — all wrappers live in this file; the engine
itself is not edited:

- **kernels and state** (driver and workers): :func:`install` replaces
  module-level engine functions and methods with span-recording
  wrappers in every ``imagor_ray`` module namespace that holds them, so
  a closure shipped to a worker resolves to the wrapper there too.
  Workers install it from :func:`worker_setup`, Ray's
  ``worker_process_setup_hook``.
- **exchange tasks** (workers): the split/reduce remote functions of
  ``pipelines.exchange`` and of the streaming tasks engine are swapped
  for remote functions that run the same bodies inside a span and count
  the rows and bytes each split hands to the reducers.
- **driver waits**: ``ray.get`` and Dataset consumption on the driver's
  main thread are wrapped, so the time the driver sits blocked on
  workers is a span of its own, never counted as a layer's self time.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

COLLECTOR = "perfbench_span_collector"

#: (module, attribute path, span name) of every wrapped engine callable
TARGETS = [
    ("imagor_ray.sources.transcripts", "_attach_text", "sources.transcripts.attach"),
    ("imagor_ray.sources.transcripts", "_assign_turn_idx_bucket", "sources.transcripts.turn_idx"),
    ("imagor_ray.sources.transcripts", "enrich_tool_columns", "sources.transcripts.enrich"),
    ("imagor_ray.stages.parse_sign", "parse_sign_batch", "stages.parse_sign"),
    ("imagor_ray.stages.chain", "filter_chain_batch", "stages.chain"),
    ("imagor_ray.stages.chain", "FilterChainStage._run_group", "stages.chain.lookup"),
    ("imagor_ray.stages.chain", "compile_chain", "stages.chain.compile"),
    ("imagor_ray.pipelines.streaming", "StreamingSessionJob._sessionize_with_start", "stages.windows.sessionize"),
    ("imagor_ray.pipelines.streaming", "StreamingSessionJob._cycle_prelude", "pipelines.streaming.prelude"),
    ("imagor_ray.pipelines.streaming", "StreamingSessionJob._take_prefetched", "pipelines.streaming.prefetch_wait"),
    ("imagor_ray.pipelines.streaming", "StreamingSessionJob._commit_cycle", "pipelines.streaming.commit"),
    ("imagor_ray.pipelines.stream_join", "StreamingJoinJob.run_cycle", "pipelines.stream_join.cycle"),
    ("imagor_ray.pipelines.stream_join", "_cycle_match", "pipelines.stream_join.match"),
    ("imagor_ray.pipelines.stream_join", "StreamingJoinJob._write_sorted", "pipelines.stream_join.write"),
    ("imagor_ray.state.sink", "ExactlyOnceSink.write_partition_df", "state.sink.write"),
    ("imagor_ray.state.storage", "LocalStorage.fsync_file", "state.sink.fsync"),
    ("imagor_ray.state.storage", "LocalStorage.fsync_dir", "state.sink.fsync"),
    ("imagor_ray.state.checkpoint", "Checkpoint.save", "state.checkpoint.save"),
    ("imagor_ray.state.checkpoint", "Checkpoint.stage_open_sessions", "state.checkpoint.stage"),
]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, run_id: str, collector: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        #: name of the collector actor (workers only); looked up on the
        #: first hand-over, because workers prestarted with the session
        #: run their setup hook before the collector exists
        self._collector = collector
        self._handle = None
        self._local = threading.local()
        self._ids = itertools.count()
        self._pid = os.getpid()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @property
    def current(self) -> str | None:
        st = self._stack()
        return st[-1] if st else None

    def span(self, name: str, **attrs) -> "_Span":
        return _Span(self, name, attrs)

    def _finish(self, rec: dict) -> None:
        self.spans.append(rec)
        if self._collector is not None and not self._stack():
            # outermost span of a worker call closed: hand the buffer to
            # the collector without waiting (drain() settles stragglers)
            import ray

            if self._handle is None:
                self._handle = ray.get_actor(self._collector)
            batch, self.spans = self.spans, []
            self._handle.add.remote(batch)


class _Span:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.t, self.name, self.attrs = tracer, name, attrs

    def __enter__(self) -> dict:
        t = self.t
        self.id = f"{t._pid}-{next(t._ids)}"
        self.parent = t.current
        t._stack().append(self.id)
        self.start = time.time()
        self.p0 = time.perf_counter()
        self.c0 = time.thread_time()
        return self.attrs

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self.p0
        cpu = time.thread_time() - self.c0
        t = self.t
        t._stack().pop()
        t._finish({
            "name": self.name, "id": self.id, "parent": self.parent,
            "run_id": t.run_id, "pid": t._pid,
            "thread": threading.current_thread().name,
            "start": self.start, "end": self.start + wall,
            "wall_ms": wall * 1000.0, "cpu_ms": cpu * 1000.0,
            "attrs": self.attrs,
        })


_TRACER: Tracer | None = None


def tracer() -> Tracer | None:
    """This process's tracer (None outside a traced session)."""
    return _TRACER


def _attrs_for(name: str, args, out) -> dict:
    """Layer counters recorded on a finished span."""
    if name in ("stages.parse_sign", "stages.chain", "stages.windows.sessionize",
                "sources.transcripts.attach", "sources.transcripts.turn_idx",
                "sources.transcripts.enrich"):
        return {"rows": len(args[0])}
    if name == "state.sink.write":
        skipped = bool(out["skipped"].iloc[0])
        a = {"rows": 0 if skipped else int(out["rows"].iloc[0]),
             "partitions": 0 if skipped else 1, "bytes": 0}
        if not skipped:
            sink, b = args[0], int(out["bucket"].iloc[0])
            path = os.path.join(sink.out_dir, f"part-{b:05d}.parquet")
            a["bytes"] = os.path.getsize(path) if os.path.exists(path) else 0
        return a
    if name == "state.checkpoint.save":
        return {"bytes": os.path.getsize(args[0].state_file)}
    if name == "state.checkpoint.stage":
        return {"rows": len(args[1]),
                "bytes": os.path.getsize(os.path.join(args[0].path, out))}
    if name == "pipelines.stream_join.cycle" and out is not None:
        return {"state_rows": int(out.get("state_rows", 0))}
    return {}


def _wrap(fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kw):
        tr = tracer()
        if tr is None:
            return fn(*args, **kw)
        with tr.span(name) as a:
            out = fn(*args, **kw)
            a.update(_attrs_for(name, args, out))
        return out
    return wrapper


def install(t: Tracer) -> None:
    """Make ``t`` this process's tracer and wrap every target in every
    loaded ``imagor_ray`` namespace that refers to it."""
    import importlib
    import sys

    global _TRACER
    _TRACER = t
    for mod_name, path, name in TARGETS:
        mod = importlib.import_module(mod_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if hasattr(fn, "__wrapped__"):
                continue
            w = _wrap(fn, name)
            setattr(cls, attr, staticmethod(w) if static else w)
            continue
        orig = getattr(mod, path)
        if hasattr(orig, "__wrapped__"):
            continue
        w = _wrap(orig, name)
        for m_name, m in list(sys.modules.items()):
            if (m_name.startswith("imagor_ray") and m is not None
                    and getattr(m, path, None) is orig):
                setattr(m, path, w)


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: trace this worker's kernels
    and hand its spans to the driver's collector."""
    install(Tracer(os.environ.get("PERFBENCH_RUN_ID", ""), collector=COLLECTOR))


def start_collector():
    import ray

    @ray.remote(num_cpus=0)
    class Collector:
        def __init__(self):
            self.spans = []

        def add(self, batch):
            self.spans.extend(batch)

        def drain(self):
            out, self.spans = self.spans, []
            return out

    return Collector.options(name=COLLECTOR).remote()


def drain(collector, settle_s: float = 0.3) -> list[dict]:
    """Every span the workers handed over, waiting until hand-overs
    still in flight have landed (two empty drains in a row)."""
    import ray

    out, empty = [], 0
    while empty < 2:
        batch = ray.get(collector.drain.remote())
        out += batch
        empty = 0 if batch else empty + 1
        time.sleep(settle_s)
    return out


#: Ray Data's sort-based exchange tasks, as named in ``ray.timeline()``
_RAY_DATA_EXCHANGE = ("sort_task_spec", "shuffle_task_spec",
                      "hash_shuffle", "aggregate_task_spec")


def timeline_spans(run_id: str, start: float, end: float) -> list[dict]:
    """Ray Data exchange tasks of ``[start, end]`` from the task events
    of ``ray.timeline()``, as spans of the exchange layer (task events
    carry wall time only; a task is single-threaded, so CPU is taken
    as its wall)."""
    import ray

    out = []
    for i, e in enumerate(ray.timeline()):
        if e.get("ph") != "X" or not any(k in e["name"]
                                         for k in _RAY_DATA_EXCHANGE):
            continue
        s = e["ts"] / 1e6
        if not start <= s <= end:
            continue
        op = e["name"].rsplit(".", 2)
        out.append({
            "name": "pipelines.exchange.ray_data." + "_".join(op[-2:]),
            "id": f"timeline-{i}", "parent": None, "run_id": run_id,
            "pid": e.get("pid"), "thread": "task", "start": s,
            "end": s + e["dur"] / 1e6, "wall_ms": e["dur"] / 1e3,
            "cpu_ms": e["dur"] / 1e3, "attrs": {"source": "timeline"},
        })
    return out


def _split_attrs(args, out) -> dict:
    rows = [int(s.num_rows) for s in out]
    return {"rows": sum(rows), "bucket_rows": rows,
            "bytes": int(sum(s.nbytes for s in out))}


def _traced_remote(body, name: str, attrs):
    import ray

    def run(*args):
        tr = tracer()
        if tr is None:
            return body(*args)
        with tr.span(name) as a:
            out = body(*args)
            if attrs is not None:
                a.update(attrs(args, out))
        return out

    return ray.remote(run)


def install_driver_hooks(t: Tracer) -> None:
    """Driver-only wrappers: the exchange remote functions, a counter
    span per Ray Data execution, and the main thread's waits in
    ``ray.get`` and in Dataset consumption."""
    import ray
    import ray.data

    from imagor_ray.pipelines import exchange, streaming

    split, reduce_ = exchange._fns()
    exchange._FNS = (
        _traced_remote(split._function, "pipelines.exchange.split", _split_attrs),
        _traced_remote(reduce_._function, "pipelines.exchange.reduce", None))
    split, reduce_ = streaming._exchange_fns()
    streaming._EXCHANGE_FNS = (
        _traced_remote(split._function, "pipelines.exchange.split", _split_attrs),
        _traced_remote(reduce_._function, "pipelines.exchange.reduce", None))

    from ray.data._internal.execution.streaming_executor import (
        StreamingExecutor)

    execute = StreamingExecutor.execute

    @functools.wraps(execute)
    def traced_execute(self, *args, **kw):
        with t.span("ray_data.execution"):
            return execute(self, *args, **kw)

    StreamingExecutor.execute = traced_execute

    main = threading.main_thread()

    def waiting(fn, name):
        @functools.wraps(fn)
        def wait(*args, **kw):
            if threading.current_thread() is not main:
                return fn(*args, **kw)
            with t.span(name):
                return fn(*args, **kw)
        return wait

    ray.get = waiting(ray.get, "driver.ray_get")
    # consuming a Dataset blocks the main thread on Ray Data's executor
    for meth in ("to_pandas", "materialize", "write_parquet", "to_arrow_refs"):
        setattr(ray.data.Dataset, meth,
                waiting(getattr(ray.data.Dataset, meth), "driver.data_wait"))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per-span self wall time (ms): duration minus the part of its
    interval covered by its children (children of one thread never
    overlap, so their durations add)."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["wall_ms"]
    return {s["id"]: max(0.0, s["wall_ms"] - child.get(s["id"], 0.0))
            for s in spans}
