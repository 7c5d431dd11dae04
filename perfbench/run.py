#!/usr/bin/env python3
"""Engine benchmark: seeded workloads against the engine's public entry
points, with output verification and an optional traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is a JSON diagnostics record (input generation time, weather
canary, host facts, per-iteration walls, verification failures). The
work directory ``.perfbench_work/`` in the checkout holds the generated
inputs (reused across runs), the per-seed output digests and the span
files of traced runs.

A run:

1. imports the engine (timed once);
2. three times: sets up — ``ray.init`` with ``num_cpus`` = ``nproc``
   plus one warm-up execution of the workload's entry point on a tiny
   input — then runs closed-loop iterations of the workload, each from
   empty output state, while one more fits into a third of
   ``--seconds`` (at least one per session), sampling the memory of the
   driver and the Ray workers and verifying every iteration's outputs;
   ``setup_s`` is the import time plus the median set-up, ``wall_s``
   the median iteration over all three sessions;
3. generates the seed's inputs once, after the first set-up
   (``gen_s``, outside every timed window);
4. for ``--trace 1``: sets up once, runs untraced iterations for half
   of ``--seconds`` (at least two), times the in-process kernel floor,
   then restarts Ray with the span hooks and runs one traced
   iteration.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import uuid

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
N_SETUPS = 3
OBJECT_STORE_BYTES = 1_000_000_000
#: the engine modules the traced run reports on
LAYERS = ["sources.transcripts", "stages.parse_sign", "stages.chain",
          "stages.windows", "pipelines.exchange", "pipelines.streaming",
          "pipelines.stream_join", "state.sink", "state.checkpoint"]
#: per-layer metrics of a traced run, by name and unit
PER_LAYER = [
    ("sources.transcripts.cpu_ms", "ms"),
    ("stages.parse_sign.cpu_ms", "ms"),
    ("stages.parse_sign.rows", "count"),
    ("stages.chain.cpu_ms", "ms"),
    ("stages.chain.rows", "count"),
    ("stages.chain.cache_hit_ratio", "ratio"),
    ("stages.chain.cache_lookups", "count"),
    ("stages.windows.sessionize_cpu_ms", "ms"),
    ("pipelines.exchange.split_ms", "ms"),
    ("pipelines.exchange.reduce_wait_ms", "ms"),
    ("pipelines.exchange.bytes_moved", "bytes"),
    ("pipelines.exchange.bucket_skew", "ratio"),
    ("pipelines.exchange.tasks", "count"),
    ("pipelines.streaming.cycle_ms", "ms"),
    ("pipelines.streaming.prelude_ms", "ms"),
    ("pipelines.streaming.prefetch_wait_ms", "ms"),
    ("pipelines.streaming.driver_idle_ms", "ms"),
    ("pipelines.streaming.executions_per_cycle", "count"),
    ("pipelines.streaming.open_sessions", "count"),
    ("pipelines.streaming.watermark_lag_s", "s"),
    ("pipelines.stream_join.cycle_ms", "ms"),
    ("pipelines.stream_join.state_rows", "count"),
    ("pipelines.stream_join.state_bytes", "bytes"),
    ("state.sink.write_ms", "ms"),
    ("state.sink.partitions", "count"),
    ("state.sink.bytes", "bytes"),
    ("state.sink.fsyncs", "count"),
    ("state.checkpoint.save_ms", "ms"),
    ("state.checkpoint.bytes", "bytes"),
] + [(f"{layer}.self_ms", "ms") for layer in LAYERS] + [
    ("trace.coverage_pct", "%"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("floor.kernel_s", "s"),
    ("floor.rows_per_s", "1/s"),
    ("floor.ray_overhead_x", "x"),
    ("host.canary_ms", "ms"),
]


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _ray_temp_dir() -> str | None:
    # Ray puts unix sockets at <temp dir>/<64-byte session suffix>; a
    # socket path must fit in 107 bytes, so a deep checkout falls back
    # to Ray's default temp dir
    d = os.path.join(WORK, "r")
    return d if len(d) <= 107 - 64 else None


def ray_up(nproc: int, traced: bool = False) -> None:
    import ray
    from ray.data import DataContext

    kw = {}
    if _ray_temp_dir():
        kw["_temp_dir"] = _ray_temp_dir()
    if traced:
        kw["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.worker_setup"}
    ray.init(num_cpus=nproc, include_dashboard=False, log_to_driver=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             **kw)
    DataContext.get_current().enable_progress_bars = False


def fresh(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Iterations:
    """Closed-loop iterations of one workload and what they measured."""

    def __init__(self, wl, run_dir: str, rss, failures: list[str]):
        self.wl, self.run_dir, self.rss = wl, run_dir, rss
        self.failures = failures
        self.walls: list[float] = []
        self.peaks: list[float] = []
        self.digests: list[str] = []

    def run(self, seconds: float, min_iters: int) -> None:
        """Iterate while one more iteration, as long as the last, fits
        into ``seconds`` (at least ``min_iters``). Every iteration is
        verified; the first one of the run also deeply."""
        from perfbench import verify

        walls: list[float] = []
        while len(walls) < min_iters or sum(walls) + walls[-1] <= seconds:
            i = len(self.walls)
            out = fresh(os.path.join(self.run_dir, f"it{i % 2}"))
            self.rss.reset()
            t0 = time.perf_counter()
            try:
                result = self.wl.iteration(out)
            except Exception as e:  # a job that raised is a failed operation
                walls.append(time.perf_counter() - t0)
                self.walls.append(walls[-1])
                self.failures.append(f"it{i}: {type(e).__name__}: {e}")
                continue
            walls.append(time.perf_counter() - t0)
            self.walls.append(walls[-1])
            self.peaks.append(self.rss.peak_mb)
            errs = self.wl.check(out, result, deep=not self.digests)
            self.digests.append(verify.digest(self.wl.outputs(out)))
            if self.digests[-1] != self.digests[0]:
                errs.append("output digest differs from the first iteration")
            self.failures += [f"it{i}: {e}" for e in errs]


def check_seed_digest(name: str, seed: int, digest: str,
                      failures: list[str]) -> None:
    """Exactly-once replay across runs: one seed, one digest."""
    path = os.path.join(WORK, "digests", f"{name}-{seed}.txt")
    if os.path.exists(path):
        with open(path) as f:
            if f.read().strip() != digest:
                failures.append("seed: output digest differs from an "
                                "earlier run of this seed")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as f:
        f.write(digest)
    os.replace(path + ".tmp", path)


def layer_metrics(spans: list[dict], it: dict, extras: dict,
                  untraced_s: float, floor_s: float, rows: int,
                  canary: float) -> dict:
    """Per-layer figures of one traced iteration (``it`` is its span)."""
    from perfbench.trace import self_times

    spans = [s for s in spans
             if it["start"] <= s["start"] <= it["end"] or s is it]
    selft = self_times(spans)

    def named(prefix):
        return [s for s in spans if s["name"].startswith(prefix)]

    def total(prefix, key="wall_ms"):
        return sum(s[key] for s in named(prefix))

    def attr(prefix, key):
        return sum(s["attrs"].get(key, 0) for s in named(prefix))

    m = {}
    m["sources.transcripts.cpu_ms"] = total("sources.transcripts", "cpu_ms")
    m["stages.parse_sign.cpu_ms"] = total("stages.parse_sign", "cpu_ms")
    m["stages.parse_sign.rows"] = attr("stages.parse_sign", "rows")
    chain = [s for s in spans if s["name"] == "stages.chain"]
    m["stages.chain.cpu_ms"] = sum(s["cpu_ms"] for s in chain)
    m["stages.chain.rows"] = sum(s["attrs"].get("rows", 0) for s in chain)
    # compiled-chain cache: every per-path group looks its chain up,
    # every miss compiles it
    lookups = len(named("stages.chain.lookup"))
    m["stages.chain.cache_lookups"] = lookups
    m["stages.chain.cache_hit_ratio"] = (
        1.0 - len(named("stages.chain.compile")) / lookups if lookups else 0.0)
    m["stages.windows.sessionize_cpu_ms"] = total("stages.windows.sessionize",
                                                  "cpu_ms")
    splits = named("pipelines.exchange.split")
    m["pipelines.exchange.split_ms"] = total("pipelines.exchange.split")
    m["pipelines.exchange.reduce_wait_ms"] = total("driver.ray_get")
    m["pipelines.exchange.bytes_moved"] = attr("pipelines.exchange.split",
                                               "bytes")
    per_bucket: list[int] = []
    for s in splits:
        rows_b = s["attrs"].get("bucket_rows", [])
        if len(per_bucket) < len(rows_b):
            per_bucket += [0] * (len(rows_b) - len(per_bucket))
        for b, n in enumerate(rows_b):
            per_bucket[b] += n
    mean_b = sum(per_bucket) / len(per_bucket) if per_bucket else 0
    m["pipelines.exchange.bucket_skew"] = (max(per_bucket) / mean_b
                                           if mean_b else 0.0)
    m["pipelines.exchange.tasks"] = len(named("pipelines.exchange"))
    cycles = extras.get("cycles", 0)
    streaming = "open_sessions" in extras
    m["pipelines.streaming.cycle_ms"] = (it["wall_ms"] / cycles
                                         if streaming and cycles else 0.0)
    m["pipelines.streaming.prelude_ms"] = total("pipelines.streaming.prelude")
    m["pipelines.streaming.prefetch_wait_ms"] = total(
        "pipelines.streaming.prefetch_wait")
    m["pipelines.streaming.driver_idle_ms"] = it["wall_ms"] - it["cpu_ms"]
    m["pipelines.streaming.executions_per_cycle"] = (
        len(named("ray_data.execution")) / cycles if cycles else 0.0)
    m["pipelines.streaming.open_sessions"] = extras.get("open_sessions", 0)
    # wall-clock watermark lag: how long after the run started (when
    # the whole backlog was visible) each cycle's watermark advance
    # committed, averaged over cycles
    commits = named("pipelines.streaming.commit")
    m["pipelines.streaming.watermark_lag_s"] = (
        sum(s["end"] - it["start"] for s in commits) / len(commits)
        if commits else 0.0)
    jc = named("pipelines.stream_join.cycle")
    m["pipelines.stream_join.cycle_ms"] = (
        sum(s["wall_ms"] for s in jc) / len(jc) if jc else 0.0)
    m["pipelines.stream_join.state_rows"] = max(
        (s["attrs"].get("state_rows", 0) for s in jc), default=0)
    m["pipelines.stream_join.state_bytes"] = max(
        (s["attrs"].get("bytes", 0) for s in named("state.checkpoint.stage")),
        default=0) if jc else 0
    m["state.sink.write_ms"] = total("state.sink.write")
    m["state.sink.partitions"] = attr("state.sink.write", "partitions")
    m["state.sink.bytes"] = attr("state.sink.write", "bytes")
    m["state.sink.fsyncs"] = len(named("state.sink.fsync"))
    m["state.checkpoint.save_ms"] = total("state.checkpoint")
    saves = named("state.checkpoint.save")
    stages = named("state.checkpoint.stage")
    m["state.checkpoint.bytes"] = (
        (saves[-1]["attrs"]["bytes"] if saves else 0)
        + (stages[-1]["attrs"]["bytes"] if stages else 0))
    covered = 0.0
    for layer in LAYERS:
        own = sum(selft[s["id"]] for s in spans
                  if s["name"] == layer or s["name"].startswith(layer + "."))
        m[f"{layer}.self_ms"] = own
        covered += own
    traced_s = it["wall_ms"] / 1000.0
    m["trace.coverage_pct"] = 100.0 * covered / it["wall_ms"]
    m["trace.wall_s"] = traced_s
    m["trace.untraced_wall_s"] = untraced_s
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    m["floor.kernel_s"] = floor_s
    m["floor.rows_per_s"] = rows / floor_s
    m["floor.ray_overhead_x"] = untraced_s / floor_s
    m["host.canary_ms"] = canary
    return m


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "imagor_ray")):
        _fail("the engine package imagor_ray is not in this checkout")
    sys.path.insert(0, ROOT)
    # Ray workers import the engine and the trace hook from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)

    t0 = time.perf_counter()
    import ray
    import ray.data  # noqa: F401

    import imagor_ray.pipelines.flagship  # noqa: F401
    import imagor_ray.pipelines.stream_join  # noqa: F401
    import imagor_ray.pipelines.streaming  # noqa: F401
    from perfbench import gen, host
    from perfbench.workloads import WORKLOADS
    import_s = time.perf_counter() - t0

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}")
    canary_before = host.canary_ms()
    facts = host.host_facts()
    nproc = facts["nproc"]

    base = gen.make_base(os.path.join(WORK, "base"))
    tiny = gen.tiny_sf(base, os.path.join(WORK, "tiny"))
    run_dir = fresh(os.path.join(WORK, "run", args.workload))
    wl = WORKLOADS[args.workload](base, tiny, os.path.join(WORK, "replicas"),
                                  run_dir, args.seed)
    failures: list[str] = []
    diag = {"workload": args.workload, "seed": args.seed, **facts,
            "import_s": import_s}
    try:
        # untraced: the window is split over N_SETUPS Ray sessions, so a
        # session that happens to run slow or fast moves the median less;
        # traced: half the window in one session, the rest is tracing
        n_sessions = N_SETUPS if args.trace == 0 else 1
        setups = []
        with host.RssSampler() as rss:
            its = Iterations(wl, run_dir, rss, failures)
            for i in range(n_sessions):
                if i:
                    ray.shutdown()
                t0 = time.perf_counter()
                ray_up(nproc)
                wl.warmup(fresh(os.path.join(run_dir, f"warm{i}")))
                setups.append(time.perf_counter() - t0)
                if i == 0:
                    t0 = time.perf_counter()
                    wl.prepare()
                    diag["gen_s"] = time.perf_counter() - t0
                if args.trace == 0:
                    its.run(args.seconds / n_sessions, min_iters=1)
                else:
                    its.run(args.seconds / 2, min_iters=2)
        diag.update(rows=wl.rows, walls_s=its.walls, peak_rss_mb=its.peaks,
                    setups_s=setups)
        if its.digests:
            check_seed_digest(args.workload, args.seed, its.digests[0],
                              failures)
        wall = statistics.median(its.walls)
        attempted = len(its.walls)
        if args.trace == 0:
            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "wall_s": (wall, "s"),
                "rows_per_s": (wl.rows / wall, "1/s"),
                "peak_rss_mb": (statistics.median(its.peaks) if its.peaks
                                else rss.peak_mb, "MB"),
            }
        else:
            metrics = traced_run(wl, nproc, run_dir, wall, its.digests,
                                 failures, canary_before, diag)
            attempted += 1
    finally:
        ray.shutdown()
        if _ray_temp_dir():
            shutil.rmtree(_ray_temp_dir(), ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)
    diag["canary_ms"] = [canary_before, host.canary_ms()]
    diag["failures"] = failures
    failed = min(attempted, len({f.split(":")[0] for f in failures}))
    diag["error_rate"] = failed / attempted
    print(json.dumps(diag))
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def traced_run(wl, nproc: int, run_dir: str, untraced_s: float,
               digests: list[str], failures: list[str], canary: float,
               diag: dict) -> dict:
    """The kernel floor, then one traced iteration in a fresh Ray
    session; returns the per-layer metrics."""
    import ray

    from perfbench import trace as tr
    from perfbench import verify

    ray.shutdown()
    floor_s = wl.floor()
    run_id = uuid.uuid4().hex[:12]
    os.environ["PERFBENCH_RUN_ID"] = run_id
    t = tr.Tracer(run_id)
    tr.install(t)
    ray_up(nproc, traced=True)
    collector = tr.start_collector()
    tr.install_driver_hooks(t)
    wl.warmup(fresh(os.path.join(run_dir, "warm-traced")))
    tr.drain(collector)
    t.spans.clear()

    out = fresh(os.path.join(run_dir, "traced"))
    with t.span("workload.iteration"):
        result = wl.iteration(out)
    it = t.spans[-1]
    spans = (t.spans + tr.drain(collector)
             + tr.timeline_spans(run_id, it["start"], it["end"]))
    errs = wl.check(out, result, deep=False)
    if digests and verify.digest(wl.outputs(out)) != digests[0]:
        errs.append("traced output digest differs from the untraced run")
    failures += [f"traced: {e}" for e in errs]

    extras = wl.layer_extras(out, result)
    m = layer_metrics(spans, it, extras, untraced_s, floor_s, wl.rows, canary)
    diag["extras"] = extras
    path = os.path.join(WORK, "traces", f"{wl.name}-{wl.seed}-{run_id}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"run_id": run_id, "spans": spans}, f)
    diag["spans_file"] = os.path.relpath(path, ROOT)
    diag["spans"] = len(spans)
    return {name: (float(m[name]), unit) for name, unit in PER_LAYER}


if __name__ == "__main__":
    main()
