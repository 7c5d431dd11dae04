"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and print ONE JSON line::

    {"metric": "turns_per_sec", "value": <headline seconds>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...}

``--scaling``: run the headline flagship job twice in fresh processes
(num_cpus=8 then 32) on the same input and report both throughputs plus
the N→4N scaling efficiency (the sandbox protocol for the two-cluster-
size criterion — see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _headline(sf_dir: str, out_root: str, replicas: int = 1,
              flagship_only: bool = False) -> dict[str, float]:
    """Timed sections; each consumes its stream fully."""
    import shutil

    from imagor_ray.pipelines.flagship import flagship_write, processed_turns
    from imagor_ray.sources.transcripts import derive_transcripts
    from imagor_ray.stages.windows import session_windows, tumbling_tool_stats
    from imagor_ray.state.sink import ExactlyOnceSink

    times: dict[str, float] = {}

    # warm the page cache so we measure compute+shuffle, not first disk read
    t0 = time.perf_counter()
    n_turns = derive_transcripts(sf_dir, with_turn_idx=False, replicas=replicas).count()
    times["warm_read"] = time.perf_counter() - t0

    # headline: full flagship chain → exactly-once sink. Best-of-N
    # inside one invocation (default 2): this host swings between
    # normal and 3-10×-degraded windows on minute scales (BENCH.md
    # "host wall-time varies ~2×" — observed worse), so a single run
    # can misrepresent the engine by an order of magnitude.
    sink_dir = os.path.join(out_root, "sink")
    best = float("inf")
    for _ in range(max(1, int(os.environ.get("GRAFT_BENCH_REPEAT", "2")))):
        shutil.rmtree(sink_dir, ignore_errors=True)
        t0 = time.perf_counter()
        flagship_write(
            sf_dir, sink_dir,
            num_buckets=int(os.environ.get("GRAFT_BENCH_BUCKETS", "64")),
            replicas=replicas,
            # 'auto' picks the raw hash exchange below the measured
            # ~4M-turn crossover and the dataset engine above it
            # (BENCH.md finding 20); outputs are byte-identical
            engine=os.environ.get("IMAGOR_RAY_FLAGSHIP_ENGINE", "auto"))
        best = min(best, time.perf_counter() - t0)
    times["flagship_sink"] = best

    if flagship_only:
        times["_n_turns"] = float(n_turns)
        return times

    t0 = time.perf_counter()
    session_windows(derive_transcripts(sf_dir, replicas=replicas), gap_s=1800).count()
    times["sessions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tumbling_tool_stats(derive_transcripts(sf_dir, with_turn_idx=False, replicas=replicas),
                        size_s=3600).count()
    times["tumbling_stats"] = time.perf_counter() - t0

    times["_n_turns"] = float(n_turns)
    return times


def run_bench() -> dict:
    import ray
    from ray.data import DataContext

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR",
                 object_store_memory=int(os.environ.get(
                     "GRAFT_BENCH_OBJ_STORE", str(80_000_000_000))))
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # 256MB sort-output blocks measured best at 16 CPUs (round 2): the
    # default 128MB leaves the reduce stage as ~34 uneven tasks whose
    # straggler tail is a fixed cost the high-CPU side cannot amortize
    # (14.3s vs 16-20s at 10M turns; see BENCH.md finding 11)
    ctx.target_max_block_size = int(os.environ.get(
        "GRAFT_BENCH_TMBS", str(256 * 1024 * 1024)))
    if os.environ.get("GRAFT_BENCH_HASH_SHUFFLE", "0") == "1":
        from ray.data.context import ShuffleStrategy
        ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    out_root = os.environ.get("GRAFT_BENCH_OUT", "/tmp/imagor_ray_bench")
    os.makedirs(out_root, exist_ok=True)
    replicas = int(os.environ.get("GRAFT_BENCH_REPLICAS", "10"))
    flagship_only = os.environ.get("GRAFT_BENCH_FLAGSHIP_ONLY", "0") == "1"

    times = _headline(sf_dir, out_root, replicas=replicas, flagship_only=flagship_only)
    n_turns = times.pop("_n_turns")
    headline = times["flagship_sink"]
    total = sum(times.values())
    result = {
        "metric": "flagship_end_to_end",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": {k: round(v, 3) for k, v in times.items()},
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "n_turns": int(n_turns),
        "turns_per_sec": round(n_turns / headline, 1),
        "total_sec": round(total, 3),
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    def one(ncpu: int) -> dict:
        # tmpfs sink for the scaling criterion: the sandbox's single
        # virtio disk bottlenecks concurrent writers and would measure
        # the disk, not the engine; a real cluster sinks to per-node
        # object storage. Override with GRAFT_BENCH_OUT.
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_BENCH_OUT=os.environ.get(
                       "GRAFT_BENCH_OUT", f"/dev/shm/imagor_ray_bench_{ncpu}"),
                   GRAFT_BENCH_REPLICAS=os.environ.get("GRAFT_BENCH_REPLICAS", "100"),
                   GRAFT_BENCH_BUCKETS=os.environ.get("GRAFT_BENCH_BUCKETS", "256"),
                   GRAFT_BENCH_FLAGSHIP_ONLY="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    n_lo = int(os.environ.get("GRAFT_BENCH_CPUS_LO", "4"))
    n_hi = int(os.environ.get("GRAFT_BENCH_CPUS_HI", str(n_lo * 4)))
    # INTERLEAVED trials (lo, hi, lo, hi, ...): the host's degraded
    # windows outlast a whole leg's back-to-back trials (BENCH.md
    # finding 23 — measured 1.045 and 0.508 in consecutive hours when
    # one leg's entire phase landed in a bad window). Alternating
    # spreads both legs across windows so best-of-leg samples clean
    # weather for BOTH sides; min wall time is the engine's capability.
    n_trials = int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))
    lo_trials, hi_trials = [], []
    for _ in range(n_trials):
        lo_trials.append(one(n_lo))
        hi_trials.append(one(n_hi))
    lo = min(lo_trials, key=lambda d: d["value"])
    hi = min(hi_trials, key=lambda d: d["value"])
    tput_lo, tput_hi = lo["turns_per_sec"], hi["turns_per_sec"]
    eff = (tput_hi / tput_lo) / (n_hi / n_lo)
    # same-window pair diagnostic: a window slows both adjacent legs
    # about equally, so the per-pair ratio is robust to weather even
    # when no trial lands clean
    paired = [round((h["turns_per_sec"] / l["turns_per_sec"]) / (n_hi / n_lo), 3)
              for l, h in zip(lo_trials, hi_trials)]
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": n_lo,
        "cpus_hi": n_hi,
        "turns_per_sec_lo": tput_lo,
        "turns_per_sec_hi": tput_hi,
        "sec_lo": lo["value"],
        "sec_hi": hi["value"],
        "paired_efficiencies": paired,
        "n_turns": lo.get("n_turns"),
        "sf": lo["sf"],
    }


def run_sortwall() -> dict:
    """Demonstrate the sort-wall mitigation (BENCH.md finding 7): past
    ~10M rows a single local sort degrades superlinearly on the one-node
    object store. Measure the SAME ≥20M-turn workload two ways at equal
    CPUs:

    - single-batch: one flagship_write → one giant conv-bucket sort;
    - micro-batch: the replica-range driver loop
      (``derive_transcripts(replicas=(a, b))``, the StreamingFlagshipJob
      shape) — each cycle's shuffle stays bounded, cycles write
      cycle-scoped exactly-once sinks.

    A multi-node cluster shards the exchange anyway; this shows the
    single-node escape hatch carries the throughput, not just the claim.
    """
    import shutil

    import ray
    from ray.data import DataContext

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("GRAFT_SORTWALL_CPUS", "16"))
    # 200 replicas of the sf0.1 event stream = 20M turns — past the
    # ~10M-row single-sort wall; cycles of 50 (5M) stay under it
    total_replicas = int(os.environ.get("GRAFT_SORTWALL_REPLICAS", "200"))
    cycle = int(os.environ.get("GRAFT_SORTWALL_CYCLE", "50"))
    out_root = os.environ.get("GRAFT_BENCH_OUT", "/dev/shm/imagor_ray_sortwall")
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=int(os.environ.get(
                 "GRAFT_BENCH_OBJ_STORE", str(80_000_000_000))))
    DataContext.get_current().enable_progress_bars = False

    from imagor_ray.pipelines.flagship import flagship_write
    from imagor_ray.sources.transcripts import derive_transcripts

    n_turns = derive_transcripts(sf_dir, with_turn_idx=False, replicas=1).count() * total_replicas

    single_dir = os.path.join(out_root, "single")
    shutil.rmtree(single_dir, ignore_errors=True)
    t0 = time.perf_counter()
    flagship_write(sf_dir, single_dir, replicas=total_replicas,
                   num_buckets=int(os.environ.get("GRAFT_BENCH_BUCKETS", "256")))
    t_single = time.perf_counter() - t0
    shutil.rmtree(single_dir, ignore_errors=True)

    micro_dir = os.path.join(out_root, "micro")
    shutil.rmtree(micro_dir, ignore_errors=True)
    t0 = time.perf_counter()
    for i in range(0, total_replicas, cycle):
        flagship_write(
            sf_dir, os.path.join(micro_dir, f"cycle-{i:03d}"),
            replicas=(i, min(i + cycle, total_replicas)),
            num_buckets=int(os.environ.get("GRAFT_BENCH_BUCKETS", "256")) // 4,
        )
    t_micro = time.perf_counter() - t0
    shutil.rmtree(micro_dir, ignore_errors=True)

    ray.shutdown()
    return {
        "metric": "sortwall_microbatch_speedup",
        "value": round(t_single / t_micro, 3),
        "unit": "ratio",
        "n_turns": int(n_turns),
        "num_cpus": num_cpus,
        "cycle_replicas": cycle,
        "sec_single_batch": round(t_single, 3),
        "sec_micro_batch": round(t_micro, 3),
        "turns_per_sec_single": round(n_turns / t_single, 1),
        "turns_per_sec_micro": round(n_turns / t_micro, 1),
        "sf": sf_dir,
    }


def run_stream() -> dict:
    """End-to-end StreamingFlagshipJob throughput: the production
    micro-batch loop (watermark + late routing + chain → cycle-scoped
    exactly-once sink + open-session carryover) over a multi-cycle
    stream, measured as sustained turns/sec across all cycles."""
    import shutil

    import ray
    from ray.data import DataContext

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("GRAFT_STREAM_CPUS", "16"))
    n_cycles = int(os.environ.get("GRAFT_STREAM_CYCLES", "10"))
    per_cycle = int(os.environ.get("GRAFT_STREAM_REPLICAS_PER_CYCLE", "10"))
    root = os.environ.get("GRAFT_BENCH_OUT", "/dev/shm/imagor_ray_stream")
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=int(os.environ.get(
                 "GRAFT_BENCH_OBJ_STORE", str(80_000_000_000))))
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.target_max_block_size = int(os.environ.get(
        "GRAFT_BENCH_TMBS", str(256 * 1024 * 1024)))

    from imagor_ray.pipelines.streaming import StreamingFlagshipJob
    from imagor_ray.sources.transcripts import derive_transcripts

    shutil.rmtree(root, ignore_errors=True)
    input_dir = os.path.join(root, "in")
    os.makedirs(input_dir)

    # stage the micro-batch files (distributed writes; excluded from the
    # measured window — arrival is the upstream producer's job)
    import pyarrow.parquet as _pq

    n_events = _pq.read_metadata(f"{sf_dir}/events.parquet").num_rows
    n_turns = n_cycles * per_cycle * n_events
    for c in range(n_cycles):
        ds = derive_transcripts(
            sf_dir, with_turn_idx=True,
            replicas=(c * per_cycle, (c + 1) * per_cycle),
        )
        # producer-side file sizing: ~64k-row files keep the consumer's
        # read from fragmenting into hundreds of tiny footers
        ds.write_parquet(os.path.join(input_dir, f"batch-{c:05d}.parquet"),
                         min_rows_per_file=65536)

    job = StreamingFlagshipJob(
        input_dir, os.path.join(root, "state"), gap_s=1800, num_buckets=64)
    t0 = time.perf_counter()
    results = job.run_all()
    job.flush()
    wall = time.perf_counter() - t0
    shutil.rmtree(root, ignore_errors=True)
    ray.shutdown()
    return {
        "metric": "streaming_flagship_end_to_end",
        "value": round(wall, 3),
        "unit": "sec",
        "n_turns": int(n_turns),
        "cycles": len(results),
        "cycle_engine": "tasks",
        "num_cpus": num_cpus,
        "turns_per_sec": round(n_turns / wall, 1),
        "late_rows": int(sum(r["late"] for r in results)),
        "closed_sessions": int(sum(r["closed"] for r in results)),
        "sf": sf_dir,
    }


def run_stream_scaling() -> dict:
    """Two-parallelism-level efficiency for the STREAMING loop (round-4
    verdict item 6): the same `--stream` job (staging excluded from the
    measured window) in fresh processes at N and 4N CPUs, best-of-K
    each, efficiency = (tput_hi / tput_lo) / (cpus_hi / cpus_lo)."""
    def one(ncpu: int) -> dict:
        env = dict(os.environ, GRAFT_STREAM_CPUS=str(ncpu),
                   GRAFT_BENCH_OUT=f"/dev/shm/imagor_ray_stream_{ncpu}")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--stream"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    n_lo = int(os.environ.get("GRAFT_BENCH_CPUS_LO", "4"))
    n_hi = int(os.environ.get("GRAFT_BENCH_CPUS_HI", str(n_lo * 4)))
    # INTERLEAVED trials, exactly like run_scaling: the host's degraded
    # windows outlast a whole leg's back-to-back trials (BENCH.md
    # finding 23), so alternating spreads both legs across windows and
    # best-of-leg samples clean weather for BOTH sides.
    n_trials = int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))
    lo_trials, hi_trials = [], []
    for _ in range(n_trials):
        lo_trials.append(one(n_lo))
        hi_trials.append(one(n_hi))
    lo = min(lo_trials, key=lambda d: d["value"])
    hi = min(hi_trials, key=lambda d: d["value"])
    eff = (hi["turns_per_sec"] / lo["turns_per_sec"]) / (n_hi / n_lo)
    paired = [round((h["turns_per_sec"] / l["turns_per_sec"]) / (n_hi / n_lo), 3)
              for l, h in zip(lo_trials, hi_trials)]
    return {
        "metric": "streaming_scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": n_lo,
        "cpus_hi": n_hi,
        "turns_per_sec_lo": lo["turns_per_sec"],
        "turns_per_sec_hi": hi["turns_per_sec"],
        "sec_lo": lo["value"],
        "sec_hi": hi["value"],
        "paired_efficiencies": paired,
        "n_turns": lo["n_turns"],
        "sf": lo["sf"],
    }


def _stage_replicated_events(sf_dir: str, input_dir: str, n_cycles: int,
                             per_cycle: int) -> int:
    """Multi-cycle replicated event stream (the flagship replica
    pattern: disjoint user/id spaces, event time shifted one span per
    replica so the stream advances). Staging is excluded from every
    leg's measured window. Returns total rows."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as _pq
    import ray.data as rd

    events_path = f"{sf_dir}/events.parquet"
    n_events = _pq.read_metadata(events_path).num_rows

    def replica_events(batch):
        tbl = _pq.read_table(
            events_path,
            columns=["event_id", "ts", "user_id", "event_type", "value"])
        ts_us = pc.cast(tbl["ts"], pa.timestamp("us")).cast(pa.int64())
        span = pc.max(ts_us).as_py() - pc.min(ts_us).as_py()
        stride = span + 86_400_000_000
        for idx in batch["id"]:
            r = int(idx)
            shifted = pa.table({
                "event_id": pc.add(tbl["event_id"], r * 1_000_000_000),
                "ts": pc.add(ts_us, r * stride).cast(pa.timestamp("us")),
                "user_id": pc.add(tbl["user_id"], r * 1_000_000),
                "event_type": tbl["event_type"],
                "value": tbl["value"],
            })
            for i in range(0, len(shifted), 65536):
                yield shifted.slice(i, 65536)

    for c in range(n_cycles):
        (rd.range(per_cycle).map_batches(
            lambda b, c=c: (x for x in replica_events(
                {"id": b["id"] + c * per_cycle})),
            batch_size=1, batch_format="numpy")
         .write_parquet(os.path.join(input_dir, f"batch-{c:05d}.parquet"),
                        min_rows_per_file=65536))
    return n_cycles * per_cycle * n_events


#: the streaming-loop legs: CLI flag -> (module, job class, default
#: GRAFT_BENCH_OUT leaf, metric, run_all totals reported, finalize?).
#: Each replicates the sf events into GRAFT_STREAM_CYCLES cycle files
#: above the dataset-path threshold, so every leg measures the
#: user-bucket grouped kernel with in-task per-bucket emission writes,
#: state carry and per-cycle commit (broadcast rules: the probe-only
#: exchange against the ray.put rule table).
_STREAM_LEGS = {
    "--session-changelog": ("changelog", "SessionChangelogJob", "schlog",
                            "session_update_changelog_end_to_end",
                            ("late",), False),
    "--stream-join": ("stream_join", "StreamingJoinJob", "sjoin",
                      "stream_stream_join_end_to_end",
                      ("matched", "late"), False),
    "--stream-dedup": ("stream_dedup", "StreamingDedupJob", "sdedup",
                       "streaming_dedup_end_to_end",
                       ("emitted", "dups", "late"), False),
    "--stream-cep": ("stream_cep", "StreamingCepJob", "scep",
                     "streaming_cep_end_to_end", ("matches", "late"), True),
    "--stream-rules": ("broadcast_rules", "BroadcastRulesJob", "srules",
                       "broadcast_rules_end_to_end", ("emitted", "late"),
                       True),
}


def run_stream_leg(flag: str) -> dict:
    """One streaming-loop leg (see ``_STREAM_LEGS``): end-to-end wall of
    ``run_all()`` (+ ``finalize()``) over the replicated stream."""
    import importlib
    import shutil

    import ray
    from ray.data import DataContext

    module, cls, leaf, metric, keys, finalize = _STREAM_LEGS[flag]
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("GRAFT_STREAM_CPUS", "16"))
    n_cycles = int(os.environ.get("GRAFT_STREAM_CYCLES", "10"))
    per_cycle = int(os.environ.get("GRAFT_STREAM_REPLICAS_PER_CYCLE", "10"))
    root = os.environ.get("GRAFT_BENCH_OUT", f"/dev/shm/imagor_ray_{leaf}")
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             object_store_memory=int(os.environ.get(
                 "GRAFT_BENCH_OBJ_STORE", str(80_000_000_000))))
    DataContext.get_current().enable_progress_bars = False

    shutil.rmtree(root, ignore_errors=True)
    input_dir = os.path.join(root, "in")
    os.makedirs(input_dir)
    n_rows = _stage_replicated_events(sf_dir, input_dir, n_cycles,
                                      per_cycle)

    job_cls = getattr(importlib.import_module(
        f"imagor_ray.pipelines.{module}"), cls)
    job = job_cls(input_dir, os.path.join(root, "state"), num_buckets=64)
    t0 = time.perf_counter()
    totals = job.run_all()
    if finalize:
        job.finalize()
    wall = time.perf_counter() - t0
    out = {"metric": metric, "value": round(wall, 3), "unit": "sec",
           "n_rows": int(n_rows), "cycles": totals["cycles"],
           **{k: totals[k] for k in keys}}
    if flag == "--session-changelog":
        out["changelog_files"] = sum(
            1 for f in os.listdir(job.changelog_dir)
            if f.endswith(".parquet"))
    shutil.rmtree(root, ignore_errors=True)
    ray.shutdown()
    out.update(num_cpus=num_cpus, rows_per_sec=round(n_rows / wall, 1),
               sf=sf_dir)
    return out


if __name__ == "__main__":
    if "--stream-scaling" in sys.argv:
        print(json.dumps(run_stream_scaling()))
    elif "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--sortwall" in sys.argv:
        print(json.dumps(run_sortwall()))
    elif any(f in sys.argv for f in _STREAM_LEGS):
        print(json.dumps(run_stream_leg(
            next(f for f in _STREAM_LEGS if f in sys.argv))))
    elif "--stream" in sys.argv:
        print(json.dumps(run_stream()))
    else:
        print(json.dumps(run_bench()))
