"""The benchmark's workloads: each drives one public engine entry point
over seeded inputs.

- ``backfill`` — ``flagship_write(engine='auto')`` over one seeded
  replica of the base tables (100k turns). At this size the footer
  estimate picks the hash-exchange engine: derive, HMAC sign, filter
  chain, enrich and the exactly-once sink, no watermark or checkpoint.
- ``stream_drain`` — ``StreamingFlagshipJob(cycle_engine='tasks')``
  ``.run_all()`` + ``flush()`` over a pre-staged backlog of two ~152k-row
  cycle files (above the 150k ``RAY_CYCLE_THRESHOLD``): the pipelined
  large-cycle path with prelude, prefetch, the streaming exchange and the
  fused per-bucket chain + sink + sessionize.
- ``stream_join`` — ``StreamingJoinJob.run_all()`` + ``finalize()`` over
  four ~200k-row cycle files of replicated events: keyed-state carry and
  the Ray Data sort-based ``groupby().map_groups`` exchange.

Each iteration starts from an empty state/output directory, so every
iteration over one seed must produce byte-identical outputs (the
exactly-once replay contract); the runner checks the digests.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from . import gen, verify

NUM_BUCKETS = 16
GAP_S = 1800


class Workload:
    """One workload: staged inputs plus closed-loop iterations of one
    job over them."""

    name = ""
    #: input rows of one iteration (set by :meth:`prepare`)
    rows = 0

    def __init__(self, base_dir: str, tiny_dir: str, cache_dir: str,
                 run_dir: str, seed: int):
        self.base_dir, self.tiny_dir = base_dir, tiny_dir
        self.cache_dir, self.run_dir, self.seed = cache_dir, run_dir, seed

    def prepare(self) -> None:
        """Stage the seed's inputs (needs a live Ray session)."""

    def warmup(self, out_dir: str) -> None:
        """One small execution of the entry point (part of set-up)."""

    def iteration(self, out_dir: str) -> dict:
        """One timed job over the staged inputs."""
        raise NotImplementedError

    def outputs(self, out_dir: str) -> list[str]:
        """Files whose bytes must repeat across iterations of a seed."""
        raise NotImplementedError

    def check(self, out_dir: str, result: dict, deep: bool) -> list[str]:
        """Output verification; ``deep`` adds the costlier reference
        checks (run once per run)."""
        raise NotImplementedError

    def floor(self) -> float:
        """In-process kernel time (s) over the same rows, no Ray."""
        raise NotImplementedError

    def layer_extras(self, out_dir: str, result: dict) -> dict:
        """Per-layer figures read from the job's own artifacts."""
        return {}


def _tiny_turns(cache_dir: str, base_dir: str, n: int = 2000) -> pa.Table:
    return gen.derived_replica(base_dir, cache_dir, 0).slice(0, n)


def _kernels(turns: pd.DataFrame) -> pd.DataFrame:
    """The flagship per-row kernels, in-process."""
    from imagor_ray.pipelines.flagship import snippet_dim
    from imagor_ray.sources.transcripts import (enrich_tool_columns,
                                                tool_kind_cost_maps)
    from imagor_ray.stages.chain import filter_chain_batch
    from imagor_ray.stages.parse_sign import parse_sign_batch

    kind_map, cost_map = tool_kind_cost_maps()
    b = parse_sign_batch(turns.copy())
    b = filter_chain_batch(b, dim_ref=snippet_dim(), path_col="chain_path")
    return enrich_tool_columns(b, kind_map, cost_map)


class Backfill(Workload):
    name = "backfill"
    N_REPLICAS = 1

    def prepare(self) -> None:
        self.replicas = gen.pick_replicas(self.seed, self.N_REPLICAS, 0)
        self.inputs = gen.transcripts_range(
            self.base_dir, self.cache_dir, *self.replicas).to_pandas()
        self.rows = len(self.inputs)

    def warmup(self, out_dir: str) -> None:
        from imagor_ray.pipelines.flagship import flagship_write

        flagship_write(self.tiny_dir, out_dir, engine="auto",
                       num_buckets=NUM_BUCKETS)

    def iteration(self, out_dir: str) -> dict:
        from imagor_ray.pipelines.flagship import flagship_write

        return flagship_write(self.base_dir, out_dir, engine="auto",
                              replicas=self.replicas,
                              num_buckets=NUM_BUCKETS)

    def outputs(self, out_dir: str) -> list[str]:
        return verify.part_files(out_dir)

    def check(self, out_dir: str, result: dict, deep: bool) -> list[str]:
        errs = []
        if result["rows_written"] != self.rows:
            errs.append(f"sink rows {result['rows_written']} != input "
                        f"{self.rows}")
        if deep:
            out = verify.read_parquets(self.outputs(out_dir))
            errs += verify.check_unique_keys(out)
            errs += verify.check_turn_sample(out, self.inputs, self.seed)
        return errs

    def floor(self) -> float:
        t0 = time.perf_counter()
        _kernels(self.inputs)
        return time.perf_counter() - t0

    def layer_extras(self, out_dir: str, result: dict) -> dict:
        from imagor_ray.state.sink import ExactlyOnceSink

        # the per-partition timings the fused flagship already commits
        # to each manifest, summed: a cross-check on the worker spans
        out = {}
        for e in ExactlyOnceSink(out_dir, NUM_BUCKETS).read_manifest():
            for k, v in {"write_ms": e.get("write_ms", 0),
                         **e.get("stage_metrics", {})}.items():
                out[f"manifest_{k}"] = out.get(f"manifest_{k}", 0) + v
        return out


class StreamDrain(Workload):
    name = "stream_drain"
    #: two cycle files of ~152k rows: above the 150k cycle threshold
    #: even after the late sample moves rows between them
    ROWS, N_FILES, LATE_FRAC = 304_000, 2, 0.002

    def prepare(self) -> None:
        self.in_dir = os.path.join(self.run_dir, "in")
        self.rows, names = gen.drain_inputs(
            self.base_dir, self.cache_dir, self.in_dir, self.seed,
            self.ROWS, self.N_FILES, self.LATE_FRAC)
        self.inputs = pd.concat(
            [pd.read_parquet(os.path.join(self.in_dir, n)) for n in names],
            ignore_index=True)

    def _job(self, in_dir: str, state_dir: str, **kw):
        from imagor_ray.pipelines.streaming import StreamingFlagshipJob

        return StreamingFlagshipJob(in_dir, state_dir, gap_s=GAP_S,
                                    num_buckets=NUM_BUCKETS,
                                    cycle_engine="tasks", **kw)

    def warmup(self, out_dir: str) -> None:
        in_dir = os.path.join(out_dir, "in")
        gen.stage_files([_tiny_turns(self.cache_dir, self.base_dir)], in_dir)
        job = self._job(in_dir, os.path.join(out_dir, "state"),
                        ray_cycle_threshold=0)
        job.run_all()
        job.flush()

    def iteration(self, out_dir: str) -> dict:
        job = self._job(self.in_dir, out_dir)
        cycles = job.run_all()
        job.flush()
        return {"cycles": cycles}

    def outputs(self, out_dir: str) -> list[str]:
        return (verify.part_files(os.path.join(out_dir, "processed_turns"))
                + verify.part_files(os.path.join(out_dir, "closed")))

    def check(self, out_dir: str, result: dict, deep: bool) -> list[str]:
        from imagor_ray.state.checkpoint import Checkpoint

        errs = []
        state = Checkpoint(out_dir).load()
        ontime = sum(c["rows"] for c in result["cycles"])
        late = int(state.get("late_rows", 0))
        if ontime + late != self.rows:
            errs.append(f"on-time {ontime} + late {late} != input {self.rows}")
        sink_rows = sum(
            pq.read_metadata(p).num_rows for p in verify.part_files(
                os.path.join(out_dir, "processed_turns")))
        if sink_rows != ontime:
            errs.append(f"sink rows {sink_rows} != on-time rows {ontime}")
        if deep:
            out = verify.read_parquets(verify.part_files(
                os.path.join(out_dir, "processed_turns")))
            errs += verify.check_unique_keys(out)
            late_rows = verify.read_parquets(
                verify.part_files(os.path.join(out_dir, "late")))
            if len(late_rows) != late:
                errs.append(f"late output {len(late_rows)} != counted {late}")
            keys = ["conv_id", "turn_idx"]
            on = self.inputs.merge(late_rows[keys].assign(_late=True),
                                   on=keys, how="left")
            on = on[on["_late"].isna()].drop(columns=["_late"])
            errs += verify.check_turn_sample(out, on, self.seed)
            closed = verify.read_parquets(
                verify.part_files(os.path.join(out_dir, "closed")))
            errs += verify.check_sessions(closed, on, GAP_S)
        return errs

    def floor(self) -> float:
        from imagor_ray.pipelines.streaming import StreamingSessionJob

        t0 = time.perf_counter()
        _kernels(self.inputs)
        turns = self.inputs[["conv_id", "ts"]].copy()
        turns["n_turns"] = np.int64(1)
        turns["_start"] = turns["ts"]
        StreamingSessionJob._sessionize_with_start(turns, GAP_S)
        return time.perf_counter() - t0

    def layer_extras(self, out_dir: str, result: dict) -> dict:
        from imagor_ray.state.checkpoint import Checkpoint

        cm = Checkpoint(out_dir).load().get("cycle_metrics", [])
        return {"cycles": len(cm),
                "open_sessions": max((c["open"] for c in cm), default=0)}


class StreamJoin(Workload):
    name = "stream_join"
    N_REPLICAS, N_FILES, LATE_FRAC = 8, 4, 0.002
    LEFT, RIGHT, WINDOW_S = "click", "purchase", 21600

    def prepare(self) -> None:
        self.in_dir = os.path.join(self.run_dir, "in")
        self.rows, names = gen.join_inputs(
            self.base_dir, self.in_dir, self.seed, self.N_REPLICAS,
            self.N_FILES, self.LATE_FRAC)
        self.inputs = pd.concat(
            [pd.read_parquet(os.path.join(self.in_dir, n)) for n in names],
            ignore_index=True)
        self._ref = None

    def _job(self, in_dir: str, state_dir: str, **kw):
        from imagor_ray.pipelines.stream_join import StreamingJoinJob

        return StreamingJoinJob(in_dir, state_dir, left_type=self.LEFT,
                                right_type=self.RIGHT,
                                window_s=self.WINDOW_S,
                                num_buckets=NUM_BUCKETS, **kw)

    def warmup(self, out_dir: str) -> None:
        in_dir = os.path.join(out_dir, "in")
        gen.stage_files([gen.replica_events(self.base_dir, 0).slice(0, 2000)],
                        in_dir)
        job = self._job(in_dir, os.path.join(out_dir, "state"),
                        ray_cycle_threshold=0)
        job.run_all()
        job.finalize()

    def iteration(self, out_dir: str) -> dict:
        job = self._job(self.in_dir, out_dir)
        totals = job.run_all()
        job.finalize()
        return totals

    def outputs(self, out_dir: str) -> list[str]:
        return [p for d in ("matched", "timeout", "rtimeout")
                for p in verify.part_files(os.path.join(out_dir, d))]

    def _counts(self, out_dir: str) -> dict:
        def rows(d):
            return sum(pq.read_metadata(p).num_rows for p in
                       verify.part_files(os.path.join(out_dir, d)))
        return {d: rows(d) for d in ("matched", "timeout", "rtimeout")}

    def check(self, out_dir: str, result: dict, deep: bool) -> list[str]:
        errs = []
        got = self._counts(out_dir)
        if got["matched"] != result["matched"]:
            errs.append(f"matched files {got['matched']} != counted "
                        f"{result['matched']}")
        if deep:
            late = verify.read_parquets(
                verify.part_files(os.path.join(out_dir, "late")))
            if len(late) != result["late"]:
                errs.append(f"late output {len(late)} != counted "
                            f"{result['late']}")
            on = self.inputs[~self.inputs["event_id"].isin(late["event_id"])]
            if len(on) + len(late) != self.rows:
                errs.append(f"on-time {len(on)} + late {len(late)} != "
                            f"input {self.rows}")
            pairs = verify.read_parquets(verify.part_files(
                os.path.join(out_dir, "matched")))
            dups = int(pairs.duplicated(subset=["req_id", "resp_id"]).sum())
            if dups:
                errs.append(f"{dups} duplicate (req_id, resp_id) pairs")
            self._ref = verify.band_join_reference(
                on, self.LEFT, self.RIGHT, self.WINDOW_S * 1_000_000)
        if self._ref is not None and got != self._ref:
            errs.append(f"join counts {got} != reference {self._ref}")
        return errs

    def floor(self) -> float:
        from imagor_ray.pipelines.stream_join import _cycle_match, _empty_state

        ev = self.inputs
        us = ev["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        t0 = time.perf_counter()

        def side(t):
            sel = ev["event_type"].to_numpy() == t
            return pd.DataFrame({"event_id": ev["event_id"].to_numpy()[sel],
                                 "user_id": ev["user_id"].to_numpy()[sel],
                                 "ts_us": us[sel]})
        _cycle_match(side(self.LEFT), side(self.RIGHT), _empty_state(),
                     self.WINDOW_S * 1_000_000)
        return time.perf_counter() - t0

    def layer_extras(self, out_dir: str, result: dict) -> dict:
        return {"cycles": int(result["cycles"])}


WORKLOADS = {w.name: w for w in (Backfill, StreamDrain, StreamJoin)}
