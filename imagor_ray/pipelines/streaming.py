"""Micro-batch streaming driver: the event-time loop that turns the batch
DAG into a structured-streaming job.

Ray Data has no native event-time runtime (ray_guide: streaming-shaped
workloads), so progress lives in the driver + checkpoint (SURVEY §7.4.2):

- the input is an ordered log of parquet micro-batch files (a directory,
  ordered by name == arrival order);
- each cycle processes the next unprocessed file through the flagship
  chain into the exactly-once sink (bucket partitions are keyed per
  cycle so replays of a cycle are idempotent);
- the **watermark** advances to ``max(event ts seen) − allowed_lateness``
  and is persisted in the checkpoint; rows arriving with
  ``ts < watermark`` are routed to a late/dead-letter output — the
  event-time analogue of imagor's ``expire()`` rejection
  (``imagor.go:314-322, 991-1003``);
- **open sessions** (conversations whose last turn is within the session
  gap of the watermark) are carried across cycles in the checkpoint and
  re-injected, so sessions spanning micro-batches close exactly once,
  when the watermark passes ``last_ts + gap``;
- killing the driver between cycles and restarting resumes from the
  checkpoint with byte-identical emitted output (asserted in tests);
- a cycle runs ONE per-bucket body, :func:`_bucket_cycle` (chain→sink
  partition write, sessionize, close split), in one of two placements.
  Cycles above ``RAY_CYCLE_THRESHOLD`` rows run it on the engine's one
  raw two-stage hash exchange (``pipelines/exchange.py``): one Arrow
  read pinned via ``materialize()``, split tasks that drop the late
  rows and cut each block into conv-bucket shards, and one reduce task
  per bucket — only still-open summaries return to the driver, and the
  late count and watermark come from parquet zone maps. Smaller
  cycles run it in-process, starting no Ray work (Ray per-task
  overhead dominates them); both placements are byte-equivalent
  (BENCH.md finding 20 and its 2026-10-17 note).
"""

from __future__ import annotations

import functools
import os
import shutil

import numpy as np
import pandas as pd

from ..functions.hashing import crc32_bucket
from ..stages.windows import ts_us
from ..state.checkpoint import Checkpoint
# ``_exchange_fns`` (the exchange's split/reduce remote functions) is
# imported under this name only because perfbench/trace.py wraps them
# through it
from .exchange import _fns as _exchange_fns  # noqa: F401
from .exchange import exchange_refs
from .keyed_stream import (
    footer_late_stats, fsync_dirs, pending_inputs, write_parquet_atomic,
)

__all__ = ["StreamingSessionJob", "StreamingFlagshipJob"]


def _arrow_ts_us(t) -> "object":
    """ts column of an Arrow table as int64 microseconds."""
    import pyarrow as pa
    import pyarrow.compute as pc

    unit = t.schema.field("ts").type.unit
    ts_i = pc.cast(t["ts"], pa.int64())
    if unit == "ns":
        ts_i = pc.divide(ts_i, 1000)
    elif unit == "s":
        ts_i = pc.multiply(ts_i, 1_000_000)
    elif unit == "ms":
        ts_i = pc.multiply(ts_i, 1000)
    return ts_i


def _empty_summaries() -> pd.DataFrame:
    return pd.DataFrame({
        "conv_id": pd.Series([], dtype=object),
        "session_start": pd.Series([], dtype="datetime64[us]"),
        "session_end": pd.Series([], dtype="datetime64[us]"),
        "n_turns": pd.Series([], dtype="int64"),
    })


def _sorted_summaries(frames) -> pd.DataFrame:
    """Concat summary frames in the byte-stable (conv_id, session_start)
    order."""
    out = pd.concat(frames, ignore_index=True)
    if not len(out):
        return _empty_summaries()
    return out.sort_values(["conv_id", "session_start"]).reset_index(drop=True)


def _clear_output(path: str) -> None:
    """Remove what a crashed run of this cycle left at ``path`` (either
    placement's: a single file or a directory) before a replay writes."""
    if os.path.isdir(path):
        shutil.rmtree(path)
    elif os.path.lexists(path):
        os.remove(path)


def _bucket_cycle(bucket: int, final_wm: int, gap_s: int, work, prev_open,
                  turns) -> tuple[pd.DataFrame, pd.DataFrame]:
    """THE per-bucket cycle body of both placements: the grouped ``work``
    (the flagship's chain→sink partition write) over the on-time
    ``turns``, the carried open SUMMARIES as pseudo-turn rows, the
    sessionize and the close split. Returns ``(closed, still_open)``."""
    sess_frames = []
    if turns is not None and len(turns):
        if work is not None:
            tw = turns.copy()
            tw["_bucket"] = np.int32(bucket)
            work(tw)
        sess_frames.append(pd.DataFrame({
            "conv_id": turns["conv_id"],
            "ts": turns["ts"],
            "n_turns": np.ones(len(turns), np.int64),
            "_start": turns["ts"],
        }))
    if prev_open is not None and len(prev_open):
        sess_frames.append(pd.DataFrame({
            "conv_id": prev_open["conv_id"].to_numpy(),
            "ts": prev_open["session_end"].astype("datetime64[us]").to_numpy(),
            "n_turns": prev_open["n_turns"].astype("int64").to_numpy(),
            "_start": prev_open["session_start"]
            .astype("datetime64[us]").to_numpy(),
        }))
    if not sess_frames:
        return _empty_summaries(), _empty_summaries()
    sessions = StreamingSessionJob._sessionize_with_start(
        pd.concat(sess_frames, ignore_index=True), gap_s)
    end_us = np.asarray(ts_us(sessions["session_end"]))
    closed_mask = (end_us + gap_s * 1_000_000) < final_wm
    closed = sessions[closed_mask].sort_values(
        ["conv_id", "session_start"]).reset_index(drop=True)
    return closed, sessions[~closed_mask]


def _ontime_conv_key(wm: int, nb: int, tbl):
    """The session exchange's map-side key: drop the late rows
    (``ts < wm``) and bucket the rest by ``crc32(conv_id) % nb`` — the
    partitioning that keeps every conversation in one bucket."""
    import pyarrow as pa
    import pyarrow.compute as pc

    t = tbl.filter(
        pc.greater_equal(_arrow_ts_us(tbl), pa.scalar(wm, pa.int64())))
    return t, crc32_bucket(t["conv_id"].to_numpy(zero_copy_only=False), nb)


def _reduce_cycle(bucket: int, final_wm: int, gap_s: int, closed_dir: str,
                  work, prev_open, turns) -> pd.DataFrame:
    """The session exchange's reducer: :func:`_bucket_cycle` over the
    bucket's on-time ``turns`` (None when empty), its closed sessions
    written as ``part-{bucket}``. Returns the still-open summaries."""
    closed, still_open = _bucket_cycle(bucket, final_wm, gap_s, work,
                                       prev_open, turns)
    if len(closed):
        # deterministic per-bucket file: a replay overwrites it with
        # identical bytes
        write_parquet_atomic(closed, os.path.join(
            closed_dir, f"part-{bucket:05d}.parquet"))
    return still_open


class StreamingSessionJob:
    """Sessionization over a micro-batch file stream with watermarks.

    Emits CLOSED session summaries per cycle (a session closes when the
    watermark passes its end + gap); keeps open sessions in the
    checkpoint. Late rows (ts < watermark at arrival) go to the
    late-rows output, not into sessions.
    """

    def __init__(
        self,
        input_dir: str,
        state_dir: str,
        gap_s: int = 1800,
        allowed_lateness_s: int = 0,
        ray_cycle_threshold: int | None = None,
        cycle_engine: str = "tasks",
    ):
        self.input_dir = input_dir
        self.cp = Checkpoint(state_dir)
        self.gap_s = gap_s
        self.lateness_us = allowed_lateness_s * 1_000_000
        if cycle_engine != "tasks":
            # the keyword stays for callers that name the engine; the
            # hash exchange is the only large-cycle path
            raise ValueError(f"unknown cycle_engine: {cycle_engine!r}")
        if ray_cycle_threshold is not None:
            # instance override of the class default (config-bound knob)
            self.RAY_CYCLE_THRESHOLD = ray_cycle_threshold
        #: (fname, thread, holder) of an in-flight next-cycle raw read
        self._prefetch: dict = {}
        self.closed_dir = os.path.join(state_dir, "closed")
        self.late_dir = os.path.join(state_dir, "late")
        os.makedirs(self.closed_dir, exist_ok=True)
        os.makedirs(self.late_dir, exist_ok=True)

    # -- helpers -----------------------------------------------------------

    def pending_files(self) -> list[str]:
        return pending_inputs(self.input_dir,
                              set(self.cp.load().get("processed", [])))

    # -- one cycle ---------------------------------------------------------

    #: above this many rows the WHOLE cycle runs on the hash exchange
    #: (:meth:`_cycle_tasks`) — pinned read → late split → per-bucket
    #: :func:`_bucket_cycle` — with only session summaries, the late
    #: count and the watermark returning to the driver (nothing
    #: row-scale crosses it). Below it the same body runs in-process
    #: (:meth:`_cycle_pandas`): Ray per-task overhead dominates tiny
    #: cycles. Both placements are asserted byte-equivalent in tests.
    RAY_CYCLE_THRESHOLD = 150_000

    def run_cycle(self) -> dict | None:
        """Process the next micro-batch file; returns the cycle summary or
        None when the input is exhausted."""
        pending = self.pending_files()
        if not pending:
            return None
        fname = pending[0]
        state = self.cp.load()
        watermark = int(state.get("watermark_us", 0))
        cycle = int(state.get("cycles", 0))
        path = os.path.join(self.input_dir, fname)
        # read the snapshot COMMITTED by the checkpoint, never a staged one
        open_prev = self.cp.load_open_sessions(state)

        import pyarrow.dataset as pads

        # row count from parquet footers only — picks the execution path
        # without reading any data
        nrows = pads.dataset(path).count_rows()
        runner = (self._cycle_tasks if nrows > self.RAY_CYCLE_THRESHOLD
                  else self._cycle_pandas)
        still_open, closed_count, late_count, new_watermark = runner(
            path, fname, watermark, cycle, open_prev)
        return self._commit_cycle(state, fname, cycle, still_open,
                                  closed_count, late_count, new_watermark,
                                  nrows - late_count)

    def _commit_cycle(self, state: dict, fname: str, cycle: int,
                      still_open: pd.DataFrame, closed_count: int,
                      late_count: int, new_watermark: int,
                      n_ontime: int) -> dict:
        """Single atomic commit point of a cycle: stage the post-cycle
        open-session snapshot under a cycle-versioned name (only visible
        once checkpoint.json records it — a crash between staging and
        ``cp.save`` replays the cycle against the pre-cycle snapshot,
        keeping the byte-identical-replay guarantee), then advance the
        checkpoint (output directories fsynced first). Mutates ``state``
        in place so a pipelined caller can keep committing against its
        own loaded copy."""
        fsync_dirs(self.late_dir, os.path.join(self.late_dir, f"late-{fname}"),
                   self.closed_dir, os.path.join(
                       self.closed_dir, f"closed-{cycle:05d}.parquet"))
        open_fname = self.cp.stage_open_sessions(still_open, cycle)
        state["open_sessions_file"] = open_fname
        state["watermark_us"] = new_watermark
        state["processed"] = list(state.get("processed", [])) + [fname]
        state["late_rows"] = int(state.get("late_rows", 0)) + int(late_count)
        state["cycles"] = cycle + 1
        result = {
            "file": fname,
            "watermark_us": new_watermark,
            "rows": int(n_ontime),
            "closed": int(closed_count),
            "open": len(still_open),
            "late": int(late_count),
        }
        # per-cycle metrics ride in the checkpoint (lineage + metrics)
        state["cycle_metrics"] = list(state.get("cycle_metrics", [])) + [result]
        self.cp.save(state)
        self.cp.gc_open_sessions(keep=open_fname)
        return result

    # -- cycle execution paths --------------------------------------------

    def _cycle_pandas(
        self, path, fname, watermark, cycle, open_prev
    ) -> tuple[pd.DataFrame, int, int, int]:
        """In-process cycle for small micro-batches, starting no Ray work:
        read, late split and watermark, then the reducers' body
        :func:`_bucket_cycle` once (no grouped work) or per conv bucket
        in ascending order. Returns ``(still_open, closed_count,
        late_count, new_watermark)``."""
        batch = pd.read_parquet(path)
        us = ts_us(batch["ts"])

        # late-data routing against the PRE-advance watermark
        late_mask = us < watermark
        late = batch[late_mask]
        if len(late):
            late_path = os.path.join(self.late_dir, f"late-{fname}")
            _clear_output(late_path)
            write_parquet_atomic(late, late_path)
        batch = batch[~late_mask]
        us = us[~late_mask]
        # watermark advance: max event time seen − allowed lateness
        new_watermark = max(
            watermark,
            (int(us.max()) - self.lateness_us) if len(us) else watermark,
        )

        work = self._make_grouped_cycle_work(cycle) if len(batch) else None
        if work is None:
            units = [(0, batch, open_prev)]
        else:
            nb = self._cycle_bucket_count()
            bk = crc32_bucket(batch["conv_id"].to_numpy(), nb)
            units = [(b, batch[bk == b].reset_index(drop=True), prev)
                     for b, prev in enumerate(
                         self._split_summaries(open_prev, nb))]
        closed, opens = zip(*[
            _bucket_cycle(b, new_watermark, self.gap_s, work, prev, turns)
            for b, turns, prev in units])
        closed = _sorted_summaries(closed)
        if len(closed):
            out = os.path.join(self.closed_dir, f"closed-{cycle:05d}.parquet")
            _clear_output(out)
            write_parquet_atomic(closed, out)
        return (_sorted_summaries(opens), len(closed), int(late_mask.sum()),
                new_watermark)

    def _cycle_bucket_count(self) -> int:
        import ray

        return max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)

    def _make_grouped_cycle_work(self, cycle: int):
        """The job's one sink hook: a callable :func:`_bucket_cycle` runs
        on each bucket's on-time turn rows (full payload + ``_bucket``)
        in both placements, or None. The flagship returns its
        chain→exactly-once-partition-write leg, so sink and sessionize
        share ONE bucketing."""
        return None

    def _cycle_prelude(self, path, fname, wm):
        """Pre-exchange work of a large cycle: pin the raw Arrow blocks
        (prefetched during the previous cycle, normally), resolve the
        late count + watermark advance WITHOUT a Ray execution
        (:func:`footer_late_stats`: parquet row-group zone maps, so the
        no-late common case reads no data and only groups straddling
        the watermark, or without ts statistics, are scanned on the
        driver — BENCH.md finding 19: the fixed per-cycle execution
        count is what bounds streaming scaling efficiency), and write
        the late rows out (rare: gathered on the driver and written as
        ``late-{fname}/part-00000.parquet`` by the fsyncing
        :func:`write_parquet_atomic`). Returns ``(raw, late_count,
        new_watermark)``."""
        import ray
        import ray.data as _rd
        import pyarrow as pa
        import pyarrow.compute as pc

        raw = self._take_prefetched(fname)
        if raw is None:
            read_blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
            # pin once: the (rare) late write and the exchange read the
            # same blocks
            raw = _rd.read_parquet(
                path, override_num_blocks=read_blocks).materialize()

        late_count, total_rows, max_us = footer_late_stats(path, wm)
        # watermark advance before the exchange; max over all rows == max
        # over on-time rows for watermark purposes (late ts < old
        # watermark by definition)
        new_watermark = (max(wm, max_us - self.lateness_us)
                         if late_count < total_rows else wm)
        if late_count:
            late_path = os.path.join(self.late_dir, f"late-{fname}")
            # replay idempotency: a crashed run's late output (either
            # placement's) is replaced wholesale
            _clear_output(late_path)
            os.makedirs(late_path)
            # the (rare) late rows come to the driver and go through the
            # fsyncing writer; _commit_cycle fsyncs late_path
            late = ray.get(raw.map_batches(
                lambda t: t.filter(
                    pc.less(_arrow_ts_us(t), pa.scalar(wm, pa.int64()))),
                batch_format="pyarrow",
            ).to_arrow_refs())
            # (blocks with no late row may come back schema-less)
            write_parquet_atomic(
                pa.concat_tables([t for t in late if t.num_rows]),
                os.path.join(late_path, "part-00000.parquet"))
        return raw, late_count, new_watermark

    @staticmethod
    def _finish_open_closed(opens: list, closed_dir: str):
        """Epilogue of a hash-exchange cycle: concat and stable-sort the
        reducers' still-open summaries and count the
        distributedly-written closed rows from footers."""
        import pyarrow.dataset as pads

        still_open = _sorted_summaries(opens)
        if not os.listdir(closed_dir):
            os.rmdir(closed_dir)  # keep closed_sessions() listings clean
            return still_open, 0
        return still_open, int(pads.dataset(closed_dir).count_rows())

    @staticmethod
    def _split_summaries(open_prev: pd.DataFrame | None, nb: int) -> list:
        """Per-bucket slices of an open-session summary frame (crc32
        conv bucketing — the job's one partitioning key)."""
        prev: list = [None] * nb
        if open_prev is not None and len(open_prev):
            pb = crc32_bucket(open_prev["conv_id"].to_numpy(), nb)
            for b in np.unique(pb):
                prev[int(b)] = open_prev[pb == b].reset_index(drop=True)
        return prev

    def _launch_cycle(self, path, fname, wm, cycle, prev, nb):
        """Start one large cycle on the hash exchange without waiting
        for it: the prelude (pinned read, zone-map late stats,
        watermark, late write), one split task per pinned block (refs,
        not rows, return to the driver) and one reduce task per bucket.
        ``prev[b]`` is bucket ``b``'s carried open-session SUMMARIES —
        a frame, or the previous cycle's reducer ObjectRef; the reducer
        converts them to pseudo-turn rows itself, which is what lets the
        pipelined loop chain reducer (N, b) into (N+1, b) with no driver
        hop. Returns ``(open_refs, closed_dir, late_count,
        new_watermark)``."""
        raw, late_count, new_wm = self._cycle_prelude(path, fname, wm)
        work = self._make_grouped_cycle_work(cycle)
        closed_dir = os.path.join(
            self.closed_dir, f"closed-{cycle:05d}.parquet")
        _clear_output(closed_dir)
        os.makedirs(closed_dir)
        open_refs = exchange_refs(
            raw.to_arrow_refs(), nb,
            functools.partial(_ontime_conv_key, wm, nb), _reduce_cycle,
            [(b, new_wm, self.gap_s, closed_dir, work, prev[b])
             for b in range(nb)])
        return open_refs, closed_dir, late_count, new_wm

    def _cycle_tasks(
        self, path, fname, watermark, cycle, open_prev
    ) -> tuple[pd.DataFrame, int, int, int]:
        """One large cycle on the raw two-stage hash exchange, waited
        on: launch, gather the reducers' still-open summaries, count the
        closed rows. No sort sampling, no boundary exchange, no
        per-cycle streaming-executor plan — the fixed cost a sub-second
        cycle pays under Ray Data's groupby (BENCH.md finding 19/20).
        Returns ``(still_open, closed_count, late_count,
        new_watermark)`` like :meth:`_cycle_pandas` (asserted
        byte-equivalent in tests)."""
        import ray

        nb = self._cycle_bucket_count()
        open_refs, closed_dir, late_count, new_watermark = self._launch_cycle(
            path, fname, watermark, cycle,
            self._split_summaries(open_prev, nb), nb)
        still_open, closed_count = self._finish_open_closed(
            ray.get(open_refs), closed_dir)
        return still_open, closed_count, late_count, new_watermark

    @staticmethod
    def _sessionize_with_start(turns: pd.DataFrame, gap_s: int) -> pd.DataFrame:
        """Interval-hull sessionize carrying true session_start from
        re-injected open-session summaries: every row is an interval
        ``[_start, ts]`` (a turn is a point, ``_start == ts``; a
        summary spans its whole session). Rows sort by interval START
        and gap-check against the per-conv running hull END, which
        makes the kernel arrival-ORDER-INSENSITIVE: under allowed
        lateness an in-horizon turn that predates an open summary's
        end merges into it (and may bridge two open summaries of the
        same conv, which then merge before ever closing). Hull merging
        is exact — gap connectivity between point sets depends only on
        their min/max. With event-time-ordered input this reduces
        bit-for-bit to the ordered kernel: the (single) summary sorts
        first and every turn postdates its end, so the flags match
        the plain consecutive-diff computation."""
        df = (turns.sort_values(["conv_id", "_start", "ts"],
                                kind="mergesort")
              .reset_index(drop=True))
        if len(df) == 0:
            return _empty_summaries()
        s_us = ts_us(df["_start"])
        e_us = ts_us(df["ts"])
        conv = df["conv_id"].to_numpy()
        # per-conv running max of interval ends (integer-exact; the
        # value a global shift leaks across a conv boundary is masked
        # by the conv-change flag)
        hull = np.asarray(pd.Series(e_us)
                          .groupby(pd.Series(conv), sort=False).cummax(),
                          dtype="int64")
        prev_hull = np.empty_like(hull)
        prev_hull[0] = np.int64(-(1 << 62))
        prev_hull[1:] = hull[:-1]
        new = np.empty(len(df), dtype=bool)
        new[0] = True
        new[1:] = ((conv[1:] != conv[:-1])
                   | (s_us[1:] > prev_hull[1:] + gap_s * 1_000_000))
        gsid = np.cumsum(new)
        return df.assign(_g=gsid).groupby("_g", sort=True).agg(
            conv_id=("conv_id", "first"),
            session_start=("_start", "min"),
            session_end=("ts", "max"),
            n_turns=("n_turns", "sum"),
        ).reset_index(drop=True)

    # -- read prefetch (pipelined cycles) ----------------------------------

    #: how many upcoming cycle files to pin ahead of the running cycle.
    #: One file is enough at LOW parallelism (cycle walls are long, the
    #: single prefetch always finishes in the shadow); at HIGH
    #: parallelism cycles are short and a single slot leaves the read
    #: on the critical path about every other cycle — depth 2 keeps the
    #: reader ahead at the cost of one extra pinned cycle in the object
    #: store (spills gracefully).
    PREFETCH_DEPTH = 2

    def _start_prefetch(self, fname: str) -> None:
        """Pin an upcoming cycle's raw parquet blocks in a background
        thread while the current cycle's exchange runs — bounded
        pipelining (PREFETCH_DEPTH files in flight), read-only, so
        replay semantics are untouched."""
        import threading

        import pyarrow.dataset as pads

        if fname in self._prefetch:
            return
        path = os.path.join(self.input_dir, fname)
        try:
            if pads.dataset(path).count_rows() <= self.RAY_CYCLE_THRESHOLD:
                return
        except Exception:
            return
        holder: dict = {}

        def work():
            try:
                import ray
                import ray.data as _rd

                blocks = max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)
                holder["ds"] = _rd.read_parquet(
                    path, override_num_blocks=blocks
                ).materialize()
            except Exception as e:  # fall back to the inline read
                holder["err"] = e

        t = threading.Thread(target=work, daemon=True)
        t.start()
        self._prefetch[fname] = (t, holder)

    def _start_prefetches(self, pending: list[str]) -> None:
        """Prefetch the next PREFETCH_DEPTH files beyond the current."""
        for f in pending[1:1 + self.PREFETCH_DEPTH]:
            self._start_prefetch(f)

    def _take_prefetched(self, fname: str):
        ent = self._prefetch.pop(fname, None)
        if ent is None:
            return None
        t, holder = ent
        t.join()
        return holder.get("ds")

    #: max cycles in flight under the pipelined ``run_all`` loop (the
    #: oldest is committed before another launches; depth 1 runs the
    #: plain ``run_cycle`` loop). Depth 2 overlaps
    #: cycle N+1's read/split/launch with cycle N's reducer drain —
    #: the fixed per-cycle exchange cost stops serializing with compute
    #: (the round-4 streaming-scaling residue); deeper pipelines only
    #: add object-store pressure since per-bucket reducers chain anyway.
    PIPELINE_DEPTH = 2

    #: pipelining pays only while the per-cycle FIXED cost (prelude,
    #: split launch, reduce ramp) is a real fraction of the cycle —
    #: measured A/B at 16 CPUs (same window, interleaved): 1M-row
    #: cycles depth2/depth1 = 506k/386k t/s (+31%), 4M-row cycles
    #: 134k/243k and 220k/267k t/s (depth 2 LOSES 15-45%: a saturated
    #: cycle has no idle gaps to fill, so overlap only doubles the
    #: object-store working set). Cycles above this row count drain
    #: the pipeline and run the unpipelined committed path — same
    #: footer-only dispatch idiom as flagship_write(engine='auto').
    PIPELINE_ROW_MAX = 2_000_000

    def run_all(self) -> list[dict]:
        if self.PIPELINE_DEPTH > 1:
            return self._run_all_pipelined()
        out = []
        while True:
            pending = self.pending_files()
            if not pending:
                break
            if len(pending) > 1:
                self._start_prefetches(pending)
            r = self.run_cycle()
            if r is None:
                break
            out.append(r)
        return out

    def _run_all_pipelined(self) -> list[dict]:
        """Pipelined loop: consecutive large cycles overlap.

        The per-cycle global barrier in :meth:`run_cycle` (``ray.get``
        on every reducer before the next cycle starts) is what bounds
        streaming scaling at high CPU counts — the driver-side prelude
        + split launch of cycle N+1 serialize behind cycle N's slowest
        reducer. Here they don't:

        - the watermark chain needs only parquet FOOTER stats
          (``_cycle_prelude``), so cycle N+1's watermark, late routing
          and split tasks launch without any cycle-N reduce result;
        - reducer (N+1, b) takes reducer (N, b)'s output ObjectRef as
          its ``prev_open`` directly (the reducer converts summaries to
          pseudo-turn rows itself) — the open-session carry never
          touches the driver between cycles, and each bucket's chain
          advances independently instead of waiting on the global
          straggler;
        - the CHECKPOINT still commits strictly in cycle order: the
          oldest in-flight cycle is ``ray.get``-drained and committed
          before cycle N+PIPELINE_DEPTH launches. A crash loses only
          uncommitted cycles, whose replay is byte-identical (atomic
          per-bucket renames + committed-bucket sink skip absorb the
          partially-written work) — same guarantee, same commit point.

        Small cycles (≤ RAY_CYCLE_THRESHOLD) and giant cycles
        (> PIPELINE_ROW_MAX, where overlap measured net-negative — see
        that attribute) drain the pipeline and run through the standard
        committed path; outputs stay byte-identical to the depth-1 loop
        (asserted in tests).
        """
        import ray
        import pyarrow.dataset as pads

        state = self.cp.load()
        wm = int(state.get("watermark_us", 0))
        cycle = int(state.get("cycles", 0))
        done = set(state.get("processed", []))
        # per-bucket carry, loaded at the first exchange cycle after a
        # (re)sync: a stream of small cycles never touches Ray
        nb = prev = None

        results: list[dict] = []
        inflight: list[tuple] = []  # (fname, cycle, open_refs, late, wm, closed_dir, n_ontime)

        def commit_oldest():
            fn_, cyc_, refs_, late_, wm_, cdir_, n_on = inflight.pop(0)
            still_open, closed_count = self._finish_open_closed(
                ray.get(refs_), cdir_)
            results.append(self._commit_cycle(
                state, fn_, cyc_, still_open, closed_count, late_,
                wm_, n_on))

        while True:
            pending = pending_inputs(self.input_dir, done)
            if not pending:
                break
            fname = pending[0]
            done.add(fname)
            path = os.path.join(self.input_dir, fname)
            nrows = pads.dataset(path).count_rows()
            if (nrows <= self.RAY_CYCLE_THRESHOLD
                    or nrows > self.PIPELINE_ROW_MAX):
                # small cycle → pandas path needs materialized carry
                # state; GIANT cycle → pipelining measured net-negative
                # (see PIPELINE_ROW_MAX): drain, run through the
                # committed unpipelined path, resync
                while inflight:
                    commit_oldest()
                r = self.run_cycle()
                if r is None:
                    break
                results.append(r)
                state = self.cp.load()
                wm = int(state.get("watermark_us", 0))
                cycle = int(state.get("cycles", 0))
                prev = None
                continue

            if len(pending) > 1:
                self._start_prefetches(pending)
            if prev is None:
                nb = self._cycle_bucket_count()
                prev = self._split_summaries(
                    self.cp.load_open_sessions(state), nb)
            open_refs, closed_dir, late_count, new_wm = self._launch_cycle(
                path, fname, wm, cycle, prev, nb)
            inflight.append((fname, cycle, open_refs, late_count, new_wm,
                             closed_dir, nrows - late_count))
            prev = open_refs  # chain per-bucket refs into the next cycle
            wm = new_wm
            cycle += 1
            while len(inflight) >= self.PIPELINE_DEPTH:
                commit_oldest()

        while inflight:
            commit_oldest()
        return results

    def flush(self) -> pd.DataFrame:
        """End-of-stream: close all remaining open sessions (watermark →
        +inf). Returns the final closed batch."""
        state = self.cp.load()
        open_prev = self.cp.load_open_sessions(state)
        if open_prev is None or not len(open_prev):
            return pd.DataFrame()
        closed = open_prev.sort_values(["conv_id", "session_start"]).reset_index(drop=True)
        cycle = int(state.get("cycles", 0))
        out = os.path.join(self.closed_dir, f"closed-{cycle:05d}.parquet")
        _clear_output(out)
        write_parquet_atomic(closed, out)
        fsync_dirs(self.closed_dir)
        open_fname = self.cp.stage_open_sessions(closed.iloc[0:0], cycle)
        state["open_sessions_file"] = open_fname
        state["cycles"] = cycle + 1
        self.cp.save(state)
        self.cp.gc_open_sessions(keep=open_fname)
        return closed

    def closed_sessions(self) -> pd.DataFrame:
        files = sorted(
            os.path.join(self.closed_dir, f)
            for f in os.listdir(self.closed_dir)
            if f.endswith(".parquet")
        )
        if not files:
            return pd.DataFrame()
        return pd.concat([pd.read_parquet(f) for f in files], ignore_index=True)


class StreamingFlagshipJob(StreamingSessionJob):
    """The full north-star DAG as one continuous micro-batch job:

    per cycle — late-data routing vs the watermark, then the imagor chain
    (parse → sign → filter chain → tool-meta enrich) over the on-time
    turns into a cycle-scoped exactly-once sink (keyed dedup + atomic
    per-bucket commit + lineage), then session-window maintenance with
    open-session carryover. Killing the driver at ANY point and rerunning
    reproduces the emitted bytes: cycle replays are absorbed by the
    sink's committed-bucket skip, and the checkpoint only advances after
    the cycle's sink commit.
    """

    def __init__(
        self,
        input_dir: str,
        state_dir: str,
        gap_s: int = 1800,
        allowed_lateness_s: int = 0,
        secret: str | None = None,
        num_buckets: int = 8,
        ray_cycle_threshold: int | None = None,
        cycle_engine: str = "tasks",
    ):
        super().__init__(input_dir, state_dir, gap_s, allowed_lateness_s,
                         ray_cycle_threshold=ray_cycle_threshold,
                         cycle_engine=cycle_engine)
        from ..stages.parse_sign import DEFAULT_SECRET

        self.secret = secret or DEFAULT_SECRET
        self.num_buckets = num_buckets
        self.processed_dir = os.path.join(state_dir, "processed_turns")
        os.makedirs(self.processed_dir, exist_ok=True)

    def _make_proc(self):
        """The per-batch chain leg (parse/sign → filter chain → tool
        enrich) shared by both cycle paths; closure state is plain dicts
        so it ships to workers once per task."""
        from ..pipelines.flagship import snippet_dim
        from ..sources.transcripts import enrich_tool_columns, tool_kind_cost_maps
        from ..stages.chain import filter_chain_batch
        from ..stages.parse_sign import parse_sign_batch

        kind_map, cost_map = tool_kind_cost_maps()
        dim = snippet_dim()
        secret = self.secret

        def proc(b: pd.DataFrame) -> pd.DataFrame:
            b = parse_sign_batch(b.copy(), secret=secret)
            b = filter_chain_batch(b, dim_ref=dim, path_col="chain_path")
            b = enrich_tool_columns(b, kind_map, cost_map)
            return b.drop(columns=["chain_path", "sig_ok"], errors="ignore")

        return proc

    def _cycle_sink(self, cycle: int):
        from ..state.sink import ExactlyOnceSink

        return ExactlyOnceSink(
            os.path.join(self.processed_dir, f"cycle-{cycle:05d}"),
            num_buckets=self.num_buckets,
        )

    def _cycle_bucket_count(self) -> int:
        # ONE bucket key serves both the sink partitions and the
        # sessionize groups, in both placements
        return self.num_buckets

    def _make_grouped_cycle_work(self, cycle: int):
        proc = self._make_proc()
        sink = self._cycle_sink(cycle)
        os.makedirs(sink.manifest_dir, exist_ok=True)

        def work(turns: pd.DataFrame) -> None:
            bucket = turns["_bucket"].iloc[0]
            g = proc(turns.drop(columns=["_bucket"]))
            g["_bucket"] = bucket
            # committed buckets skip inside (replayed cycles are
            # idempotent; the rows still flowed here for sessionize)
            sink.write_partition_df(g)

        return work

    def processed_sha1(self) -> str:
        """Digest over every committed cycle partition — replay probe."""
        import hashlib

        h = hashlib.sha1()
        for cyc in sorted(os.listdir(self.processed_dir)):
            cdir = os.path.join(self.processed_dir, cyc)
            for f in sorted(os.listdir(cdir)):
                if f.endswith(".parquet"):
                    with open(os.path.join(cdir, f), "rb") as fh:
                        h.update(fh.read())
        return h.hexdigest()
