"""Micro-batch session stream: the event-time sessionization job and the
flagship DAG as one continuous job, on the keyed-watermark runtime
(:mod:`.keyed_stream`).

Ray Data has no native event-time runtime (ray_guide: streaming-shaped
workloads), so progress lives in the driver + checkpoint (SURVEY §7.4.2).
The runtime owns the ordered input log (parquet micro-batch files, name
== arrival order), pending-file discovery, the checkpoint's state
advance, the ONE commit and output read-back; this module declares
what is specific to sessions:

- the state is the **open sessions** (conversations whose last turn is
  within the session gap of the watermark) as summaries, carried across
  cycles in the checkpoint and re-injected, so sessions spanning
  micro-batches close exactly once, when the watermark passes
  ``last_ts + gap``; ``closed`` is the one output;
- the **watermark** advances to ``max(event ts seen) − allowed_lateness``;
  rows arriving with ``ts < watermark`` are routed to a late/dead-letter
  output — the event-time analogue of imagor's ``expire()`` rejection
  (``imagor.go:314-322, 991-1003``);
- a cycle runs ONE per-bucket body, :func:`_bucket_cycle` (chain→sink
  partition write, sessionize, close split), in one of two placements
  (:meth:`StreamingSessionJob._execute`). Cycles above
  ``RAY_CYCLE_THRESHOLD`` rows run it on the engine's one raw two-stage
  hash exchange (``pipelines/exchange.py``): one Arrow read pinned via
  ``materialize()``, split tasks that drop the late rows and cut each
  block into conv-bucket shards, and one reduce task per bucket — only
  session summaries return to the driver. Smaller cycles run it
  in-process, starting no Ray work (Ray per-task overhead dominates
  them) (BENCH.md finding 20 and its 2026-10-17 note);
- both placements write the same files: the late count, the row count
  and the watermark come from parquet zone maps
  (:func:`footer_late_stats`), the late rows go to one
  ``late/late-{file}`` (full rows, written only when a row is late) and
  the closed summaries of a cycle to one
  ``closed/closed-{cycle:05d}.parquet`` (:meth:`_finish_cycle`, written
  only when a session closed), so the threshold never changes an
  emitted byte;
- ``run_all`` prefetches upcoming reads and pipelines consecutive
  exchange cycles, committing strictly in cycle order; killing the
  driver between cycles and restarting resumes from the checkpoint
  with byte-identical emitted output (asserted in tests).
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from ..functions.hashing import crc32_bucket
from ..stages.windows import ts_us
# ``_exchange_fns`` (the exchange's split/reduce remote functions) is
# imported under this name only because perfbench/trace.py wraps them
# through it
from .exchange import _fns as _exchange_fns  # noqa: F401
from .exchange import exchange_refs
from .keyed_stream import (
    KeyedStreamJob, _column_us, footer_late_stats, write_parquet_atomic,
)

__all__ = ["StreamingSessionJob", "StreamingFlagshipJob"]


def _cluster_width() -> int:
    """``max(8, 2 × cluster CPUs)``: the session job's conv-bucket count
    and the block count of a large cycle's pinned read."""
    import ray

    return max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)


def _pinned_read(path: str):
    """A large cycle's raw parquet blocks, read by Ray Data and pinned
    in the object store (``materialize()``), so the late gather and the
    exchange read the same blocks."""
    import ray.data as _rd

    return _rd.read_parquet(
        path, override_num_blocks=_cluster_width()).materialize()


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


def _bucket_cycle(bucket: int, final_wm: int, gap_s: int, work, prev_open,
                  turns) -> tuple[pd.DataFrame, pd.DataFrame]:
    """THE per-bucket cycle body of both placements, and the session
    exchange's reducer: the grouped ``work`` (the flagship's chain→sink
    partition write) over the on-time ``turns`` (None for an empty
    bucket), the carried open SUMMARIES as pseudo-turn rows, the
    sessionize and the close split. Returns ``(closed, still_open)``;
    :meth:`StreamingSessionJob._finish_cycle` writes the closed halves
    of a cycle."""
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
    t = tbl.filter(pa.array(_column_us(tbl["ts"]) >= wm))
    return t, crc32_bucket(t["conv_id"].to_numpy(zero_copy_only=False), nb)


def _late_rows(wm: int, tbl):
    """The rows of ``tbl`` with ``ts < wm`` — the complement of
    :func:`_ontime_conv_key`'s filter, on the same flooring converter
    as the zone-map reader that counted them."""
    return tbl.filter(pa.array(_column_us(tbl["ts"]) < wm))


class StreamingSessionJob(KeyedStreamJob):
    """Sessionization over a micro-batch file stream with watermarks.

    Emits CLOSED session summaries per cycle (a session closes when the
    watermark passes its end + gap); keeps open sessions in the
    checkpoint. Late rows (ts < watermark at arrival) go to the
    late-rows output, not into sessions.
    """

    OUTPUTS = ("closed",)
    COUNTERS = ("rows", "closed", "late")
    STATE_ORDER = ["conv_id", "session_start"]
    TRACK_LATE_ROWS = True

    def __init__(
        self,
        input_dir: str,
        state_dir: str,
        gap_s: int = 1800,
        allowed_lateness_s: int = 0,
        ray_cycle_threshold: int | None = None,
        cycle_engine: str = "tasks",
    ):
        if cycle_engine != "tasks":
            # the keyword stays for callers that name the engine; the
            # hash exchange is the only large-cycle path
            raise ValueError(f"unknown cycle_engine: {cycle_engine!r}")
        super().__init__(input_dir, state_dir, allowed_lateness_s)
        self.gap_s = gap_s
        if ray_cycle_threshold is not None:
            # instance override of the class constant: it moves cycles
            # between the two placements, which write the same files
            self.RAY_CYCLE_THRESHOLD = ray_cycle_threshold
        #: (fname, thread, holder) of an in-flight next-cycle raw read
        self._prefetch: dict = {}

    def _empty_state(self) -> pd.DataFrame:
        return _empty_summaries()

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return {"open": int(len(snap))}

    # -- one cycle ---------------------------------------------------------

    #: above this many rows the WHOLE cycle runs on the hash exchange
    #: (:meth:`_launch_cycle`) — pinned read → late split → per-bucket
    #: :func:`_bucket_cycle` — with only session summaries returning to
    #: the driver (nothing row-scale crosses it). Below it the same body
    #: runs in-process: Ray per-task overhead dominates tiny cycles.
    #: Both placements write the same files, so this constant chooses
    #: where a cycle runs, never what it emits.
    RAY_CYCLE_THRESHOLD = 150_000

    def _run_file(self, state: dict, fname: str, stats=None) -> dict:
        """The cycle of input file ``fname`` against the loaded
        ``state``: :meth:`run_cycle`'s entry, and :meth:`run_all`'s for
        the cycles it does not pipeline, which hand over the footer
        ``stats`` they already read (:meth:`_cycle_stats`)."""
        wm = int(state.get("watermark_us", 0))
        path = os.path.join(self.input_dir, fname)
        late_count, nrows, new_wm = stats or self._cycle_stats(path, wm)
        state["processed"] = list(state.get("processed", [])) + [fname]
        return self._cycle(state, (path, late_count, nrows), wm, new_wm,
                           fname)

    def _cycle_stats(self, path: str, wm: int) -> tuple[int, int, int]:
        """``(late_count, total_rows, new_watermark)`` of a cycle file
        from its parquet zone maps (:func:`footer_late_stats`, exact),
        for both placements: the row count picks the placement without
        reading data, and the watermark advances to ``max(ts) −
        lateness`` (the max over all rows is the max over the on-time
        rows, since a late ts is below ``wm``), never backwards."""
        late_count, total_rows, max_us = footer_late_stats(path, wm)
        new_watermark = (max(wm, max_us - self.lateness_us)
                         if late_count < total_rows else wm)
        return late_count, total_rows, new_watermark

    def _late_path(self, fname: str) -> str:
        return os.path.join(self.late_dir, f"late-{fname}")

    def _execute(self, inputs: tuple, wm: int, new_wm: int, cycle: int,
                 st: pd.DataFrame):
        """The cycle's two placements of :func:`_bucket_cycle`.
        ``inputs`` is ``(path, late_count, rows)`` from the file's zone
        maps. Above ``RAY_CYCLE_THRESHOLD`` rows the cycle runs on the
        hash exchange (:meth:`_launch_cycle`), waited on; no sort
        sampling, no boundary exchange, no per-cycle streaming-executor
        plan — the fixed cost a sub-second cycle pays under Ray Data's
        groupby (BENCH.md finding 19/20). Otherwise it runs in-process,
        starting no Ray work: read and late split (against the
        PRE-advance watermark), then the body once (no grouped work) or
        per conv bucket in ascending order. Both end in
        :meth:`_finish_cycle`."""
        path, late_count, nrows = inputs
        fname = os.path.basename(path)
        if nrows > self.RAY_CYCLE_THRESHOLD:
            import ray

            nb = self._cycle_bucket_count()
            closed, opens = map(ray.get, self._launch_cycle(
                path, fname, wm, new_wm, late_count, cycle,
                self._split_summaries(st, nb), nb))
        else:
            batch = pd.read_parquet(path)
            if late_count:
                late_mask = ts_us(batch["ts"]) < wm
                write_parquet_atomic(batch[late_mask],
                                     self._late_path(fname))
                batch = batch[~late_mask]
            work = (self._make_grouped_cycle_work(cycle) if len(batch)
                    else None)
            if work is None:
                units = [(0, batch, st)]
            else:
                nb = self._cycle_bucket_count()
                bk = crc32_bucket(batch["conv_id"].to_numpy(), nb)
                units = [(b, batch[bk == b].reset_index(drop=True), prev)
                         for b, prev in enumerate(
                             self._split_summaries(st, nb))]
            closed, opens = zip(*[
                _bucket_cycle(b, new_wm, self.gap_s, work, prev, turns)
                for b, turns, prev in units])
        return self._finish_cycle(cycle, closed, opens, late_count, nrows)

    def _finish_cycle(self, cycle: int, closed, opens, late_count: int,
                      nrows: int) -> tuple[pd.DataFrame, dict]:
        """THE cycle tail of both placements: sort the buckets' closed
        halves into one ``closed-{cycle:05d}.parquet`` (written only when
        a session closed; a replay overwrites it with the same bytes)
        and the still-open halves into the carry. Returns
        ``(still_open, counters)``."""
        closed = _sorted_summaries(closed)
        if len(closed):
            write_parquet_atomic(closed, os.path.join(
                self.closed_dir, f"closed-{cycle:05d}.parquet"))
        return _sorted_summaries(opens), {
            "rows": nrows - late_count, "closed": len(closed),
            "late": late_count}

    def _commit_cycle(self, state: dict, label: str, new_wm: int,
                      nxt: pd.DataFrame, counts: dict) -> dict:
        # defined here, not only inherited: perfbench's span wrappers
        # patch this class's own ``_commit_cycle`` entry
        return super()._commit_cycle(state, label, new_wm, nxt, counts)

    def _cycle_bucket_count(self) -> int:
        return _cluster_width()

    def _make_grouped_cycle_work(self, cycle: int):
        """The job's one sink hook: a callable :func:`_bucket_cycle` runs
        on each bucket's on-time turn rows (full payload + ``_bucket``)
        in both placements, or None. The flagship returns its
        chain→exactly-once-partition-write leg, so sink and sessionize
        share ONE bucketing."""
        return None

    def _cycle_prelude(self, path, fname, wm, late_count):
        """Pre-exchange work of a large cycle: pin the raw Arrow blocks
        (prefetched during the previous cycle, normally) and write the
        late rows out. The late count comes from the zone maps
        (:meth:`_cycle_stats`), so the no-late common case starts no Ray
        execution (BENCH.md finding 19: the fixed per-cycle execution
        count is what bounds streaming scaling efficiency); the rare
        late rows are gathered on the driver and written as the one
        ``late-{fname}`` the in-process placement writes. Returns the
        pinned dataset."""
        import ray

        raw = self._take_prefetched(fname)
        if raw is None:
            raw = _pinned_read(path)
        if late_count:
            late = ray.get(raw.map_batches(
                functools.partial(_late_rows, wm),
                batch_format="pyarrow").to_arrow_refs())
            # (blocks with no late row may come back schema-less)
            late = pa.concat_tables([t for t in late if t.num_rows])
            # written from pandas, as the in-process cycle writes it, so
            # the file's schema metadata and bytes are the same
            write_parquet_atomic(late.to_pandas(), self._late_path(fname))
        return raw

    @staticmethod
    def _split_summaries(open_prev: pd.DataFrame, nb: int) -> list:
        """Per-bucket slices of an open-session summary frame (crc32
        conv bucketing — the job's one partitioning key)."""
        prev: list = [None] * nb
        if len(open_prev):
            pb = crc32_bucket(open_prev["conv_id"].to_numpy(), nb)
            for b in np.unique(pb):
                prev[int(b)] = open_prev[pb == b].reset_index(drop=True)
        return prev

    def _launch_cycle(self, path, fname, wm, new_wm, late_count, cycle,
                      prev, nb):
        """Start one large cycle on the hash exchange without waiting
        for it: the prelude (pinned read, late write), one split task
        per pinned block (refs, not rows, return to the driver) and one
        :func:`_bucket_cycle` reduce task per bucket with two returns.
        ``prev[b]`` is bucket ``b``'s carried open-session SUMMARIES —
        a frame, or the previous cycle's still-open ref; the reducer
        converts them to pseudo-turn rows itself, which is what lets the
        pipelined loop chain reducer (N, b) into (N+1, b) with no driver
        hop, carrying only the open half. Returns ``(closed_refs,
        open_refs)``."""
        raw = self._cycle_prelude(path, fname, wm, late_count)
        work = self._make_grouped_cycle_work(cycle)
        refs = exchange_refs(
            raw.to_arrow_refs(), nb,
            functools.partial(_ontime_conv_key, wm, nb), _bucket_cycle,
            [(b, new_wm, self.gap_s, work, prev[b]) for b in range(nb)],
            num_returns=2)
        return [c for c, _ in refs], [o for _, o in refs]

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
                holder["ds"] = _pinned_read(path)
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

    #: max cycles in flight under ``run_all`` (the oldest is committed
    #: before another launches, so depth 1 commits each cycle before
    #: the next starts). Depth 2 overlaps
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
    #: the pipeline and run unpipelined — same footer-only dispatch
    #: idiom as flagship_write(engine='auto').
    PIPELINE_ROW_MAX = 2_000_000

    def run_all(self) -> list[dict]:
        """Run every pending cycle; consecutive exchange cycles overlap.

        A per-cycle global barrier (``ray.get`` on every reducer before
        the next cycle starts) is what bounds streaming scaling at high
        CPU counts — the driver-side prelude + split launch of cycle
        N+1 serialize behind cycle N's slowest reducer. Here they
        don't:

        - the watermark chain needs only parquet FOOTER stats
          (:meth:`_cycle_stats`, read once per cycle), so cycle N+1's
          watermark, late routing and split tasks launch without any
          cycle-N reduce result;
        - reducer (N+1, b) takes reducer (N, b)'s still-open ObjectRef
          as its ``prev_open`` directly (the reducer converts summaries
          to pseudo-turn rows itself) — the open-session carry never
          touches the driver between cycles, and each bucket's chain
          advances independently instead of waiting on the global
          straggler;
        - the CHECKPOINT still commits strictly in cycle order: the
          oldest in-flight cycle is ``ray.get``-drained, its closed
          file written (:meth:`_finish_cycle`) and committed before
          cycle N+PIPELINE_DEPTH launches. A crash loses only
          uncommitted cycles, whose replay is byte-identical (atomic
          renames + committed-bucket sink skip absorb the
          partially-written work) — same guarantee, same commit point.

        Small cycles (≤ RAY_CYCLE_THRESHOLD) and giant cycles
        (> PIPELINE_ROW_MAX, where overlap measured net-negative — see
        that attribute) drain the pipeline and run through
        :meth:`_run_file`, as :meth:`run_cycle` does; outputs stay
        byte-identical at every depth (asserted in tests). Returns the
        per-cycle results.
        """
        import ray

        state = self.cp.load()
        wm = int(state.get("watermark_us", 0))
        cycle = int(state.get("cycles", 0))
        done = set(state.get("processed", []))
        # per-bucket carry, loaded at the first exchange cycle after a
        # (re)sync: a stream of small cycles never touches Ray
        nb = prev = None

        results: list[dict] = []
        # (fname, cycle, closed_refs, open_refs, late, rows, new_wm)
        inflight: list[tuple] = []

        def commit_oldest():
            fn_, cyc_, crefs, orefs, late_, rows_, wm_ = inflight.pop(0)
            nxt, counts = self._finish_cycle(
                cyc_, ray.get(crefs), ray.get(orefs), late_, rows_)
            state["processed"] = list(state.get("processed", [])) + [fn_]
            results.append(self._commit_cycle(state, fn_, wm_, nxt, counts))

        while pending := self._pending(self.input_dir, done):
            fname = pending[0]
            done.add(fname)
            path = os.path.join(self.input_dir, fname)
            stats = late_count, nrows, new_wm = self._cycle_stats(path, wm)
            if (nrows <= self.RAY_CYCLE_THRESHOLD
                    or nrows > self.PIPELINE_ROW_MAX):
                # small cycle → in-process placement, which needs the
                # materialized carry; GIANT cycle → pipelining measured
                # net-negative (see PIPELINE_ROW_MAX): drain, run it
                # unpipelined, resync
                while inflight:
                    commit_oldest()
                results.append(self._run_file(state, fname, stats))
                wm, cycle, prev = new_wm, cycle + 1, None
                continue

            if len(pending) > 1:
                self._start_prefetches(pending)
            if prev is None:
                nb = self._cycle_bucket_count()
                prev = self._split_summaries(self._load_state(state), nb)
            closed_refs, open_refs = self._launch_cycle(
                path, fname, wm, new_wm, late_count, cycle, prev, nb)
            inflight.append((fname, cycle, closed_refs, open_refs,
                             late_count, nrows, new_wm))
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
        +inf) into one ``closed-{cycle:05d}.parquet`` and commit an
        empty carry. Returns the final closed batch."""
        state = self.cp.load()
        closed = self._canon(self._load_state(state))
        if not len(closed):
            return pd.DataFrame()
        cycle = int(state.get("cycles", 0))
        write_parquet_atomic(closed, os.path.join(
            self.closed_dir, f"closed-{cycle:05d}.parquet"))
        state["cycles"] = cycle + 1
        self._commit(state, closed.iloc[0:0], cycle)
        return closed

    def closed_sessions(self) -> pd.DataFrame:
        return self._read_back("closed", None, pd.DataFrame())


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
