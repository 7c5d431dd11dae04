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
  rows arriving with ``ts < watermark`` (or no ts) are routed to a
  late/dead-letter output — the event-time analogue of imagor's
  ``expire()`` rejection (``imagor.go:314-322, 991-1003``);
- a cycle runs ONE per-bucket body, :func:`_bucket_cycle` (chain→sink
  partition write, sessionize, close split), in one of two placements
  (:meth:`StreamingSessionJob._execute`). Cycles above
  ``RAY_CYCLE_THRESHOLD`` rows run it on the engine's one hash exchange
  (``pipelines/exchange.py``), whose split tasks read the input's
  row-group ranges themselves (no Ray Data execution) and send the late
  rows to the side shard. Smaller cycles run it in-process, starting no
  Ray work (BENCH.md finding 20 and its 2026-10-17 note);
- both placements write the same files: late count, row count and
  watermark come from the parquet footer (:func:`footer_late_stats`),
  the late rows go to one ``late/late-{file}`` and the closed summaries
  of a cycle to one ``closed/closed-{cycle:05d}.parquet``
  (:meth:`_finish_cycle`), each written only when not empty;
- ``run_all`` launches the split tasks of upcoming files early and
  pipelines consecutive exchange cycles, committing strictly in cycle
  order; a restarted driver resumes from the checkpoint with
  byte-identical output (asserted in tests).
"""

from __future__ import annotations

import functools
import itertools
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..functions.hashing import crc32_bucket
from ..stages.windows import ts_us
# ``_exchange_fns`` (the exchange's split/reduce remote functions) is
# imported under this name only because perfbench/trace.py wraps them
# through it
from .exchange import _fns as _exchange_fns  # noqa: F401
from .exchange import exchange_refs, split_refs
from .keyed_stream import (
    KeyedStreamJob, _column_us, footer_late_stats, write_parquet_atomic,
)

__all__ = ["StreamingSessionJob", "StreamingFlagshipJob"]


def _cluster_width() -> int:
    """``max(8, 2 × cluster CPUs)``: the session job's conv-bucket count
    and the most split tasks a large cycle file is read in."""
    import ray

    return max(8, int(ray.cluster_resources().get("CPU", 8)) * 2)


def _row_group_ranges(row_groups: list, k: int) -> list[list[tuple]]:
    """At most ``k`` contiguous runs of a footer's ``row_groups``
    (:func:`footer_late_stats`) as ``(path, index)`` lists, cut after
    the group where the running row count reaches each ``i/k`` of the
    total."""
    if not row_groups:
        return []
    cum = np.cumsum([n for *_, n in row_groups])
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, k) / k) + 1
    bounds = sorted({0, len(cum), *np.minimum(cuts, len(cum)).tolist()})
    return [[g[:2] for g in row_groups[a:b]]
            for a, b in zip(bounds, bounds[1:])]


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
            work(bucket, turns)
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
    return sessions[closed_mask], sessions[~closed_mask]


def _range_conv_key(wm: int, nb: int, src):
    """The session exchange's map-side key, run in a split task: read
    the row groups ``src`` (``(fragment path, index)`` pairs in read
    order), send the late rows (``ts < wm``, on the zone-map reader's
    flooring converter) to the side shard ``nb`` and bucket the rest by
    ``crc32(conv_id) % nb``. The task holds one CPU, so it decodes on
    one thread (a threaded decode of a 152k-row file raised the task's
    peak memory from 111 to 160 MB)."""
    tbl = pa.concat_tables([
        pq.ParquetFile(path).read_row_groups([g for _, g in groups],
                                             use_threads=False)
        for path, groups in itertools.groupby(src, key=lambda u: u[0])])
    ontime = _column_us(tbl["ts"]) >= wm
    b = np.full(tbl.num_rows, nb, np.int64)
    b[ontime] = crc32_bucket(
        tbl["conv_id"].to_numpy(zero_copy_only=False)[ontime], nb)
    return tbl, b


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
        #: fname → (watermark, split shard refs) of the split tasks
        #: ``run_all`` launched ahead of their cycle
        self._prefetch: dict = {}

    def _empty_state(self) -> pd.DataFrame:
        return _empty_summaries()

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return {"open": int(len(snap))}

    # -- one cycle ---------------------------------------------------------

    #: above this many rows a cycle runs on the hash exchange
    #: (:meth:`_launch_cycle`), below it in-process: Ray per-task
    #: overhead dominates tiny cycles. Both placements write the same
    #: files, so this chooses where a cycle runs, never what it emits.
    RAY_CYCLE_THRESHOLD = 150_000

    def _run_file(self, state: dict, fname: str, stats=None) -> dict:
        """The cycle of input file ``fname`` against the loaded
        ``state``: :meth:`run_cycle`'s entry, and :meth:`run_all`'s for
        the cycles it does not pipeline, which hand over the footer
        ``stats`` they already read (:meth:`_cycle_stats`)."""
        wm = int(state.get("watermark_us", 0))
        path = os.path.join(self.input_dir, fname)
        stats = stats or self._cycle_stats(path, wm)
        state["processed"] = list(state.get("processed", [])) + [fname]
        return self._cycle(state, (path, stats), wm, stats[2], fname)

    def _cycle_stats(self, path: str, wm: int) -> tuple:
        """``(late_count, total_rows, new_watermark, row_groups)`` of a
        cycle input from its parquet footer (:func:`footer_late_stats`).
        The watermark advances to ``max(ts) − lateness`` (a late ts is
        below ``wm``, so that is the on-time max), never backwards."""
        fs = footer_late_stats(path, wm)
        late_count, total_rows, max_us = fs
        new_watermark = (max(wm, max_us - self.lateness_us)
                         if late_count < total_rows else wm)
        return late_count, total_rows, new_watermark, fs.row_groups

    def _late_path(self, fname: str) -> str:
        return os.path.join(self.late_dir, f"late-{fname}")

    def _execute(self, inputs: tuple, wm: int, new_wm: int, cycle: int,
                 st: pd.DataFrame):
        """The cycle's two placements of :func:`_bucket_cycle`
        (``inputs`` is ``(path, stats)``, ``stats`` its
        :meth:`_cycle_stats`): above ``RAY_CYCLE_THRESHOLD`` rows the
        hash exchange, drained at once; otherwise in-process — read,
        late split against the pre-advance watermark, then the body
        once (no grouped work) or per conv bucket in ascending order."""
        path, (late_count, nrows, _, row_groups) = inputs
        fname = os.path.basename(path)
        if nrows > self.RAY_CYCLE_THRESHOLD:
            nb = self._cycle_bucket_count()
            return self._drain_cycle(fname, cycle, self._launch_cycle(
                fname, wm, new_wm, row_groups, cycle,
                self._split_summaries(st, nb), nb), late_count, nrows)
        batch = pd.read_parquet(path)
        if late_count:
            late_mask = ts_us(batch["ts"]) < wm
            write_parquet_atomic(batch[late_mask], self._late_path(fname))
            batch = batch[~late_mask]
        work = self._make_grouped_cycle_work(cycle) if len(batch) else None
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
        as ``work(bucket, turns)`` on each bucket's on-time turn rows in
        both placements, or None. The flagship returns its
        chain→exactly-once-partition-write leg, so sink and sessionize
        share ONE bucketing."""
        return None

    def _cycle_prelude(self, fname, wm, row_groups):
        """A large cycle's split tasks, as shard refs: the ones
        ``run_all`` launched ahead against this watermark, or launched
        now, one per row-group range (:func:`_range_conv_key`)."""
        shards = self._take_prefetched(fname, wm)
        if shards is None:
            nb = self._cycle_bucket_count()
            shards = split_refs(
                _row_group_ranges(row_groups, _cluster_width()),
                functools.partial(_range_conv_key, wm, nb), nb, side=True)
        return shards

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

    def _launch_cycle(self, fname, wm, new_wm, row_groups, cycle, prev,
                      nb):
        """Start one large cycle on the hash exchange without waiting:
        the split tasks (:meth:`_cycle_prelude`) and one
        :func:`_bucket_cycle` reduce task per bucket with two returns.
        ``prev[b]`` is bucket ``b``'s open-session summaries — a frame,
        or the previous cycle's still-open ref, so the pipelined loop
        chains reducer (N, b) into (N+1, b) with no driver hop. Returns
        ``(closed_refs, open_refs, late_refs)``."""
        shards = self._cycle_prelude(fname, wm, row_groups)
        work = self._make_grouped_cycle_work(cycle)
        refs, late = exchange_refs(
            shards, _bucket_cycle,
            [(b, new_wm, self.gap_s, work, prev[b]) for b in range(nb)],
            num_returns=2)
        return [c for c, _ in refs], [o for _, o in refs], late

    def _drain_cycle(self, fname, cycle, refs, late_count, nrows):
        """Wait for a :meth:`_launch_cycle`: write its late rows, if the
        footer counted any, as the in-process placement's
        ``late-{fname}``, then :meth:`_finish_cycle`."""
        import ray

        closed, opens, late = refs
        if late_count:
            # written from pandas, as the in-process cycle writes it, so
            # the file's schema metadata and bytes are the same
            late = pa.concat_tables([t for t in ray.get(late) if t.num_rows])
            write_parquet_atomic(late.to_pandas(), self._late_path(fname))
        return self._finish_cycle(cycle, ray.get(closed), ray.get(opens),
                                  late_count, nrows)

    @staticmethod
    def _sessionize_with_start(turns: pd.DataFrame, gap_s: int) -> pd.DataFrame:
        """Interval-hull sessionize carrying true session_start from
        re-injected open-session summaries: every row is an interval
        ``[_start, ts]`` (a turn is a point; a summary spans its
        session). Rows sort by interval start and gap-check against the
        per-conv running hull end, so the kernel is insensitive to
        arrival order: under allowed lateness an in-horizon turn that
        predates an open summary's end merges into it (and may bridge
        two open summaries of the same conv). Hull merging is exact —
        gap connectivity between point sets depends only on their
        min/max. One ``lexsort`` over factorized conv codes orders the
        rows and ``reduceat`` folds each session."""
        if len(turns) == 0:
            return _empty_summaries()
        codes, convs = pd.factorize(turns["conv_id"], sort=True)
        # a null conv_id sorts last, as under pandas (factorize codes it -1)
        codes[codes < 0] = len(convs)
        start, end = turns["_start"].to_numpy(), turns["ts"].to_numpy()
        order = np.lexsort((end.view("int64"), start.view("int64"), codes))
        codes, start, end = codes[order], start[order], end[order]
        s_us, e_us = ts_us(start), ts_us(end)
        # per-conv running max of interval ends: one running max over
        # (conv code, end rank) packed into an int64 — exact, and no max
        # leaks from one conv into the next
        ends, rank = np.unique(e_us, return_inverse=True)
        base = codes * len(ends)
        hull = ends[np.maximum.accumulate(base + rank) - base]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        new[1:] = ((codes[1:] != codes[:-1])
                   | (s_us[1:] > hull[:-1] + gap_s * 1_000_000))
        first = np.flatnonzero(new)
        return pd.DataFrame({
            "conv_id": turns["conv_id"].array[order[first]],
            "session_start": np.minimum.reduceat(start, first),
            "session_end": np.maximum.reduceat(end, first),
            "n_turns": np.add.reduceat(
                turns["n_turns"].to_numpy()[order], first),
        })

    # -- read-ahead (pipelined cycles) ---------------------------------

    #: how many upcoming large files ``run_all`` launches the split
    #: tasks (the reads) of ahead of the running cycle: at high
    #: parallelism cycles are short and one slot leaves the read on the
    #: critical path about every other cycle; each slot costs one
    #: cycle's shards in the object store (spills gracefully).
    PREFETCH_DEPTH = 2

    def _take_prefetched(self, fname: str, wm: int):
        """Pop the shard refs ``run_all`` launched ahead for ``fname``:
        None if none, or if launched against another watermark."""
        ent = self._prefetch.pop(fname, None)
        return ent[1] if ent is not None and ent[0] == wm else None

    #: max cycles in flight under ``run_all`` (depth 1 commits each
    #: cycle before the next starts). Depth 2 overlaps cycle N+1's
    #: read/split/launch with cycle N's reducer drain, so the fixed
    #: per-cycle exchange cost stops serializing with compute; deeper
    #: pipelines only add object-store pressure.
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
        the next cycle starts) bounds streaming scaling at high CPU
        counts. Here:

        - the watermark chain needs only parquet footer stats
          (:meth:`_cycle_stats`, read once per file), so the split tasks
          of the next ``PREFETCH_DEPTH`` large files launch while cycle
          N runs;
        - reducer (N+1, b) takes reducer (N, b)'s still-open ref as its
          ``prev_open``: the carry never touches the driver between
          cycles and each bucket's chain advances on its own;
        - the checkpoint commits strictly in cycle order: the oldest
          in-flight cycle is drained (:meth:`_drain_cycle`) and
          committed before cycle N+PIPELINE_DEPTH launches; a crash
          loses only uncommitted cycles, whose replay is byte-identical.

        Small cycles (≤ RAY_CYCLE_THRESHOLD) and giant ones
        (> PIPELINE_ROW_MAX) drain the pipeline and run through
        :meth:`_run_file`. Returns the per-cycle results.
        """
        state = self.cp.load()
        wm = int(state.get("watermark_us", 0))
        cycle = int(state.get("cycles", 0))
        done = set(state.get("processed", []))
        # per-bucket carry, loaded at the first exchange cycle after a
        # (re)sync: a stream of small cycles never touches Ray
        nb = prev = None

        results: list[dict] = []
        # (fname, cycle, launched refs, late, rows, new_wm)
        inflight: list[tuple] = []
        # fname → (watermark, stats): each footer is read once
        ahead: dict = {}

        def stats_at(fname: str, w: int) -> tuple:
            if ahead.get(fname, (None,))[0] != w:
                ahead[fname] = (w, self._cycle_stats(
                    os.path.join(self.input_dir, fname), w))
            return ahead[fname][1]

        def commit_oldest():
            fn_, cyc_, refs, late_, rows_, wm_ = inflight.pop(0)
            nxt, counts = self._drain_cycle(fn_, cyc_, refs, late_, rows_)
            state["processed"] = list(state.get("processed", [])) + [fn_]
            results.append(self._commit_cycle(state, fn_, wm_, nxt, counts))

        while pending := self._pending(self.input_dir, done):
            fname = pending[0]
            done.add(fname)
            late_count, nrows, new_wm, row_groups = stats = stats_at(fname, wm)
            del ahead[fname]
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

            if prev is None:
                nb = self._cycle_bucket_count()
                prev = self._split_summaries(self._load_state(state), nb)
            refs = self._launch_cycle(fname, wm, new_wm, row_groups, cycle,
                                      prev, nb)
            inflight.append((fname, cycle, refs, late_count, nrows, new_wm))
            # read ahead: chain the next files' watermarks through their
            # footers and launch the large ones' split tasks now. A
            # footer that cannot be read yet stops the read-ahead; it
            # raises when its own cycle runs, after the earlier commits
            w = new_wm
            for f in pending[1:1 + self.PREFETCH_DEPTH]:
                try:
                    _, rows_f, w_next, groups_f = stats_at(f, w)
                except (OSError, ValueError):
                    break
                if (rows_f > self.RAY_CYCLE_THRESHOLD
                        and f not in self._prefetch):
                    self._prefetch[f] = (w, self._cycle_prelude(f, w,
                                                                groups_f))
                w = w_next
            prev = refs[1]  # chain per-bucket refs into the next cycle
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

        def work(bucket: int, turns: pd.DataFrame) -> None:
            g = proc(turns)
            g["_bucket"] = np.int32(bucket)
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
