"""Stream-stream windowed JOIN over the micro-batch event stream —
the structured-streaming feature the north rule names that the engine
previously covered only in stream-TABLE form (``enriched_tool_stats``'s
broadcast dimension join): both sides arrive as streams, a match can
straddle cycle boundaries, and the join state is bounded by the
watermark (Spark's stream-stream inner-join semantics; reference
analogue: imagor's loader→result-storage rendezvous where a result can
only pair with a request still inside its TTL).

Semantics: each LEFT event (default ``click``) matches every RIGHT
event (default ``purchase``) of the SAME user with
``left.ts < right.ts <= left.ts + window``. Pairs are emitted in the
first cycle where both sides have arrived; unmatched rows wait in
checkpoint state until the watermark proves no future match exists:

- LEFT rows evict when ``ts + window < watermark`` (every future
  on-time right row has ``ts >= watermark``);
- RIGHT rows evict when ``ts <= watermark`` (a future left row needs
  ``right.ts > left.ts >= watermark``).

So state is O(events within one window horizon of the watermark) —
never the stream. Late rows (``ts < watermark`` at arrival) are routed
to the late output, mirroring :class:`StreamingSessionJob`.

OUTER variants ride the same evictions: a LEFT row evicted while still
unmatched is emitted as the null-right timeout result (LEFT join), a
RIGHT row evicted unmatched as the null-left result (the FULL join's
other half) — both emissions happen DURING the stream the moment the
watermark proves no future match, byte-stably, before the commit;
``finalize()`` flushes both tails for bounded runs.

Exactly-once: matched pairs land in per-cycle (per-bucket, in the
bucketed layout) parquet files written BEFORE the checkpoint commits;
a crash between the write and the commit replays the cycle against the
committed pre-cycle state and overwrites the same files with identical
bytes (rows are sorted (req_id, resp_id) before write, and the cycle's
inputs + state are identical on replay). The cycle-versioned state
snapshot rides the same single-commit-point discipline as the session
job (``Checkpoint.stage_open_sessions`` + ``save``).

Scale shape: the per-cycle match is the (user, new×state) band join,
ONE kernel call per cycle by the keyed-stream runtime
(:mod:`.keyed_stream`) over the cycle's tagged rows ∪ the (small,
watermark-bounded) state rows. Above ``RAY_CYCLE_THRESHOLD`` rows the
matched pairs and late rows are split into per-user-bucket files at
write time; at or below it each is one file. Eviction and the timeout
writes run once on the next state.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import pandas as pd

from ..functions.bandjoin import band_probe
from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob, write_parquet_atomic

__all__ = ["StreamingJoinJob", "TwoSourceJoinJob"]

_PAIR_COLS = ["req_id", "resp_id", "user_id", "req_ts", "resp_ts"]


def _empty_pairs() -> pd.DataFrame:
    return pd.DataFrame({
        "req_id": pd.Series([], dtype="int64"),
        "resp_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "req_ts": pd.Series([], dtype="datetime64[us]"),
        "resp_ts": pd.Series([], dtype="datetime64[us]"),
    })


def _empty_state() -> pd.DataFrame:
    return pd.DataFrame({
        "event_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
        "side": pd.Series([], dtype="int8"),   # 0 = left, 1 = right
        # 1 once the row has matched at least once — the OUTER joins'
        # timeout emissions (null-right for lefts, null-left for
        # rights) need it at eviction time
        "matched": pd.Series([], dtype="int8"),
    })


def _match(l_uid: np.ndarray, l_us: np.ndarray, l_id: np.ndarray,
           r_uid: np.ndarray, r_us: np.ndarray, r_id: np.ndarray,
           window_us: int) -> pd.DataFrame:
    """Vectorized band-join kernel: all (left, right) pairs of the same
    user with ``l.ts < r.ts <= l.ts + window``. The shared rank-dense
    :func:`band_probe` positions every left row against the
    (user-rank, ts-rank) sorted right side (products bounded by
    bucket_rows², never users × µs-span); the repeat/arange
    construction expands [lo, hi) spans into pair rows — no Python
    loop, no per-user groupby."""
    if not len(l_uid) or not len(r_uid):
        return _empty_pairs()
    lo, hi, order = band_probe(l_uid, l_us + 1, l_us + window_us,
                               r_uid, r_us)
    r_us_s, r_id_s = r_us[order], r_id[order]
    reps = hi - lo
    total = int(reps.sum())
    if total == 0:
        return _empty_pairs()
    li = np.repeat(np.arange(len(l_uid)), reps)
    starts = np.repeat(lo, reps)
    bsum = np.concatenate([[0], np.cumsum(reps)[:-1]])
    rj = starts + (np.arange(total) - np.repeat(bsum, reps))
    return pd.DataFrame({
        "req_id": l_id[li],
        "resp_id": r_id_s[rj],
        "user_id": l_uid[li],
        "req_ts": pd.Series(l_us[li]).astype("datetime64[us]"),
        "resp_ts": pd.Series(r_us_s[rj]).astype("datetime64[us]"),
    })


def _cycle_match(new_l: pd.DataFrame, new_r: pd.DataFrame,
                 st: pd.DataFrame, window_us: int) -> pd.DataFrame:
    """All pairs completed by this cycle's arrivals:
    new_left × (state_right ∪ new_right)  ∪  state_left × new_right
    (new×new rides the first term only — never double-emitted)."""
    st_l = st[st["side"] == 0]
    st_r = st[st["side"] == 1]
    r_all_uid = np.concatenate([st_r["user_id"].to_numpy(dtype="int64"),
                                new_r["user_id"].to_numpy(dtype="int64")])
    r_all_us = np.concatenate([st_r["ts_us"].to_numpy(dtype="int64"),
                               new_r["ts_us"].to_numpy(dtype="int64")])
    r_all_id = np.concatenate([st_r["event_id"].to_numpy(dtype="int64"),
                               new_r["event_id"].to_numpy(dtype="int64")])
    out = [
        _match(new_l["user_id"].to_numpy(dtype="int64"),
               new_l["ts_us"].to_numpy(dtype="int64"),
               new_l["event_id"].to_numpy(dtype="int64"),
               r_all_uid, r_all_us, r_all_id, window_us),
        _match(st_l["user_id"].to_numpy(dtype="int64"),
               st_l["ts_us"].to_numpy(dtype="int64"),
               st_l["event_id"].to_numpy(dtype="int64"),
               new_r["user_id"].to_numpy(dtype="int64"),
               new_r["ts_us"].to_numpy(dtype="int64"),
               new_r["event_id"].to_numpy(dtype="int64"), window_us),
    ]
    return pd.concat(out, ignore_index=True)


class StreamingJoinJob(KeyedStreamJob):
    """Micro-batch stream-stream inner join with watermark-bounded
    state (module docstring has the full semantics)."""

    OUTPUTS = ("matched", "timeout", "rtimeout")
    COUNTERS = ("matched", "late", "timeout", "rtimeout")
    LATE_COLS = ["event_id", "user_id", "ts"]
    # canonical snapshot order: byte-stable across replays and executors
    STATE_ORDER = ["side", "event_id"]
    # matched files are written in (req_id, resp_id) order, whatever
    # order the kernel emits its pairs in
    EMIT_ORDER = {"matched": ["req_id", "resp_id"]}
    TRACK_LATE_ROWS = True
    FINALIZED_MSG = (
        "stream finalized: the end-of-stream timeout flush was "
        "emitted — resuming would let an already-timed-out left "
        "row match (matched/timeout disjointness); start a new "
        "state dir to continue")

    def __init__(self, input_dir: str, state_dir: str,
                 left_type: str = "click", right_type: str = "purchase",
                 window_s: int = 21600, allowed_lateness_s: int = 0,
                 num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None):
        super().__init__(input_dir, state_dir, allowed_lateness_s,
                         num_buckets, ray_cycle_threshold)
        self.left_type = left_type
        self.right_type = right_type
        self.window_us = window_s * 1_000_000

    def _empty_state(self) -> pd.DataFrame:
        return _empty_state()

    def _load_state(self, state: dict) -> pd.DataFrame:
        st = super()._load_state(state)
        if "matched" not in st.columns:   # pre-outer-join snapshots
            st = st.copy()
            st["matched"] = np.int8(0)
        if len(st) and not state.get("rights_matched_tracked"):
            # LEFT-outer-era snapshot: right rows carry matched=0 even
            # when they already produced pairs. Their true matched bit
            # is unrecoverable, so mark them matched — suppressing a
            # (possibly legitimate) null-left timeout is safe; emitting
            # a duplicate for an already-matched purchase would break
            # the FULL join's matched/rtimeout disjointness.
            st = st.copy()
            st.loc[st["side"] == 1, "matched"] = np.int8(1)
        return st

    @staticmethod
    def _write_sorted(df: pd.DataFrame, path: str, by: str) -> None:
        """Byte-stable parquet of a timeout/rtimeout frame: rows in
        ``by`` order (its one id that is not a constant -1, so this is
        the matched files' (req_id, resp_id) order) + atomic rename
        (replay overwrites with identical bytes)."""
        # a method of this class, not inlined: perfbench's span
        # wrappers patch this class's own ``_write_sorted`` entry
        write_parquet_atomic(df.sort_values(by, kind="mergesort"), path)

    def run_cycle(self) -> dict | None:
        """Process the next pending file: match, emit, evict, commit
        (the shared keyed-stream loop)."""
        # defined here, not only inherited: perfbench's span wrappers
        # patch this class's own ``run_cycle`` entry
        return super().run_cycle()

    # -- the kernel ------------------------------------------------------

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        """Join-side rows (side 0 = left, 1 = right) plus late rows of
        any type; other on-time event types never enter the cycle."""
        us = ts_us(b["ts"])
        t = b["event_type"].to_numpy()
        keep = (t == self.left_type) | (t == self.right_type) | (us < wm)
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(dtype="int64")[keep],
            "user_id": b["user_id"].to_numpy(dtype="int64")[keep],
            "ts_us": us[keep],
            "side": np.where(t[keep] == self.left_type, 0, 1).astype(np.int8),
            "matched": np.zeros(int(keep.sum()), dtype=np.int8),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        side = new["side"].to_numpy()
        new_l, new_r = new[side == 0], new[side == 1]
        pairs = _cycle_match(new_l, new_r, st, self.window_us)
        cols = list(st.columns)
        nxt = pd.concat([st[cols], new_l[cols], new_r[cols]],
                        ignore_index=True)
        if len(pairs):
            side = nxt["side"].to_numpy()
            eid = nxt["event_id"].to_numpy()
            hit = ((side == 0) & np.isin(eid, pairs["req_id"].unique())
                   | (side == 1) & np.isin(eid, pairs["resp_id"].unique()))
            nxt.loc[hit, "matched"] = np.int8(1)
        return {"matched": pairs}, nxt, {"matched": len(pairs)}

    def _post_gather(self, state: dict, new_st: pd.DataFrame, new_wm: int,
                     cycle: int) -> tuple[pd.DataFrame, dict]:
        """Watermark-driven eviction of provably-unmatchable rows, with
        the OUTER-join timeout emissions written driver-side."""
        keep_l = ((new_st["side"] == 0)
                  & (new_st["ts_us"] + self.window_us >= new_wm))
        keep_r = (new_st["side"] == 1) & (new_st["ts_us"] > new_wm)
        # OUTER-join timeout emission: a left row evicted while still
        # unmatched can never match (the eviction proof) — emit it as
        # the null-right result NOW, byte-stably, before the commit
        timed_out = new_st[(new_st["side"] == 0) & ~keep_l
                           & (new_st["matched"] == 0)]
        self._write_timeouts(timed_out, f"timeout-{cycle:05d}.parquet")
        # FULL-OUTER's other half: a right row evicted unmatched can
        # never match either (a future on-time left has ts >= wm >= its
        # ts, and pairs need left.ts < right.ts) — emit the null-left
        # result symmetrically
        r_timed_out = new_st[(new_st["side"] == 1) & ~keep_r
                             & (new_st["matched"] == 0)]
        self._write_right_timeouts(r_timed_out,
                                   f"rtimeout-{cycle:05d}.parquet")
        # snapshots from here on carry the rights' matched bits for real
        # (legacy LEFT-era snapshots are conservatively backfilled in
        # _load_state)
        state["rights_matched_tracked"] = True
        return (self._canon(new_st[keep_l | keep_r]),
                {"timeout": len(timed_out), "rtimeout": len(r_timed_out)})

    def finalize(self) -> int:
        """End-of-stream flush for the OUTER join: every left row still
        unmatched in the committed state gets its null-right timeout
        emission (a real stream never ends; a bounded replay/catalog
        run calls this once after the last cycle). Idempotent — the
        write is a byte-stable overwrite from committed state — and
        TERMINAL: the checkpoint records it, and further run_cycle()
        calls are refused (a left row already emitted as timed-out
        matching later would break the matched/timeout disjointness
        the LEFT-OUTER contract promises)."""
        def flush(st: pd.DataFrame) -> int:
            rest = st[(st["side"] == 0) & (st["matched"] == 0)]
            self._write_timeouts(rest, "timeout-final.parquet")
            # symmetric FULL-OUTER tail: rights still unmatched at
            # stream end can never pair (no further lefts arrive)
            rest_r = st[(st["side"] == 1) & (st["matched"] == 0)]
            self._write_right_timeouts(rest_r, "rtimeout-final.parquet")
            return len(rest)
        return self._finalize(flush)

    def _write_timeouts(self, rows: pd.DataFrame, fname: str) -> None:
        out = pd.DataFrame({
            "req_id": rows["event_id"].to_numpy(dtype="int64"),
            "resp_id": np.full(len(rows), -1, dtype="int64"),
            "user_id": rows["user_id"].to_numpy(dtype="int64"),
            "req_ts": pd.Series(rows["ts_us"].to_numpy(dtype="int64"))
            .astype("datetime64[us]"),
        })
        self._write_sorted(out, os.path.join(self.timeout_dir, fname),
                           "req_id")

    def _write_right_timeouts(self, rows: pd.DataFrame, fname: str) -> None:
        out = pd.DataFrame({
            "req_id": np.full(len(rows), -1, dtype="int64"),
            "resp_id": rows["event_id"].to_numpy(dtype="int64"),
            "user_id": rows["user_id"].to_numpy(dtype="int64"),
            "resp_ts": pd.Series(rows["ts_us"].to_numpy(dtype="int64"))
            .astype("datetime64[us]"),
        })
        self._write_sorted(out, os.path.join(self.rtimeout_dir, fname),
                           "resp_id")


class TwoSourceJoinJob(StreamingJoinJob):
    """Stream-stream join over TWO independent micro-batch sources —
    the multiple-watermark shape (Spark's default multi-source policy):
    clicks and purchases arrive as separate file streams that advance
    independently, and the GLOBAL watermark is the MIN of the two
    per-source event-time maxima (minus allowed lateness). A lagging
    source therefore holds the watermark back: nothing evicts, nothing
    times out and nothing is declared late on the strength of the
    fast source alone — the exact semantics that make multi-source
    joins safe when one input stalls.

    Each cycle consumes the next pending file from EACH source that
    has one (a cycle may be single-sided once the other source is
    exhausted). All rows of the left source are left-side rows and
    likewise for the right (the sources ARE the sides); matching,
    state, eviction, the OUTER timeout emissions and the
    single-commit-point checkpoint discipline are inherited unchanged.
    Per-source maxima are checkpointed, so resume preserves the
    watermark exactly.

    The per-side refinement (lefts may evict on the RIGHT source's
    watermark alone and vice versa) is deliberately not taken: the
    global min is the documented, conservative default, and the
    single-source class already demonstrates the finer eviction
    proofs.

    IDLE-SOURCE TIMEOUT (the ``withIdleness`` escape hatch): a source
    that stops producing would hold the min-watermark forever, pinning
    state and suppressing every eviction. With ``idle_cycles = k``
    (default 0 = never), a source with no pending file for k
    CONSECUTIVE cycles is declared idle and excluded from the min —
    the active source's clock drives the watermark alone until the
    idle source produces again (which instantly re-arms it, and rows
    it delivers behind the advanced watermark are routed late: the
    exact documented trade-off of idleness timeouts). The idle
    counters are checkpointed, so resume preserves the declaration.
    """

    SIDE_COLS = ["event_id", "ts", "user_id"]
    FINALIZED_MSG = (
        "stream finalized: the end-of-stream timeout flush was "
        "emitted — resuming would break matched/timeout "
        "disjointness; start a new state dir to continue")

    def __init__(self, left_dir: str, right_dir: str, state_dir: str,
                 window_s: int = 21600, allowed_lateness_s: int = 0,
                 num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None,
                 idle_cycles: int = 0):
        super().__init__(left_dir, state_dir, window_s=window_s,
                         allowed_lateness_s=allowed_lateness_s,
                         num_buckets=num_buckets,
                         ray_cycle_threshold=ray_cycle_threshold)
        self.right_dir = right_dir
        self.idle_cycles = idle_cycles

    def _tag_side(self, b: pd.DataFrame, wm: int, side: int) -> pd.DataFrame:
        """Every row of a source file is a row of that source's side."""
        n = len(b)
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
            "side": np.full(n, side, dtype=np.int8),
            "matched": np.zeros(n, dtype=np.int8),
        })

    def run_cycle(self) -> dict | None:
        state = self.cp.load()
        fl = next(iter(self._pending(
            self.input_dir, set(state.get("processed", [])))), None)
        fr = next(iter(self._pending(
            self.right_dir, set(state.get("processed_right", [])))), None)
        if fl is None and fr is None:
            return None
        self._check_open(state)
        wm = int(state.get("watermark_us", 0))

        # per-source event-time maxima come from parquet zone maps
        # (executor-independent, the single watermark source)
        max_l = (self._file_max_ts(os.path.join(self.input_dir, fl))
                 if fl else -1)
        max_r = (self._file_max_ts(os.path.join(self.right_dir, fr))
                 if fr else -1)
        # per-source maxima persist; the GLOBAL watermark is their min
        src_max_l = max(int(state.get("src_max_left", -1)), max_l)
        src_max_r = max(int(state.get("src_max_right", -1)), max_r)
        # idle-source bookkeeping: consecutive cycles without a file
        idle_l = 0 if fl is not None else int(state.get("idle_left", 0)) + 1
        idle_r = 0 if fr is not None else int(state.get("idle_right", 0)) + 1
        maxima = []
        if not (self.idle_cycles and idle_l >= self.idle_cycles):
            maxima.append(src_max_l)
        if not (self.idle_cycles and idle_r >= self.idle_cycles):
            maxima.append(src_max_r)
        if maxima and min(maxima) >= 0:
            new_wm = max(wm, min(maxima) - self.lateness_us)
        else:
            new_wm = wm     # a non-idle source with no data holds the line

        state["src_max_left"] = int(src_max_l)
        state["src_max_right"] = int(src_max_r)
        state["idle_left"] = int(idle_l)
        state["idle_right"] = int(idle_r)
        if fl is not None:
            state["processed"] = list(state.get("processed", [])) + [fl]
        if fr is not None:
            state["processed_right"] = (
                list(state.get("processed_right", [])) + [fr])
        # both sources feed ONE executor: each file is tagged with its
        # fixed side, then state, matching, eviction and the commit are
        # the single-source job's
        inputs = [(os.path.join(d, f), self.SIDE_COLS,
                   functools.partial(self._tag_side, side=side))
                  for d, f, side in ((self.input_dir, fl, 0),
                                     (self.right_dir, fr, 1)) if f]
        return self._cycle(state, inputs, wm, new_wm, f"{fl}|{fr}")
