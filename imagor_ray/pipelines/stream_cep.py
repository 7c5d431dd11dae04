"""Streaming CEP — the Kleene-plus funnel (``signup click+ purchase``,
strict contiguity, whole match inside the window) evaluated
INCREMENTALLY across micro-batch cycles: the pattern-matching leg of
the north rule's "structured-streaming / CEP engine", where the batch
``cep_kleene_funnel`` kernel becomes a stateful stream operator whose
partial matches survive cycle boundaries (Flink CEP's NFA state, here
collapsed to the closed form this pattern admits).

Event-time correctness forces WATERMARK-GATED processing (the
``temporal_join`` discipline): strict contiguity depends on each
user's FULL event order, so an event may only enter the match kernel
once the watermark proves nothing can still arrive before it
(``ts < wm``). Arrivals buffer until then — which makes the operator
arrival-order-insensitive for free: an out-of-order in-horizon event
sorts into its event-time position before anything after it is
processed. Rows behind the watermark at arrival route to the late
output (house contract).

The per-user NFA state this pattern needs is CLOSED FORM — three
registers, not an event buffer:

- ``prev_code/prev_ts``: the event immediately before the open click
  island (the potential ``signup`` flank), or simply the user's last
  processed event when no island is open. By construction this is
  never a click.
- ``island_n/island_ts``: the open trailing run of consecutive clicks
  (count + first-click ts). ``island_n == 0`` means no open run.

A match DECIDES the moment the flanking event is processed: a
non-click same-user event closes the island, and it matches iff the
flank before the island was a ``signup``, the closer is a
``purchase``, and ``purchase.ts - signup.ts <= window``. Emission
therefore happens in the cycle whose watermark sweeps past the
closing event — exactly-once by the house discipline (per-cycle
sorted emission files committed BEFORE the single checkpoint save;
crash replay reruns against the pre-cycle state and overwrites
identical bytes).

Equality with the batch kernel is structural: the processed sequence
per user is the (ts, event_id)-sorted event stream (the same order the
batch kernel sorts into), islands carry their weighted click count
across cycle boundaries as ONE synthetic row, and ``finalize()``
drains the buffer so trailing islands die exactly as the batch
kernel's unflanked islands do. The DuckDB oracle is the UNCHANGED
batch gaps-and-islands SQL.

State is watermark-bounded: O(users) closed-form registers (the
``temporal_join`` family's accepted domain-sized state) plus an event
buffer of one cycle + lateness horizon — never the stream.

Scale shape: ONE kernel call per cycle by the keyed-stream runtime
over tagged new ∪ state rows; above ``RAY_CYCLE_THRESHOLD`` footer
rows the emissions are split into per-user-bucket files at write
time. The tagged rows are fixed-width columns only (user_id,
event_id, ts, type-code, registers) — no text.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob, side_counts, write_parquet_atomic

__all__ = ["StreamingCepJob"]

_STATE_COLS = ["side", "user_id", "event_id", "ts_us", "code",
               "prev_code", "prev_ts_us", "island_n", "island_ts_us"]


def _empty_kst() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "prev_code": pd.Series([], dtype="int64"),
        "prev_ts_us": pd.Series([], dtype="int64"),
        "island_n": pd.Series([], dtype="int64"),
        "island_ts_us": pd.Series([], dtype="int64"),
    })


def _empty_buf() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "event_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
        "code": pd.Series([], dtype="int64"),
    })


def _empty_emit() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "start_ts": pd.Series([], dtype="datetime64[us]"),
        "end_ts": pd.Series([], dtype="datetime64[us]"),
        "n_clicks": pd.Series([], dtype="int64"),
    })


def _cep_cycle_kernel(kst: pd.DataFrame, ready: pd.DataFrame,
                      window_us: int
                      ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """One watermark sweep of the incremental Kleene kernel.

    ``kst``: per-user registers (see module docstring). ``ready``:
    events now provably final (``ts < wm``), columns user_id,
    event_id, ts_us, code. Returns ``(matches, next kst)``.

    The carried state re-enters the island scan as synthetic rows —
    the prev register as one row (event_id -2) and the open island as
    ONE click row of WEIGHT ``island_n`` (event_id -1) — which is
    exact because a match needs only the island's first-click ts and
    click count, never its interior timestamps. Register timestamps
    are strictly below every ready row's ts (processed means
    ``ts < wm`` at an earlier watermark), so the synthetic rows sort
    first within each user without tie games.
    """
    if not len(ready):
        return _empty_emit(), kst.reset_index(drop=True)

    synth = []
    if len(kst):
        # prev register rows (always present for a stateful user)
        synth.append(pd.DataFrame({
            "user_id": kst["user_id"].to_numpy(dtype="int64"),
            "event_id": np.full(len(kst), -2, dtype="int64"),
            "ts_us": kst["prev_ts_us"].to_numpy(dtype="int64"),
            "code": kst["prev_code"].to_numpy(dtype="int64"),
            "w": np.ones(len(kst), dtype="int64"),
        }))
        isl = kst[kst["island_n"].to_numpy(dtype="int64") > 0]
        if len(isl):
            synth.append(pd.DataFrame({
                "user_id": isl["user_id"].to_numpy(dtype="int64"),
                "event_id": np.full(len(isl), -1, dtype="int64"),
                "ts_us": isl["island_ts_us"].to_numpy(dtype="int64"),
                "code": np.ones(len(isl), dtype="int64"),
                "w": isl["island_n"].to_numpy(dtype="int64"),
            }))
    rows = pd.concat(synth + [ready.assign(
        w=np.ones(len(ready), dtype="int64"))], ignore_index=True)
    rows = rows.sort_values(["user_id", "ts_us", "event_id"],
                            kind="mergesort").reset_index(drop=True)

    uid = rows["user_id"].to_numpy(dtype="int64")
    ts = rows["ts_us"].to_numpy(dtype="int64")
    code = rows["code"].to_numpy(dtype="int64")
    w = rows["w"].to_numpy(dtype="int64")
    n = len(rows)

    is_click = code == 1
    same_prev = np.zeros(n, dtype=bool)
    same_prev[1:] = uid[1:] == uid[:-1]
    prev_click = np.zeros(n, dtype=bool)
    prev_click[1:] = is_click[:-1]
    next_click = np.zeros(n, dtype=bool)
    next_click[:-1] = is_click[1:]
    same_next = np.zeros(n, dtype=bool)
    same_next[:-1] = uid[:-1] == uid[1:]
    starts = np.flatnonzero(is_click & ~(prev_click & same_prev))
    ends = np.flatnonzero(is_click & ~(next_click & same_next))
    cw = np.concatenate([[np.int64(0)], np.cumsum(w)])
    n_clicks = cw[ends + 1] - cw[starts]

    # an island is CLOSED when a same-user event follows it; it then
    # either matches (signup flank + purchase closer + window) or dies
    closed = (ends < n - 1)
    closed[closed] &= uid[ends[closed] + 1] == uid[ends[closed]]
    s, e, nc = starts[closed], ends[closed], n_clicks[closed]
    flank = (s > 0)
    flank[flank] &= uid[s[flank] - 1] == uid[s[flank]]
    good = flank.copy()
    good[flank] &= ((code[s[flank] - 1] == 0)
                    & (code[e[flank] + 1] == 2)
                    & (ts[e[flank] + 1] - ts[s[flank] - 1] <= window_us))
    s, e, nc = s[good], e[good], nc[good]
    emitted = pd.DataFrame({
        "user_id": uid[s],
        "start_ts": pd.Series(ts[s - 1]).astype("datetime64[us]"),
        "end_ts": pd.Series(ts[e + 1]).astype("datetime64[us]"),
        "n_clicks": nc.astype("int64"),
    }).sort_values(["user_id", "start_ts", "end_ts"],
                   kind="mergesort").reset_index(drop=True)

    # next registers: per user, the trailing open island (if the last
    # row is a click) or the last row as the prev register
    last_idx = np.flatnonzero(
        np.concatenate([uid[1:] != uid[:-1], [True]]))
    open_i = ~closed  # island whose end is the user's last row
    os_, oe = starts[open_i], ends[open_i]
    on = n_clicks[open_i]
    has_prev = (os_ > 0)
    has_prev[has_prev] &= uid[os_[has_prev] - 1] == uid[os_[has_prev]]
    # a new user whose first processed event is a click has no flank:
    # sentinel code 3 (non-signup) keeps the island alive but unmatchable
    p_code = np.full(len(os_), 3, dtype="int64")
    p_ts = ts[os_].copy()
    p_code[has_prev] = code[os_[has_prev] - 1]
    p_ts[has_prev] = ts[os_[has_prev] - 1]
    st_open = pd.DataFrame({
        "user_id": uid[os_],
        "prev_code": p_code,
        "prev_ts_us": p_ts,
        "island_n": on.astype("int64"),
        "island_ts_us": ts[os_],
    })
    plain = last_idx[~is_click[last_idx]]
    st_plain = pd.DataFrame({
        "user_id": uid[plain],
        "prev_code": code[plain],
        "prev_ts_us": ts[plain],
        "island_n": np.zeros(len(plain), dtype="int64"),
        "island_ts_us": np.full(len(plain), -1, dtype="int64"),
    })
    new_kst = (pd.concat([st_open, st_plain], ignore_index=True)
               .sort_values("user_id", kind="mergesort")
               .reset_index(drop=True))
    return emitted, new_kst


class StreamingCepJob(KeyedStreamJob):
    """Micro-batch streaming Kleene-funnel CEP with watermark-gated
    processing (module docstring has the full semantics)."""

    COUNTERS = ("matches", "late")
    STATE_ORDER = ["side", "user_id", "event_id", "ts_us"]
    FINALIZED_MSG = "streaming CEP job already finalized"

    def __init__(self, input_dir: str, state_dir: str,
                 window_s: int = 21600, allowed_lateness_s: int = 0,
                 num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None):
        super().__init__(input_dir, state_dir, allowed_lateness_s,
                         num_buckets, ray_cycle_threshold)
        self.window_us = window_s * 1_000_000

    # -- state packing ------------------------------------------------
    @staticmethod
    def _unpack(st: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        kst = (st[st["side"] == 0]
               [["user_id", "prev_code", "prev_ts_us", "island_n",
                 "island_ts_us"]].reset_index(drop=True))
        buf = (st[st["side"] == 1]
               [["user_id", "event_id", "ts_us", "code"]]
               .reset_index(drop=True))
        return kst, buf

    @staticmethod
    def _pack_state(kst: pd.DataFrame, buf: pd.DataFrame) -> pd.DataFrame:
        k = kst.assign(side=np.int8(0), event_id=np.int64(-1),
                       ts_us=np.int64(-1), code=np.int64(-1))
        b = buf.assign(side=np.int8(1), prev_code=np.int64(-1),
                       prev_ts_us=np.int64(-1), island_n=np.int64(-1),
                       island_ts_us=np.int64(-1))
        return (pd.concat([k[_STATE_COLS], b[_STATE_COLS]],
                          ignore_index=True)
                .sort_values(["side", "user_id", "event_id", "ts_us"],
                             kind="mergesort")
                .reset_index(drop=True))

    def _empty_state(self) -> pd.DataFrame:
        return self._pack_state(_empty_kst(), _empty_buf())

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return side_counts(snap, buffer_rows=1, state_users=0)

    # -- the kernel ----------------------------------------------------
    @staticmethod
    def _code(etype: np.ndarray) -> np.ndarray:
        code = np.full(len(etype), 3, dtype="int64")
        code[etype == "signup"] = 0
        code[etype == "click"] = 1
        code[etype == "purchase"] = 2
        return code

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        """New events as buffer rows (side 1) of 4 fixed-width columns
        — no text is bucketed."""
        n = len(b)
        return pd.DataFrame({
            "side": np.full(n, 1, dtype=np.int8),
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
            "code": self._code(b["event_type"].to_numpy()),
            "prev_code": np.full(n, -1, dtype="int64"),
            "prev_ts_us": np.full(n, -1, dtype="int64"),
            "island_n": np.full(n, -1, dtype="int64"),
            "island_ts_us": np.full(n, -1, dtype="int64"),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        """Sweep every buffered/new event the watermark made final
        through the NFA registers; the rest stays buffered."""
        kst, buf = self._unpack(st)
        pool = pd.concat([buf, new[["user_id", "event_id", "ts_us", "code"]]],
                         ignore_index=True)
        ready = pool["ts_us"].to_numpy(dtype="int64") < new_wm
        emitted, nkst = _cep_cycle_kernel(kst, pool[ready], self.window_us)
        nxt = self._pack_state(nkst, pool[~ready].reset_index(drop=True))
        return {"emitted": emitted}, nxt, {"matches": len(emitted)}

    def finalize(self) -> int:
        """End-of-stream: sweep the watermark to +inf — every buffered
        event processes, closing islands decide, and trailing open
        islands die exactly as the batch kernel's unflanked islands.
        Idempotent byte-stable overwrite; terminal."""
        def flush(st: pd.DataFrame) -> int:
            kst, buf = self._unpack(st)
            emitted, _ = _cep_cycle_kernel(kst, buf, self.window_us)
            write_parquet_atomic(emitted, self._final_path("emitted"))
            return len(emitted)
        return self._finalize(flush)

    def matches(self) -> pd.DataFrame:
        return self._read_back(
            "emitted", ["user_id", "start_ts", "end_ts"], _empty_emit())
