"""Streaming deduplication within the watermark horizon — the
structured-streaming dedup operator (Spark's
``dropDuplicatesWithinWatermark``): emit the FIRST occurrence of every
key exactly once across micro-batch cycles, holding only
watermark-bounded key state.

The dedup key here is ``(user_id, event_type, event-day)`` — a
SELF-BOUNDING key: two occurrences of one key are by construction less
than a day apart, so a key whose day has passed the watermark
(``day_start + 1 day <= wm``) can never recur on-time and its state row
evicts. That's the contract that makes bounded-state streaming dedup
EXACT (the general operator is exact only when key recurrences fit the
horizon — Spark documents the same caveat); state is O(distinct keys
within one day+lateness of the watermark), never the stream.

Per cycle: late rows (``ts < wm`` at arrival) route to the late output
(the house contract); on-time rows sort by ``(ts, event_id)``, keep the
first occurrence per key within the cycle, then anti-join against the
state keys — survivors are the cycle's emissions, written SORTED by
``event_id`` to a per-cycle parquet BEFORE the single checkpoint commit
(crash replay reruns the cycle against the committed pre-cycle state
and overwrites identical bytes — exactly-once by the house discipline).

With event-time-partitioned day files every key lives inside one or two
adjacent cycles (a day key never splits across day files; the state
carry matters when lateness lets arrival days lag event days), and the
emitted set equals the batch ``row_number() OVER (PARTITION BY key
ORDER BY ts, event_id) = 1`` — the DuckDB oracle.

Scale shape: ONE kernel call per cycle by the keyed-stream runtime
over tagged new rows ∪ state rows, whose emissions it writes as one
file per cycle. Eviction runs on the next state.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob

__all__ = ["StreamingDedupJob"]

_DAY_US = 86_400 * 1_000_000

_EMIT_COLS = ["event_id", "user_id", "event_type", "ts"]


def _empty_state() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "event_type": pd.Series([], dtype=object),
        "day_us": pd.Series([], dtype="int64"),
    })


def _dedup_cycle_kernel(st: pd.DataFrame, new: pd.DataFrame
                        ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """One cycle's dedup kernel over on-time rows: returns
    ``(emitted rows, next state keys)``. ``new`` columns:
    event_id, user_id, event_type, ts_us."""
    if not len(new):
        return (pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "event_type": pd.Series([], dtype=object),
            "ts": pd.Series([], dtype="datetime64[us]"),
        }), st.copy())
    new = new.sort_values(["ts_us", "event_id"],
                          kind="mergesort").reset_index(drop=True)
    new = new.assign(day_us=(new["ts_us"].to_numpy(dtype="int64")
                             // _DAY_US) * _DAY_US)
    key = ["user_id", "event_type", "day_us"]
    first = new.drop_duplicates(subset=key, keep="first")
    # anti-join against the state keys (all three columns join keys —
    # no NaN upcast on the int64 columns)
    m = first.merge(st.assign(_hit=np.int8(1)), on=key, how="left")
    emit = m[m["_hit"].isna()]
    emitted = pd.DataFrame({
        "event_id": emit["event_id"].to_numpy(dtype="int64"),
        "user_id": emit["user_id"].to_numpy(dtype="int64"),
        "event_type": emit["event_type"].to_numpy(),
        "ts": pd.Series(emit["ts_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
    }).sort_values("event_id", kind="mergesort").reset_index(drop=True)
    nxt = (pd.concat([st, emit[key]], ignore_index=True)
           .sort_values(key, kind="mergesort").reset_index(drop=True))
    return emitted, nxt


class StreamingDedupJob(KeyedStreamJob):
    """Micro-batch streaming dedup with watermark-bounded key state
    (module docstring has the full semantics)."""

    COUNTERS = ("emitted", "dups", "late")
    STATE_ORDER = ["user_id", "event_type", "day_us"]

    def _empty_state(self) -> pd.DataFrame:
        return _empty_state()

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "event_type": b["event_type"].to_numpy(),
            "ts_us": ts_us(b["ts"]),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        emitted, nxt = _dedup_cycle_kernel(
            st, new[["event_id", "user_id", "event_type", "ts_us"]])
        return ({"emitted": emitted}, nxt,
                {"emitted": len(emitted), "dups": len(new) - len(emitted)})

    def _post_gather(self, state: dict, nxt: pd.DataFrame, new_wm: int,
                     cycle: int) -> tuple[pd.DataFrame, dict]:
        # a key whose day has passed the watermark can never recur
        # on-time (its occurrences all live inside [day, day+1d), and
        # every future on-time event has ts >= wm) — evict
        keep = nxt["day_us"].to_numpy(dtype="int64") + _DAY_US > new_wm
        return self._canon(nxt[keep]), {}

    def emitted(self) -> pd.DataFrame:
        return self._read_back("emitted", ["event_id"], pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "event_type": pd.Series([], dtype=object),
            "ts": pd.Series([], dtype="datetime64[us]"),
        }))
