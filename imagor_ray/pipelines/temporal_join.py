"""Temporal (versioned-dimension) stream enrichment — Flink's temporal
table join: probe events are enriched with the dimension VERSION VALID
AT THEIR EVENT TIME, while dimension updates arrive interleaved on the
same stream. Here the dimension is each user's latest ``purchase``
value and the probes are ``click`` events: every click gets the value
of the user's latest purchase with ``p.ts <= c.ts`` (NaN if none yet) —
the batch as-of join, produced incrementally.

Event-time correctness forces PROBE BUFFERING: a click cannot emit
until the watermark passes its event time (a future on-time purchase
has ``ts >= wm``, so only ``wm > c.ts`` proves every version with
``p.ts <= c.ts`` has arrived). Probes therefore wait at most one
cycle + lateness; ``finalize()`` flushes the tail for bounded runs.
That buffering is what makes the join arrival-order-insensitive for
free: an out-of-order in-horizon version lands in state before any
probe it could affect emits.

Version state is watermark-bounded per user: versions with
``ts >= wm`` plus ONE latest version below the watermark (any earlier
version is superseded for every future or pending probe, which all
have ``ts >= wm``) — O(users + in-horizon updates), never the stream.

Exactly-once rides the house discipline: per-cycle emission files are
sorted by probe event_id and written BEFORE the single checkpoint
commit; crash replay reruns the cycle against the committed pre-cycle
state and overwrites identical bytes.

Scale shape: ONE as-of kernel (``pd.merge_asof`` by user over the
ts-sorted frames), called once per cycle by the keyed-stream runtime,
which writes the cycle's emissions as one file.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob, side_counts, write_parquet_atomic

__all__ = ["TemporalJoinJob"]


def _empty_versions() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
        "event_id": pd.Series([], dtype="int64"),
        "value": pd.Series([], dtype="float64"),
    })


def _empty_probes() -> pd.DataFrame:
    return pd.DataFrame({
        "event_id": pd.Series([], dtype="int64"),
        "user_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
    })


def _asof_emit(probes: pd.DataFrame, versions: pd.DataFrame
               ) -> pd.DataFrame:
    """Vectorized as-of enrichment: each probe row gets the value of
    the latest version of the SAME user with ``v.ts <= p.ts`` (NaN if
    none). ``merge_asof`` backward over the ts-sorted frames — one
    global merge, no per-user loop."""
    if not len(probes):
        return pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "ts": pd.Series([], dtype="datetime64[us]"),
            "asof_value": pd.Series([], dtype="float64"),
        })
    p = probes.sort_values(["ts_us", "event_id"],
                           kind="mergesort").reset_index(drop=True)
    if len(versions):
        v = (versions.sort_values(["ts_us", "event_id"], kind="mergesort")
             [["user_id", "ts_us", "value"]].reset_index(drop=True))
        joined = pd.merge_asof(p, v, on="ts_us", by="user_id",
                               direction="backward")
    else:
        joined = p.assign(value=np.float64("nan"))
    return (pd.DataFrame({
        "event_id": joined["event_id"].to_numpy(dtype="int64"),
        "user_id": joined["user_id"].to_numpy(dtype="int64"),
        "ts": pd.Series(joined["ts_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "asof_value": joined["value"].to_numpy(dtype="float64"),
    }).sort_values("event_id", kind="mergesort").reset_index(drop=True))


def _evict_versions(versions: pd.DataFrame, wm: int) -> pd.DataFrame:
    """Keep versions with ``ts >= wm`` plus each user's single latest
    version below the watermark (sufficient for every pending/future
    probe — they all carry ``ts >= wm``)."""
    if not len(versions):
        return versions.reset_index(drop=True)
    v = (versions.sort_values(["user_id", "ts_us", "event_id"],
                              kind="mergesort").reset_index(drop=True))
    ts = v["ts_us"].to_numpy(dtype="int64")
    uid = v["user_id"].to_numpy(dtype="int64")
    below = ts < wm
    # last below-wm row per user: a below row whose successor is a
    # different user or not below
    last_below = below.copy()
    last_below[:-1] &= (uid[:-1] != uid[1:]) | ~below[1:]
    keep = ~below | last_below
    return v[keep].reset_index(drop=True)


class TemporalJoinJob(KeyedStreamJob):
    """Micro-batch temporal table join with watermark-gated probe
    emission (module docstring has the full semantics)."""

    READ_COLS = ["event_id", "ts", "user_id", "event_type", "value"]
    STATE_ORDER = ["side", "user_id", "ts_us", "event_id"]
    FINALIZED_MSG = "temporal join already finalized"

    def __init__(self, input_dir: str, state_dir: str,
                 version_type: str = "purchase",
                 probe_type: str = "click",
                 allowed_lateness_s: int = 0):
        super().__init__(input_dir, state_dir, allowed_lateness_s)
        self.version_type = version_type
        self.probe_type = probe_type

    @staticmethod
    def _unpack(st: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        ver = (st[st["side"] == 0]
               [["user_id", "ts_us", "event_id", "value"]]
               .reset_index(drop=True))
        prb = (st[st["side"] == 1]
               [["event_id", "user_id", "ts_us"]].reset_index(drop=True))
        return ver, prb

    @staticmethod
    def _pack_state(ver: pd.DataFrame, prb: pd.DataFrame) -> pd.DataFrame:
        ver = ver.assign(side=np.int8(0))
        prb = prb.assign(value=np.float64("nan"), side=np.int8(1))
        cols = ["user_id", "ts_us", "event_id", "value", "side"]
        return (pd.concat([ver[cols], prb[cols]], ignore_index=True)
                .sort_values(["side", "user_id", "ts_us", "event_id"],
                             kind="mergesort")
                .reset_index(drop=True))

    def _empty_state(self) -> pd.DataFrame:
        return self._pack_state(_empty_versions(), _empty_probes())

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return side_counts(snap, pending_probes=1, version_rows=0)

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        """side 0 = version, 1 = probe, 2 = any other type (kept for
        the late output only)."""
        t = b["event_type"].to_numpy()
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "value": b["value"].to_numpy(dtype="float64"),
            "side": np.where(t == self.version_type, 0,
                             np.where(t == self.probe_type, 1, 2))
            .astype(np.int8),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        """As-of enrich every probe the watermark made final; versions
        evict to the watermark horizon, the rest of the probes wait."""
        ver, prb = self._unpack(st)
        side = new["side"].to_numpy()
        all_ver = pd.concat(
            [ver, new[side == 0][["user_id", "ts_us", "event_id", "value"]]],
            ignore_index=True)
        all_prb = pd.concat(
            [prb, new[side == 1][["event_id", "user_id", "ts_us"]]],
            ignore_index=True)
        ready = all_prb["ts_us"].to_numpy(dtype="int64") < new_wm
        emitted = _asof_emit(all_prb[ready], all_ver)
        nxt = self._pack_state(_evict_versions(all_ver, new_wm),
                               all_prb[~ready].reset_index(drop=True))
        return {"emitted": emitted}, nxt, {"emitted": len(emitted)}

    def finalize(self) -> int:
        """End-of-stream: emit every still-buffered probe against the
        full committed version state (no future version can arrive).
        Idempotent byte-stable overwrite; terminal."""
        def flush(st: pd.DataFrame) -> int:
            ver, prb = self._unpack(st)
            emitted = _asof_emit(prb, ver)
            write_parquet_atomic(emitted, self._final_path("emitted"))
            return len(emitted)
        return self._finalize(flush)

    def emitted(self) -> pd.DataFrame:
        return self._read_back(
            "emitted", ["event_id"],
            _asof_emit(_empty_probes(), _empty_versions()))
