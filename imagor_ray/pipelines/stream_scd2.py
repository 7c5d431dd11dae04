"""Streaming SCD type-2 changelog — the continuous form of
``grouped_extras.scd2_dimension``: micro-batch cycles maintain each
user's OPEN dimension version (tracked attribute = event_type) and emit
a retraction-aware changelog of version rows as attribute changes
become watermark-final.

Op grammar (the warehouse SCD2 maintenance protocol): a user's first
event opens version 1 (``+1`` open row, ``valid_to_us = -1``); each
attribute CHANGE at instant ``t`` emits THREE ops — ``-1`` retracting
the previous open row, ``+1`` inserting it closed (``valid_to_us = t``)
and ``+1`` opening the next version at ``t``. Folding the ops (net +1
rows) reproduces the batch dimension exactly.

Exactness rests on watermark-GATED processing (the StreamingCepJob
discipline): an event enters the version kernel only once ``ts < wm``
— version boundaries are order-sensitive, so buffered rows never
process early; carried register timestamps are strictly below every
ready row's ts (processed means ``ts < wm`` at an earlier watermark),
so a register re-enters the run scan as the user's first row without
tie games. Because the kernel is incremental and exact, the emitted op
STREAM is a pure function of each user's global ``(ts, event_id)``
order — cycle boundaries (and bounded out-of-order arrival under a
lateness horizon) never change it, which is what the
``scd2_changelog_outoforder`` entry certifies against the SAME oracle.

State per user is ONE register row (version, attr, valid_from) plus
the watermark buffer — aggregate-domain-sized, never stream-sized.
Late rows (``ts < wm`` at arrival) route to the late output and never
touch state. Per-cycle op files commit BEFORE the single checkpoint
save (crash replay overwrites identical bytes); snapshots are
bucket-agnostic (the rescaling guarantee).

Scale shape: ONE kernel call per cycle by the keyed-stream runtime
over (registers ∪ buffer ∪ new); above ``RAY_CYCLE_THRESHOLD`` footer
rows the op and late rows are split into per-user-bucket files at
write time (ops are user-keyed, so a user's versions share one file).

Reference semantics: the result-storage freshness/overwrite contract
(``imagor.go:605-652``) generalized to versioned dimension rows;
SURVEY §2.6 window/changelog family.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob, side_counts, write_parquet_atomic

__all__ = ["StreamingScd2Job"]

_STATE_COLS = ["side", "user_id", "version", "attr", "valid_from_us",
               "event_id", "ts_us"]

_OPS_COLS = ["user_id", "op", "version", "attr", "valid_from_us",
             "valid_to_us", "change_ts_us"]


def _empty_reg() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "version": pd.Series([], dtype="int64"),
        "attr": pd.Series([], dtype=object),
        "valid_from_us": pd.Series([], dtype="int64"),
    })


def _empty_buf() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "event_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
        "attr": pd.Series([], dtype=object),
    })


def _empty_ops() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "op": pd.Series([], dtype="int64"),
        "version": pd.Series([], dtype="int64"),
        "attr": pd.Series([], dtype=object),
        "valid_from_us": pd.Series([], dtype="int64"),
        "valid_to_us": pd.Series([], dtype="int64"),
        "change_ts_us": pd.Series([], dtype="int64"),
    })


def _scd2_cycle_kernel(reg: pd.DataFrame, ready: pd.DataFrame
                       ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """One watermark sweep: fold ``ready`` (columns user_id, event_id,
    ts_us, attr — all provably final) into the per-user registers.
    Returns ``(ops, next registers)``.

    Registers re-enter the run scan as synthetic first rows
    (event_id -1, ts = the open version's valid_from, strictly below
    every ready ts); the island split is ONE vectorized boundary diff
    — no per-user loop."""
    if not len(ready):
        return _empty_ops(), reg.reset_index(drop=True)

    parts = []
    if len(reg):
        parts.append(pd.DataFrame({
            "user_id": reg["user_id"].to_numpy(dtype="int64"),
            "event_id": np.full(len(reg), -1, dtype="int64"),
            "ts_us": reg["valid_from_us"].to_numpy(dtype="int64"),
            "attr": reg["attr"].to_numpy(),
            "_v0": reg["version"].to_numpy(dtype="int64"),
        }))
    parts.append(ready.assign(_v0=np.int64(0)))
    rows = (pd.concat(parts, ignore_index=True)
            .sort_values(["user_id", "ts_us", "event_id"],
                         kind="mergesort").reset_index(drop=True))
    u = rows["user_id"].to_numpy(dtype="int64")
    t = rows["ts_us"].to_numpy(dtype="int64")
    a = rows["attr"].to_numpy()
    v0 = rows["_v0"].to_numpy(dtype="int64")
    n = len(rows)

    new_user = np.ones(n, dtype=bool)
    if n > 1:
        new_user[1:] = u[1:] != u[:-1]
    new_run = new_user.copy()
    if n > 1:
        new_run[1:] |= a[1:] != a[:-1]
    starts = np.flatnonzero(new_run)
    ru = u[starts]
    first_of_user = np.ones(len(starts), dtype=bool)
    if len(starts) > 1:
        first_of_user[1:] = ru[1:] != ru[:-1]
    # base version: the register's version for stateful users (the
    # register row is its user's first run — its ts is strictly below
    # every ready ts), 1 for brand-new users. Broadcast down each
    # user via the index gather (indices ARE monotone; the version
    # values are not, so accumulating them directly would leak a
    # larger version across user boundaries)
    fidx = np.maximum.accumulate(
        np.where(first_of_user, np.arange(len(starts)), 0))
    base = np.where(v0[starts] > 0, v0[starts], 1)[fidx]
    version = base + (np.arange(len(starts)) - fidx)
    vfrom = t[starts]
    attr = a[starts]
    is_reg_run = first_of_user & (v0[starts] > 0)

    # ops: run 1 of a brand-new user opens; run i>=2 retracts + closes
    # run i-1 and opens run i (prev-run info via one shift)
    prev_ok = ~first_of_user
    open_new = ~is_reg_run            # every non-register run opens
    op_frames = []
    if open_new.any():
        op_frames.append(pd.DataFrame({
            "user_id": ru[open_new],
            "op": np.ones(int(open_new.sum()), dtype="int64"),
            "version": version[open_new],
            "attr": attr[open_new],
            "valid_from_us": vfrom[open_new],
            "valid_to_us": np.full(int(open_new.sum()), -1, dtype="int64"),
            "change_ts_us": vfrom[open_new],
        }))
    if prev_ok.any():
        idx = np.flatnonzero(prev_ok)
        pv, pa, pf = version[idx - 1], attr[idx - 1], vfrom[idx - 1]
        ct = vfrom[idx]
        op_frames.append(pd.DataFrame({
            "user_id": ru[idx], "op": np.full(len(idx), -1, dtype="int64"),
            "version": pv, "attr": pa, "valid_from_us": pf,
            "valid_to_us": np.full(len(idx), -1, dtype="int64"),
            "change_ts_us": ct,
        }))
        op_frames.append(pd.DataFrame({
            "user_id": ru[idx], "op": np.ones(len(idx), dtype="int64"),
            "version": pv, "attr": pa, "valid_from_us": pf,
            "valid_to_us": ct, "change_ts_us": ct,
        }))
    ops = (pd.concat(op_frames, ignore_index=True)[_OPS_COLS]
           if op_frames else _empty_ops())
    ops = ops.sort_values(
        ["user_id", "change_ts_us", "version", "op"],
        kind="mergesort").reset_index(drop=True)

    # next registers: each user's LAST run
    last_run = np.ones(len(starts), dtype=bool)
    if len(starts) > 1:
        last_run[:-1] = ru[:-1] != ru[1:]
    new_reg = pd.DataFrame({
        "user_id": ru[last_run],
        "version": version[last_run],
        "attr": attr[last_run],
        "valid_from_us": vfrom[last_run],
    }).sort_values("user_id", kind="mergesort").reset_index(drop=True)
    return ops, new_reg


class StreamingScd2Job(KeyedStreamJob):
    """Micro-batch streaming SCD2 changelog with watermark-gated
    processing (module docstring has the full semantics)."""

    OUTPUTS = ("ops",)
    COUNTERS = ("ops", "late")
    STATE_ORDER = ["side", "user_id", "event_id", "ts_us"]
    FINALIZED_MSG = "streaming SCD2 job already finalized"

    # -- state packing ------------------------------------------------
    @staticmethod
    def _unpack(st: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        reg = (st[st["side"] == 0]
               [["user_id", "version", "attr", "valid_from_us"]]
               .reset_index(drop=True))
        buf = (st[st["side"] == 1]
               [["user_id", "event_id", "ts_us", "attr"]]
               .reset_index(drop=True))
        return reg, buf

    @staticmethod
    def _pack_state(reg: pd.DataFrame, buf: pd.DataFrame) -> pd.DataFrame:
        r = reg.assign(side=np.int8(0), event_id=np.int64(-1),
                       ts_us=np.int64(-1))
        b = buf.assign(side=np.int8(1), version=np.int64(-1),
                       valid_from_us=np.int64(-1))
        return (pd.concat([r[_STATE_COLS], b[_STATE_COLS]],
                          ignore_index=True)
                .sort_values(["side", "user_id", "event_id", "ts_us"],
                             kind="mergesort")
                .reset_index(drop=True))

    def _empty_state(self) -> pd.DataFrame:
        return self._pack_state(_empty_reg(), _empty_buf())

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return side_counts(snap, buffer_rows=1, state_users=0)

    # -- the kernel ----------------------------------------------------
    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        """New events as buffer rows (side 1); attr = event_type."""
        n = len(b)
        return pd.DataFrame({
            "side": np.full(n, 1, dtype=np.int8),
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "version": np.full(n, -1, dtype="int64"),
            "attr": b["event_type"].to_numpy(),
            "valid_from_us": np.full(n, -1, dtype="int64"),
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        """Fold every buffered/new event the watermark made final into
        the registers; the rest stays buffered."""
        reg, buf = self._unpack(st)
        pool = pd.concat([buf, new[["user_id", "event_id", "ts_us", "attr"]]],
                         ignore_index=True)
        ready = pool["ts_us"].to_numpy(dtype="int64") < new_wm
        ops, nreg = _scd2_cycle_kernel(reg, pool[ready])
        nxt = self._pack_state(nreg, pool[~ready].reset_index(drop=True))
        return {"ops": ops}, nxt, {"ops": len(ops)}

    def finalize(self) -> int:
        """End-of-stream: sweep the watermark to +inf — every buffered
        event folds through the kernel; open versions stay open (their
        +1 rows were emitted when they opened). Idempotent byte-stable
        overwrite; terminal."""
        def flush(st: pd.DataFrame) -> int:
            ops, _ = _scd2_cycle_kernel(*self._unpack(st))
            write_parquet_atomic(ops, self._final_path("ops"))
            return len(ops)
        return self._finalize(flush)

    def ops(self) -> pd.DataFrame:
        return self._read_back(
            "ops", ["user_id", "change_ts_us", "version", "op"],
            _empty_ops())
    def folded(self) -> pd.DataFrame:
        """Net dimension table (rows whose ops sum to +1) — equals the
        batch ``scd2_dimension`` minus its n_events column."""
        ops = self.ops()
        if not len(ops):
            return _empty_ops().drop(columns=["op", "change_ts_us"])
        key = ["user_id", "version", "attr", "valid_from_us",
               "valid_to_us"]
        net = ops.groupby(key, sort=False)["op"].sum().reset_index()
        out = (net[net["op"] > 0].drop(columns=["op"])
               .sort_values(["user_id", "version"], kind="mergesort")
               .reset_index(drop=True))
        return out
