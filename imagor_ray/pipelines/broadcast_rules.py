"""Broadcast-state (control-stream) enrichment — Flink's broadcast
pattern, the one structured-streaming join topology the engine's other
jobs don't cover: a LOW-VOLUME control stream of global rule updates
(here: ``purchase`` events, value = the current global threshold) is
broadcast to every parallel task, and every probe event (``click``) is
scored against the rule VALID AT ITS EVENT TIME — no key relates a
probe to a rule; the dimension is global. Reference analogue: imagor's
config/watermark side-channel that every worker consults per request
(the watermark-image fetch broadcast into each filter actor,
``vipsprocessor`` watermark cache), recast as an event-time stream.

Semantics: each probe emits ``rule_value`` = the value of the LATEST
rule (any user) with ``(r.ts, r.event_id) <= (p.ts, +inf)`` under the
total order (ts, event_id) — rules at the probe's exact ts apply; among
equal-ts rules the highest event_id wins. NaN when no rule precedes.

Event-time correctness forces PROBE BUFFERING, exactly the
:class:`~imagor_ray.pipelines.temporal_join.TemporalJoinJob`
discipline: a probe emits only once the watermark passes its event
time (every future on-time rule then provably has ``ts >= wm >
p.ts``), which also makes the operator arrival-order-insensitive for
in-horizon out-of-order rules. Rule state is watermark-bounded AND
GLOBAL: in-horizon rules plus ONE latest rule below the watermark —
O(rules-in-horizon), independent of both the stream length and the
key cardinality.

Scale shape — what distinguishes this job from the temporal join: the
rule side is NEVER bucketed. Each cycle extracts the file's
rule rows through a driver-side predicate+column-pushdown read
(bounded by the control stream's volume — the pattern's defining
assumption), and the merged global rule table is built once per cycle
as presorted numpy columns (the broadcast small side) that the
keyed-stream runtime's one scoring-kernel call per cycle uses. Only
probe rows carry a bucket key, ``event_id``: above
``RAY_CYCLE_THRESHOLD`` footer rows the scored probes and late rows
are split by ``event_id % num_buckets`` into DETERMINISTIC per-bucket
files at write time; no state co-location is required at all.

Exactly-once rides the house discipline: per-cycle emission files are
sorted by probe event_id and written BEFORE the single checkpoint
commit; crash replay reruns the cycle against the committed pre-cycle
state and overwrites identical bytes. Late rows (``ts < wm`` at
arrival, any type) route to the late output and never touch state —
a LATE rule beyond the horizon is the documented broadcast-pattern
hazard, surfaced rather than silently applied.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob, side_counts, write_parquet_atomic

__all__ = ["BroadcastRulesJob"]


def _empty_rules() -> pd.DataFrame:
    return pd.DataFrame({
        "ts_us": pd.Series([], dtype="int64"),
        "event_id": pd.Series([], dtype="int64"),
        "value": pd.Series([], dtype="float64"),
    })


def _empty_probes() -> pd.DataFrame:
    return pd.DataFrame({
        "event_id": pd.Series([], dtype="int64"),
        "ts_us": pd.Series([], dtype="int64"),
    })


def _score_arrays(probes: pd.DataFrame, r_ts: np.ndarray,
                  r_val: np.ndarray) -> pd.DataFrame:
    """Vectorized global as-of against a PRESORTED rule table: each
    probe gets the value of the latest rule with ``ts <= p.ts`` under
    (ts, event_id) order (NaN if none). One ``searchsorted`` binary
    probe per batch — ``side='right'`` then ``-1`` lands on the LAST
    rule at-or-before the probe ts, so among equal-ts rules the
    (ts, event_id) presort bakes in the max-event_id tie. O(p log r)
    with no per-call re-sort of the (shared, broadcast) rule side."""
    if not len(probes):
        return pd.DataFrame({
            "event_id": pd.Series([], dtype="int64"),
            "ts": pd.Series([], dtype="datetime64[us]"),
            "rule_value": pd.Series([], dtype="float64"),
        })
    ts = probes["ts_us"].to_numpy(dtype="int64")
    if len(r_ts):
        pos = np.searchsorted(r_ts, ts, side="right") - 1
        val = np.where(pos >= 0, r_val[np.maximum(pos, 0)],
                       np.float64("nan"))
    else:
        val = np.full(len(ts), np.float64("nan"))
    return (pd.DataFrame({
        "event_id": probes["event_id"].to_numpy(dtype="int64"),
        "ts": pd.Series(ts).astype("datetime64[us]"),
        "rule_value": val.astype("float64"),
    }).sort_values("event_id", kind="mergesort").reset_index(drop=True))


def _score(probes: pd.DataFrame, rules: pd.DataFrame) -> pd.DataFrame:
    """Frame-input wrapper of :func:`_score_arrays`: sorts the rule
    side (ts_us, event_id) once and delegates."""
    r = rules.sort_values(["ts_us", "event_id"],
                          kind="mergesort").reset_index(drop=True)
    return _score_arrays(probes,
                         r["ts_us"].to_numpy(dtype="int64"),
                         r["value"].to_numpy(dtype="float64"))


def _evict_rules(rules: pd.DataFrame, wm: int) -> pd.DataFrame:
    """Keep rules with ``ts >= wm`` plus the single latest rule below
    the watermark (every pending/future probe has ``ts >= wm``, so any
    earlier rule is superseded for all of them). Canonical
    (ts_us, event_id) order for byte-stable snapshots."""
    if not len(rules):
        return rules.reset_index(drop=True)
    r = (rules.sort_values(["ts_us", "event_id"], kind="mergesort")
         .reset_index(drop=True))
    ts = r["ts_us"].to_numpy(dtype="int64")
    below = ts < wm
    keep = ~below
    if below.any():
        keep[int(np.flatnonzero(below)[-1])] = True
    return r[keep].reset_index(drop=True)


def _score_kernel(st: pd.DataFrame, new: pd.DataFrame, wm: int,
                  new_wm: int, cycle: int, rules) -> tuple:
    """Cycle kernel: score every pending/new probe the watermark made
    final against the broadcast rule table (a dict of presorted
    arrays); the rest keep waiting."""
    pr = pd.concat([st, new[["event_id", "ts_us"]]], ignore_index=True)
    ready = pr["ts_us"].to_numpy(dtype="int64") < new_wm
    emitted = _score_arrays(pr[ready], rules["ts_us"], rules["value"])
    return ({"emitted": emitted}, pr[~ready].reset_index(drop=True),
            {"emitted": len(emitted)})


class BroadcastRulesJob(KeyedStreamJob):
    """Micro-batch broadcast-rules enrichment with watermark-gated
    probe emission (module docstring has the full semantics)."""

    READ_COLS = ["event_id", "ts", "event_type", "value"]
    # probe files split on event_id purely for deterministic per-bucket
    # files — the rule side is global, no co-location is needed
    KEY = "event_id"
    FINALIZED_MSG = "broadcast-rules job already finalized"

    def __init__(self, input_dir: str, state_dir: str,
                 rule_type: str = "purchase", probe_type: str = "click",
                 allowed_lateness_s: int = 0, num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None):
        super().__init__(input_dir, state_dir, allowed_lateness_s,
                         num_buckets, ray_cycle_threshold)
        self.rule_type = rule_type
        self.probe_type = probe_type

    @staticmethod
    def _unpack(st: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        rules = (st[st["side"] == 0]
                 [["ts_us", "event_id", "value"]].reset_index(drop=True))
        prb = (st[st["side"] == 1]
               [["event_id", "ts_us"]].reset_index(drop=True))
        return rules, prb

    @staticmethod
    def _pack_state(rules: pd.DataFrame, prb: pd.DataFrame
                    ) -> pd.DataFrame:
        rules = rules.assign(side=np.int8(0))
        prb = prb.assign(value=np.float64("nan"), side=np.int8(1))
        cols = ["ts_us", "event_id", "value", "side"]
        return (pd.concat([rules[cols], prb[cols]], ignore_index=True)
                .sort_values(["side", "ts_us", "event_id"],
                             kind="mergesort")
                .reset_index(drop=True))

    def _empty_state(self) -> pd.DataFrame:
        return self._pack_state(_empty_rules(), _empty_probes())

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return side_counts(snap, pending_probes=1, rule_rows=0)

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        """Late rows of any type plus on-time probes; on-time rules
        are never bucketed."""
        us = ts_us(b["ts"])
        keep = (us < wm) | (b["event_type"].to_numpy() == self.probe_type)
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(dtype="int64")[keep],
            "ts_us": us[keep],
        })

    def _execute(self, inputs: list, wm: int, new_wm: int, cycle: int,
                 st: pd.DataFrame, kernel=None):
        """The broadcast cycle body: rule rows come from a
        predicate+column-pushdown read — the control stream is small
        by the pattern's own assumption (if the "rules" were
        stream-sized, broadcast state is the wrong operator), and
        row-group/type pushdown keeps it bounded even when the cycle
        file is huge. The merged rule table is built once per cycle
        and only the probes run through the runtime's one kernel
        pass and its file layouts."""
        import pyarrow.parquet as pq

        (path, _, _), = inputs
        rules, prb = self._unpack(st)
        rtbl = pq.read_table(path, columns=["event_id", "ts", "value"],
                             filters=[("event_type", "==", self.rule_type)])
        r_us = (rtbl["ts"].to_pandas().astype("datetime64[us]")
                .astype("int64").to_numpy())
        on = r_us >= wm
        new_rules = pd.DataFrame({
            "ts_us": r_us[on],
            "event_id": rtbl["event_id"].to_numpy()[on].astype("int64"),
            "value": rtbl["value"].to_numpy()[on].astype("float64"),
        })
        all_rules = (pd.concat([rules, new_rules], ignore_index=True)
                     .sort_values(["ts_us", "event_id"], kind="mergesort")
                     .reset_index(drop=True))
        # (ts_us, event_id)-sorted: the tie-break is baked in
        table = {
            "ts_us": np.ascontiguousarray(
                all_rules["ts_us"].to_numpy(dtype="int64")),
            "value": np.ascontiguousarray(
                all_rules["value"].to_numpy(dtype="float64")),
        }
        nxt_prb, counts = super()._execute(
            inputs, wm, new_wm, cycle, prb,
            functools.partial(_score_kernel, rules=table))
        return (self._pack_state(_evict_rules(all_rules, new_wm), nxt_prb),
                counts)

    def finalize(self) -> int:
        """End-of-stream: score every still-buffered probe against the
        full committed rule state (no future rule can arrive).
        Idempotent byte-stable overwrite; terminal."""
        def flush(st: pd.DataFrame) -> int:
            emitted = _score(*self._unpack(st)[::-1])
            write_parquet_atomic(emitted, self._final_path("emitted"))
            return len(emitted)
        return self._finalize(flush)

    def emitted(self) -> pd.DataFrame:
        return self._read_back("emitted", ["event_id"],
                               _score(_empty_probes(), _empty_rules()))
