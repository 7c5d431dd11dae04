"""Broadcast-state (control-stream) enrichment: global as-of
correctness across cycle and arrival-order boundaries, watermark-gated
probe emission, global rule eviction, engine equality and crash-replay
byte identity. Oracle value parity of the full staged run lives in
test_oracle_parity."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pytest

HOUR = 3600 * 1_000_000


def _stage(tmp_path, batches):
    d = tmp_path / "in"
    d.mkdir(parents=True, exist_ok=True)
    for i, rows in enumerate(batches):
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type", "value"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        df.to_parquet(d / f"batch-{i:03d}.parquet", index=False)
    return str(d)


def _job(tmp_path, inp, name, **kw):
    from imagor_ray.pipelines.broadcast_rules import BroadcastRulesJob
    return BroadcastRulesJob(inp, str(tmp_path / name), **kw)


def _sha(job) -> str:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.emitted_dir)):
        with open(os.path.join(job.emitted_dir, f), "rb") as fh:
            h.update(f.encode())
            h.update(fh.read())
    return h.hexdigest()


class TestBroadcastRules:
    def test_rule_is_global_not_keyed(self, ray_session, tmp_path):
        # user 1's rule scores user 2's click — no key relates them
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 1, "purchase", 10.0)],
            [(2, 5 * HOUR, 2, "click", 0.0),
             (3, 6 * HOUR, 3, "purchase", 20.0)],
            [(4, 9 * HOUR, 4, "click", 0.0)],
        ])
        job = _job(tmp_path, inp, "b1")
        job.run_all()
        job.finalize()
        got = {int(r.event_id): float(r.rule_value)
               for r in job.emitted().itertuples()}
        assert got == {2: 10.0, 4: 20.0}

    def test_probe_waits_for_watermark(self, ray_session, tmp_path):
        # the click IS the cycle max: wm == its ts, so it cannot emit
        # this cycle (a same-ts or earlier future rule could exist)
        inp = _stage(tmp_path, [
            [(1, 5 * HOUR, 7, "click", 0.0)],
            [(2, 9 * HOUR, 8, "purchase", 42.0)],
        ])
        job = _job(tmp_path, inp, "b2")
        r0 = job.run_cycle()
        assert (r0["emitted"], r0["pending_probes"]) == (0, 1)
        r1 = job.run_cycle()
        assert (r1["emitted"], r1["pending_probes"]) == (1, 0)
        # the rule postdates the probe: no rule value
        assert np.isnan(float(job.emitted()["rule_value"].iloc[0]))

    def test_same_ts_rule_applies_and_max_event_id_wins(
            self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 5 * HOUR, 1, "purchase", 1.0),
             (3, 5 * HOUR, 2, "purchase", 3.0),
             (2, 5 * HOUR, 3, "click", 0.0)],
            [(9, 99 * HOUR, 4, "view", 0.0)],
        ])
        job = _job(tmp_path, inp, "b3")
        job.run_all()
        job.finalize()
        assert float(job.emitted()["rule_value"].iloc[0]) == 3.0

    def test_outoforder_rule_lands_before_probe_emits(
            self, ray_session, tmp_path):
        # an in-horizon rule with EARLIER event time than a buffered
        # probe arrives later — the probe must still see it
        inp = _stage(tmp_path, [
            [(1, 10 * HOUR, 7, "click", 0.0)],
            [(2, 9 * HOUR, 5, "purchase", 7.5),    # predates the click
             (3, 11 * HOUR, 8, "view", 0.0)],
            [(4, 60 * HOUR, 8, "view", 0.0)],      # advances wm
        ])
        job = _job(tmp_path, inp, "b4", allowed_lateness_s=2 * 3600)
        t = job.run_all()
        assert t["late"] == 0
        assert float(job.emitted()["rule_value"].iloc[0]) == 7.5

    def test_rule_eviction_keeps_single_latest_below_wm(
            self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 1, "purchase", 1.0),
             (2, 2 * HOUR, 2, "purchase", 2.0),
             (3, 3 * HOUR, 3, "purchase", 3.0)],
            [(4, 100 * HOUR, 8, "view", 0.0)],     # wm passes all three
            [(5, 101 * HOUR, 7, "click", 0.0)],    # must still see 3.0
        ])
        job = _job(tmp_path, inp, "b5")
        job.run_cycle()
        r1 = job.run_cycle()
        assert r1["rule_rows"] == 1                # superseded evicted
        job.run_cycle()
        job.finalize()
        assert float(job.emitted()["rule_value"].iloc[0]) == 3.0

    def test_late_row_routes_and_never_touches_state(self, ray_session,
                                                     tmp_path):
        inp = _stage(tmp_path, [
            [(1, 50 * HOUR, 1, "purchase", 5.0)],
            [(2, 10 * HOUR, 2, "purchase", 99.0),  # late: wm is 50h
             (3, 60 * HOUR, 3, "click", 0.0)],
            [(4, 99 * HOUR, 4, "view", 0.0)],
        ])
        job = _job(tmp_path, inp, "b6")
        job.run_cycle()
        r1 = job.run_cycle()
        assert r1["late"] == 1
        job.run_cycle()
        job.finalize()
        # the late 99.0 rule must NOT have entered state
        assert float(job.emitted()["rule_value"].iloc[0]) == 5.0
        late = pd.concat(
            [pd.read_parquet(os.path.join(job.late_dir, f))
             for f in sorted(os.listdir(job.late_dir))],
            ignore_index=True)
        assert late["event_id"].tolist() == [2]

    def test_replay_after_crashed_commit_same_bytes(self, ray_session,
                                                    tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "purchase", 3.0),
             (2, 2 * HOUR, 7, "click", 0.0)],
            [(3, 9 * HOUR, 7, "click", 0.0),
             (4, 10 * HOUR, 8, "purchase", 4.0)],
        ])
        job = _job(tmp_path, inp, "b7")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = _job(tmp_path, inp, "b7")
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_matches_batch_asof_random(self, ray_session, tmp_path):
        # full-run equality vs the batch global as-of on random data
        rng = np.random.RandomState(37)
        batches, rows_all, eid = [], [], 0
        for c in range(5):
            rows = []
            for _ in range(40):
                r = (eid, c * 24 * HOUR + int(
                    rng.randint(0, 24) * HOUR) + eid,
                    int(rng.randint(0, 4)),
                    str(rng.choice(["click", "purchase", "view"])),
                    float(rng.randint(0, 50)))
                rows.append(r)
                rows_all.append(r)
                eid += 1
            batches.append(rows)
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "b8")
        job.run_all()
        job.finalize()
        got = job.emitted()
        df = pd.DataFrame(rows_all, columns=["event_id", "ts_us",
                                             "user_id", "event_type",
                                             "value"])
        rules = (df[df["event_type"] == "purchase"]
                 .sort_values(["ts_us", "event_id"], kind="mergesort"))
        want_rows = []
        for p in df[df["event_type"] == "click"].itertuples():
            prior = rules[rules["ts_us"] <= p.ts_us]
            want_rows.append((p.event_id,
                              float(prior["value"].iloc[-1])
                              if len(prior) else float("nan")))
        want = pd.DataFrame(want_rows, columns=["event_id", "rule_value"]
                            ).sort_values("event_id").reset_index(drop=True)
        assert got["event_id"].tolist() == want["event_id"].tolist()
        np.testing.assert_array_equal(
            got["rule_value"].to_numpy(), want["rule_value"].to_numpy())

    def test_finalize_is_terminal(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [[(1, 1 * HOUR, 7, "click", 0.0)]])
        job = _job(tmp_path, inp, "b9")
        job.run_all()
        job.finalize()
        (tmp_path / "in" / "batch-999.parquet").write_bytes(b"")
        with pytest.raises(RuntimeError, match="finalized"):
            job.run_cycle()
