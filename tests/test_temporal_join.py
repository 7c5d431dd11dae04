"""Temporal (versioned-dimension) join: watermark-gated probe
emission, as-of correctness across cycle and arrival-order boundaries,
version-state eviction, engine equality and crash-replay byte
identity. Oracle value parity of the full staged run lives in
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
    from imagor_ray.pipelines.temporal_join import TemporalJoinJob
    return TemporalJoinJob(inp, str(tmp_path / name), **kw)


def _sha(job) -> str:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.emitted_dir)):
        with open(os.path.join(job.emitted_dir, f), "rb") as fh:
            h.update(f.encode())
            h.update(fh.read())
    return h.hexdigest()


class TestTemporalJoin:
    def test_asof_across_cycle_boundary(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "purchase", 10.0)],
            [(2, 5 * HOUR, 7, "click", 0.0),       # sees v=10
             (3, 6 * HOUR, 7, "purchase", 20.0)],
            [(4, 9 * HOUR, 7, "click", 0.0)],      # sees v=20
        ])
        job = _job(tmp_path, inp, "t1")
        job.run_all()
        job.finalize()
        out = job.emitted()
        got = {int(r.event_id): float(r.asof_value)
               for r in out.itertuples()}
        assert got == {2: 10.0, 4: 20.0}

    def test_probe_waits_for_watermark(self, ray_session, tmp_path):
        # the click IS the cycle max: wm == its ts, so it cannot emit
        # this cycle (a same-ts or earlier future version could exist)
        inp = _stage(tmp_path, [
            [(1, 5 * HOUR, 7, "click", 0.0)],
            [(2, 9 * HOUR, 7, "purchase", 42.0)],
        ])
        job = _job(tmp_path, inp, "t2")
        r0 = job.run_cycle()
        assert (r0["emitted"], r0["pending_probes"]) == (0, 1)
        r1 = job.run_cycle()
        assert (r1["emitted"], r1["pending_probes"]) == (1, 0)
        out = job.emitted()
        # the purchase postdates the click: click sees NO version
        assert np.isnan(float(out["asof_value"].iloc[0]))

    def test_outoforder_version_lands_before_probe_emits(
            self, ray_session, tmp_path):
        # with lateness, an in-horizon purchase with EARLIER event time
        # than a buffered click arrives later — the click must still
        # see it (buffering makes the join order-insensitive)
        inp = _stage(tmp_path, [
            [(1, 10 * HOUR, 7, "click", 0.0)],
            [(2, 9 * HOUR, 7, "purchase", 7.5),    # predates the click
             (3, 11 * HOUR, 8, "view", 0.0)],
            [(4, 60 * HOUR, 8, "view", 0.0)],      # advances wm
        ])
        job = _job(tmp_path, inp, "t3", allowed_lateness_s=2 * 3600)
        t = job.run_all()
        assert t["late"] == 0
        out = job.emitted()
        assert float(out["asof_value"].iloc[0]) == 7.5

    def test_version_eviction_keeps_latest_below_wm(self, ray_session,
                                                    tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "purchase", 1.0),
             (2, 2 * HOUR, 7, "purchase", 2.0)],
            [(3, 100 * HOUR, 8, "view", 0.0)],     # wm passes both
            [(4, 101 * HOUR, 7, "click", 0.0)],    # must still see 2.0
        ])
        job = _job(tmp_path, inp, "t4")
        job.run_cycle()
        r1 = job.run_cycle()
        assert r1["version_rows"] == 1              # superseded evicted
        job.run_cycle()
        job.finalize()
        out = job.emitted()
        assert float(out["asof_value"].iloc[0]) == 2.0

    def test_replay_after_crashed_commit_same_bytes(self, ray_session,
                                                    tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "purchase", 3.0),
             (2, 2 * HOUR, 7, "click", 0.0)],
            [(3, 9 * HOUR, 7, "click", 0.0),
             (4, 10 * HOUR, 8, "purchase", 4.0)],
        ])
        job = _job(tmp_path, inp, "t5")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = _job(tmp_path, inp, "t5")
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_finalize_is_terminal(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [[(1, 1 * HOUR, 7, "click", 0.0)]])
        job = _job(tmp_path, inp, "t6")
        job.run_all()
        job.finalize()
        (tmp_path / "in" / "batch-999.parquet").write_bytes(b"")
        with pytest.raises(RuntimeError, match="finalized"):
            job.run_cycle()
