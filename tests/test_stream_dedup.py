"""Streaming dedup within the watermark: cross-cycle first-occurrence
suppression via key state, watermark-bounded eviction, late routing,
crash-replay byte identity and pandas/dataset engine equality. Oracle
value parity of the full staged run lives in test_oracle_parity."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pytest

HOUR = 3600 * 1_000_000
DAY = 24 * HOUR


def _stage(tmp_path, batches):
    d = tmp_path / "in"
    d.mkdir(parents=True, exist_ok=True)
    for i, rows in enumerate(batches):
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        df.to_parquet(d / f"batch-{i:03d}.parquet", index=False)
    return str(d)


def _job(tmp_path, inp, name, **kw):
    from imagor_ray.pipelines.stream_dedup import StreamingDedupJob
    return StreamingDedupJob(inp, str(tmp_path / name), **kw)


def _sha(job) -> str:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.emitted_dir)):
        with open(os.path.join(job.emitted_dir, f), "rb") as fh:
            h.update(f.encode())
            h.update(fh.read())
    return h.hexdigest()


class TestStreamingDedup:
    def test_cross_cycle_duplicate_suppressed(self, ray_session,
                                              tmp_path):
        # same (user, type, day) key in two cycles: only the first emits
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "click")],
            [(2, 13 * HOUR, 7, "click"),        # same day key: dup
             (3, 13 * HOUR, 7, "buy")],         # new key
        ])
        job = _job(tmp_path, inp, "d1")
        t = job.run_all()
        assert (t["emitted"], t["dups"], t["late"]) == (2, 1, 0)
        assert list(job.emitted()["event_id"]) == [1, 3]

    def test_within_cycle_keeps_earliest_by_ts_then_id(self, ray_session,
                                                       tmp_path):
        inp = _stage(tmp_path, [
            [(5, 2 * HOUR, 7, "click"),
             (4, 2 * HOUR, 7, "click"),          # same ts: lower id wins
             (6, 1 * HOUR, 7, "click")],         # earliest ts wins overall
        ])
        job = _job(tmp_path, inp, "d2")
        job.run_all()
        assert list(job.emitted()["event_id"]) == [6]

    def test_state_evicts_passed_days(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "click")],
            [(2, 5 * DAY, 8, "click")],          # wm passes day 0
        ])
        job = _job(tmp_path, inp, "d3")
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r0["state_rows"] == 1
        assert r1["state_rows"] == 1             # day-0 key evicted
        st = job.cp.load_open_sessions()
        assert list(st["day_us"]) == [5 * DAY]

    def test_late_rows_routed_not_deduped(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 5 * DAY, 7, "click")],
            [(2, 1 * HOUR, 8, "click")],         # late: ts < wm
        ])
        job = _job(tmp_path, inp, "d4")
        t = job.run_all()
        assert (t["emitted"], t["late"]) == (1, 1)
        late = pd.read_parquet(
            os.path.join(job.late_dir, "late-00001.parquet"))
        assert list(late["event_id"]) == [2]

    def test_replay_after_crashed_commit_same_bytes(self, ray_session,
                                                    tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1 * HOUR, 7, "click"), (2, 2 * HOUR, 8, "buy")],
            [(3, 13 * HOUR, 7, "click"), (4, 14 * HOUR, 9, "click")],
        ])
        job = _job(tmp_path, inp, "d5")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = _job(tmp_path, inp, "d5")
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_emitted_equals_batch_first_per_key(self, ray_session,
                                                tmp_path):
        rng = np.random.RandomState(23)
        rows = [(eid, int(rng.randint(0, 3 * DAY)),
                 int(rng.randint(0, 5)),
                 str(rng.choice(["click", "buy"])))
                for eid in range(300)]
        # event-time-ordered half-day cycles
        batches = [[] for _ in range(6)]
        for r in rows:
            batches[r[1] // (12 * HOUR)].append(r)
        inp = _stage(tmp_path, [b for b in batches if b])
        job = _job(tmp_path, inp, "d6")
        job.run_all()
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type"])
        df["day"] = (df["ts"] // DAY) * DAY
        exp = (df.sort_values(["ts", "event_id"])
               .drop_duplicates(subset=["user_id", "event_type", "day"],
                                keep="first")
               .sort_values("event_id")["event_id"].tolist())
        assert list(job.emitted()["event_id"]) == exp
