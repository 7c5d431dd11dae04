"""UPDATE-mode changelog job: retraction emission, the fold contract
(changelog consumer view == batch aggregate), watermark eviction,
crash-replay byte identity, late routing. Oracle value parity of the
full staged run lives in test_oracle_parity."""
from __future__ import annotations

import hashlib
import os

import pandas as pd
import pytest

DAY = 86_400 * 1_000_000
WEEK = 7 * DAY
# Monday-aligned week grid (DuckDB date_trunc('week') parity)
MON = 4 * DAY


def _stage(tmp_path, batches):
    d = tmp_path / "in"
    d.mkdir(parents=True, exist_ok=True)
    for i, rows in enumerate(batches):
        df = pd.DataFrame(rows, columns=["event_id", "ts", "event_type"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        df.to_parquet(d / f"batch-{i:03d}.parquet", index=False)
    return str(d)


def _job(tmp_path, inp, name, **kw):
    from imagor_ray.pipelines.changelog import StreamingChangelogJob
    return StreamingChangelogJob(inp, str(tmp_path / name), **kw)


def _sha(job) -> str:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.changelog_dir)):
        with open(os.path.join(job.changelog_dir, f), "rb") as fh:
            h.update(f.encode())
            h.update(fh.read())
    return h.hexdigest()


class TestRetractions:
    def test_window_updated_across_cycles_retracts(self, ray_session,
                                                   tmp_path):
        # same Monday-week window touched by two day cycles
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 2, "click")],
            [(3, MON + DAY, "click")],
        ])
        job = _job(tmp_path, inp, "r1")
        t = job.run_all()
        ch = job.changelog()
        # cycle 0: insert n=2; cycle 1: retract n=2, insert n=3
        assert t["retractions"] == 1
        rows = [(int(r.cycle), int(r.op), int(r.n))
                for r in ch.itertuples()]
        assert rows == [(0, 1, 2), (1, -1, 2), (1, 1, 3)]

    def test_untouched_window_emits_nothing(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click")],
            [(2, MON + 3 * WEEK, "view")],   # far future, other window
        ])
        job = _job(tmp_path, inp, "r2")
        job.run_all()
        ch = job.changelog()
        c1 = ch[ch["cycle"] == 1]
        # cycle 1 touches only the new window — no rows for the old one
        assert set(c1["key"]) == {"view"} and (c1["op"] == 1).all()

    def test_fold_equals_batch_aggregate(self, ray_session, tmp_path):
        import numpy as np
        rng = np.random.RandomState(7)
        batches, eid = [], 0
        for c in range(8):
            rows = []
            for _ in range(50):
                rows.append((eid, c * DAY + int(rng.randint(0, DAY)),
                             str(rng.choice(["click", "view", "buy"]))))
                eid += 1
            batches.append(rows)
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "r3")
        job.run_all()
        folded = job.folded()
        flat = pd.DataFrame(
            [r for b in batches for r in b],
            columns=["event_id", "ts", "event_type"])
        flat["win_us"] = ((flat["ts"] - MON) // WEEK) * WEEK + MON
        exp = (flat.groupby(["win_us", "event_type"]).size()
               .reset_index(name="n")
               .rename(columns={"event_type": "key"})
               .sort_values(["win_us", "key"]).reset_index(drop=True))
        got = folded.astype({"n": "int64"})
        assert list(got["win_us"]) == list(exp["win_us"])
        assert list(got["key"]) == list(exp["key"])
        assert list(got["n"]) == list(exp["n"])


class TestStateAndReplay:
    def test_state_evicts_closed_windows(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click")],
            [(2, MON + 5 * WEEK, "click")],   # watermark passes window 0
        ])
        job = _job(tmp_path, inp, "s1")
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r0["state_rows"] == 1
        assert r1["state_rows"] == 1          # old window evicted
        st = job.cp.load_open_sessions()
        assert list(st["win_us"]) == [MON + 5 * WEEK]

    def test_replay_after_crashed_commit_same_bytes(self, ray_session,
                                                    tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 9, "view")],
            [(3, MON + DAY, "click")],
        ])
        job = _job(tmp_path, inp, "s2")
        job.run_cycle()
        orig_save = job.cp.save
        job.cp.save = lambda state: (_ for _ in ()).throw(
            OSError("injected crash before commit"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed_sha = _sha(job)
        job.cp.save = orig_save
        fresh = _job(tmp_path, inp, "s2")
        fresh.run_all()
        assert _sha(fresh) == crashed_sha
        assert len(fresh.cp.load()["processed"]) == 2

    def test_late_rows_routed_not_counted(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 5 * WEEK, "click")],   # advances watermark far
            [(2, MON + 1, "click")],          # late
        ])
        job = _job(tmp_path, inp, "s3")
        t = job.run_all()
        assert t["late"] == 1
        ch = job.changelog()
        # the late click never entered any window aggregate
        assert int(ch[ch["op"] == 1]["n"].sum()) == 1
        late = pd.read_parquet(
            os.path.join(job.late_dir, "late-00001.parquet"))
        assert list(late["event_id"]) == [2]


class TestSessionChangelog:
    GAP = 1800 * 1_000_000

    def _stage(self, tmp_path, batches):
        d = tmp_path / "sin"
        d.mkdir(parents=True, exist_ok=True)
        for i, rows in enumerate(batches):
            df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
            df["ts"] = pd.to_datetime(df["ts"], unit="us")
            df.to_parquet(d / f"batch-{i:03d}.parquet", index=False)
        return str(d)

    def _job(self, tmp_path, inp, name, **kw):
        from imagor_ray.pipelines.changelog import SessionChangelogJob
        return SessionChangelogJob(inp, str(tmp_path / name), **kw)

    def test_extension_retracts_and_reinserts(self, ray_session, tmp_path):
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 0, 7), (2, 10, 7)],        # session A: n=2
            [(3, G - 100, 7)],              # extends A -> n=3
            [(4, 10 * G, 7)],               # new session B
        ])
        job = self._job(tmp_path, inp, "x1")
        job.run_all()
        ch = job.changelog()
        rows = [(int(r.cycle), int(r.op), int(r.start_us), int(r.n))
                for r in ch.itertuples()]
        assert rows == [(0, 1, 0, 2),          # insert A v1
                        (1, -1, 0, 2),         # retract A v1
                        (1, 1, 0, 3),          # insert A v2 (same start!)
                        (2, 1, 10 * G, 1)]     # insert B

    def test_fold_equals_batch_sessionization(self, ray_session,
                                              tmp_path):
        import numpy as np
        rng = np.random.RandomState(5)
        batches, eid, DAY = [], 0, 86_400 * 1_000_000
        for c in range(6):
            rows = []
            for _ in range(60):
                rows.append((eid, c * DAY + int(rng.randint(0, DAY)),
                             int(rng.randint(0, 8))))
                eid += 1
            batches.append(rows)
        inp = self._stage(tmp_path, batches)
        job = self._job(tmp_path, inp, "x2")
        job.run_all()
        folded = job.folded()
        flat = pd.DataFrame([r for b in batches for r in b],
                            columns=["event_id", "ts", "user_id"])
        flat = flat.sort_values(["user_id", "ts", "event_id"])
        uid = flat["user_id"].to_numpy()
        us = flat["ts"].to_numpy()
        import numpy as np
        new_s = np.ones(len(flat), dtype=np.int64)
        same = uid[1:] == uid[:-1]
        new_s[1:] = (~same | (us[1:] - us[:-1] > self.GAP)).astype(int)
        sid = np.cumsum(new_s) - 1
        exp = (pd.DataFrame({"user_id": uid, "us": us, "sid": sid})
               .groupby("sid").agg(user_id=("user_id", "first"),
                                   start_us=("us", "min"),
                                   end_us=("us", "max"),
                                   n=("us", "size"))
               .reset_index(drop=True)
               .sort_values(["user_id", "start_us"])
               .reset_index(drop=True))
        got = folded.reset_index(drop=True)
        assert list(got["user_id"]) == list(exp["user_id"])
        assert list(got["start_us"]) == list(exp["start_us"])
        assert list(got["end_us"]) == list(exp["end_us"])
        assert list(got["n"]) == list(exp["n"].astype("int64"))

    def test_closed_sessions_evict(self, ray_session, tmp_path):
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 0, 7)],
            [(2, 100 * G, 7)],       # wm passes session 1 + gap
        ])
        job = self._job(tmp_path, inp, "x3")
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r0["state_rows"] == 1 and r1["state_rows"] == 1
        st = job.cp.load_open_sessions()
        assert list(st["start_us"]) == [100 * G]

    def test_replay_overwrites_same_bytes(self, ray_session, tmp_path):
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 0, 7), (2, 5, 8)],
            [(3, G - 1, 7), (4, 10 * G, 8)],
        ])
        job = self._job(tmp_path, inp, "x4")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = self._job(tmp_path, inp, "x4")
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_lateness_backward_extension(self, ray_session, tmp_path):
        # an out-of-order in-horizon event BEFORE the state session's
        # start extends it backward: retract old, insert with the new
        # (earlier) start — the ordered kernel would have corrupted
        # this into two overlapping sessions
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 10 * G, 7)],              # session at 10G
            [(2, 10 * G - 100, 7),         # before the open start
             (3, 11 * G, 8)],              # another user moves max_ts
        ])
        job = self._job(tmp_path, inp, "L1", allowed_lateness_s=10**9)
        job.run_all()
        ch = job.changelog()
        rows = [(int(r.cycle), int(r.op), int(r.start_us),
                 int(r.end_us), int(r.n))
                for r in ch[ch["user_id"] == 7].itertuples()]
        # within cycle 1 the file sorts by (user, start, op): the new
        # earlier start's insert precedes the old start's retract
        assert rows == [(0, 1, 10 * G, 10 * G, 1),
                        (1, 1, 10 * G - 100, 10 * G, 2),
                        (1, -1, 10 * G, 10 * G, 1)]

    def test_lateness_bridging_merges_sessions(self, ray_session,
                                               tmp_path):
        # an in-horizon event lands BETWEEN two open sessions within
        # gap of both: both retract, the merged session inserts; the
        # retraction-aware fold kills the absorbed key
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 0, 7), (2, int(1.5 * G), 7)],   # two sessions, 1.5G apart
            [(3, int(0.7 * G), 7),               # bridges both
             (4, 50 * G, 8)],
        ])
        job = self._job(tmp_path, inp, "L2", allowed_lateness_s=10**9)
        job.run_all()
        ch = job.changelog()
        u7 = ch[ch["user_id"] == 7]
        c1 = [(int(r.op), int(r.start_us), int(r.end_us), int(r.n))
              for r in u7[u7["cycle"] == 1].itertuples()]
        assert c1 == [(-1, 0, 0, 1),
                      (1, 0, int(1.5 * G), 3),
                      (-1, int(1.5 * G), int(1.5 * G), 1)]
        folded = job.folded()
        f7 = folded[folded["user_id"] == 7]
        assert len(f7) == 1
        assert (int(f7["start_us"].iloc[0]), int(f7["end_us"].iloc[0]),
                int(f7["n"].iloc[0])) == (0, int(1.5 * G), 3)

    def test_lateness_fold_equals_batch(self, ray_session, tmp_path):
        # shuffle events across cycle boundaries (arrival != event-time
        # order, bounded jitter); retraction-aware fold must equal the
        # batch sessionization
        import numpy as np
        rng = np.random.RandomState(11)
        DAY = 86_400 * 1_000_000
        rows = [(eid, int(rng.randint(0, 5 * DAY)), int(rng.randint(0, 6)))
                for eid in range(300)]
        # arrival cycle = event day + 0/1 jitter (deterministic)
        batches = [[] for _ in range(7)]
        for eid, ts, u in rows:
            batches[ts // DAY + (eid % 3 == 0)].append((eid, ts, u))
        inp = self._stage(tmp_path, [b for b in batches if b])
        job = self._job(tmp_path, inp, "LP", allowed_lateness_s=3 * 86_400)
        t = job.run_all()
        assert t["late"] == 0
        got = job.folded().reset_index(drop=True)
        flat = pd.DataFrame(rows, columns=["event_id", "ts", "user_id"])
        flat = flat.sort_values(["user_id", "ts", "event_id"])
        uid = flat["user_id"].to_numpy()
        us = flat["ts"].to_numpy()
        new_s = np.ones(len(flat), dtype=np.int64)
        same = uid[1:] == uid[:-1]
        new_s[1:] = (~same | (us[1:] - us[:-1] > self.GAP)).astype(int)
        sid = np.cumsum(new_s) - 1
        exp = (pd.DataFrame({"user_id": uid, "us": us, "sid": sid})
               .groupby("sid")
               .agg(user_id=("user_id", "first"),
                    start_us=("us", "min"), end_us=("us", "max"),
                    n=("us", "size"))
               .reset_index(drop=True)
               .sort_values(["user_id", "start_us"])
               .reset_index(drop=True))
        assert list(got["user_id"]) == list(exp["user_id"])
        assert list(got["start_us"]) == list(exp["start_us"])
        assert list(got["end_us"]) == list(exp["end_us"])
        assert list(got["n"]) == list(exp["n"].astype("int64"))

    def test_lateness_beyond_horizon_still_routes_late(self, ray_session,
                                                       tmp_path):
        G = self.GAP
        H = 86_400 * 1_000_000  # 1-day horizon in µs
        inp = self._stage(tmp_path, [
            [(1, 10 * H, 7)],
            [(2, 10 * H - H - 1, 7),     # older than the horizon: late
             (3, 10 * H + G, 7)],
        ])
        job = self._job(tmp_path, inp, "L4", allowed_lateness_s=86_400)
        t = job.run_all()
        assert t["late"] == 1
        late = pd.read_parquet(
            os.path.join(job.late_dir, "late-00001.parquet"))
        assert list(late["event_id"]) == [2]
        # the late event never entered any session
        assert int(job.folded()["n"].sum()) == 2

    def test_cycle_metrics_report_changelog_rows(self, ray_session,
                                                 tmp_path):
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 0, 7), (2, 10, 7)],   # insert A v1 -> 1 row
            [(3, G - 100, 7)],         # retract+insert A -> 2 rows
        ])
        job = self._job(tmp_path, inp, "x5")
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r0["changelog_rows"] == 1
        assert r1["changelog_rows"] == 2
        # the cycle counts line up with the on-disk changelog
        assert len(job.changelog()) == 3

    def test_lateness_replay_overwrites_same_bytes(self, ray_session,
                                                   tmp_path):
        G = self.GAP
        inp = self._stage(tmp_path, [
            [(1, 10 * G, 7), (2, 0, 8)],
            [(3, 10 * G - 100, 7),          # backward extension
             (4, int(0.5 * G), 8)],
        ])
        job = self._job(tmp_path, inp, "L5", allowed_lateness_s=10**9)
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = self._job(tmp_path, inp, "L5", allowed_lateness_s=10**9)
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_huge_user_ids_stay_distinct(self, ray_session, tmp_path):
        # user boundary detection must be exact int64: a float upcast
        # (pandas shift) collapses ids differing beyond 2^53
        G = self.GAP
        u1, u2 = 2**53, 2**53 + 1
        inp = self._stage(tmp_path, [
            [(1, 0, u1)],
            [(2, 100, u2), (3, 10 * G, u1)],
        ])
        job = self._job(tmp_path, inp, "L6", allowed_lateness_s=10**9)
        job.run_all()
        folded = job.folded()
        assert sorted(folded["user_id"].astype(int)) == [u1, u1, u2]
        assert list(folded["n"].astype(int)) == [1, 1, 1]


class TestCompleteMode:
    def test_every_cycle_emits_full_prefix_aggregate(self, ray_session,
                                                     tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 2, "view")],
            [(3, MON + DAY, "click")],
            [(4, MON + 3 * WEEK, "view")],
        ])
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        job = StreamingChangelogJob(inp, str(tmp_path / "c1"),
                                    output_mode="complete")
        t = job.run_all()
        assert t["retractions"] == 0
        ch = job.changelog()
        rows = [(int(r.cycle), int(r.win_us), str(r.key), int(r.n))
                for r in ch.itertuples()]
        W0, W3 = MON, MON + 3 * WEEK
        assert rows == [
            (0, W0, "click", 1), (0, W0, "view", 1),
            (1, W0, "click", 2), (1, W0, "view", 1),
            (2, W0, "click", 2), (2, W0, "view", 1),
            (2, W3, "view", 1),                       # old windows re-emit
        ]

    def test_complete_state_never_evicts(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click")],
            [(2, MON + 10 * WEEK, "click")],   # far future watermark
        ])
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        job = StreamingChangelogJob(inp, str(tmp_path / "c2"),
                                    output_mode="complete")
        job.run_all()
        st = job.cp.load_open_sessions()
        assert len(st) == 2                    # week-0 window retained

    def test_complete_replay_same_bytes(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 9, "view")],
            [(3, MON + DAY, "click")],
        ])
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        job = StreamingChangelogJob(inp, str(tmp_path / "c3"),
                                    output_mode="complete")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = StreamingChangelogJob(inp, str(tmp_path / "c3"),
                                      output_mode="complete")
        fresh.run_all()
        assert _sha(fresh) == crashed

    def test_unknown_mode_rejected(self, tmp_path):
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        with pytest.raises(ValueError, match="output_mode"):
            StreamingChangelogJob(str(tmp_path / "in"),
                                  str(tmp_path / "c4"),
                                  output_mode="upsert")


class TestSlidingWindows:
    def test_event_fans_out_to_covering_windows(self, ray_session,
                                                tmp_path):
        # one event at day 10 + 1us, 3-day/1-day sliding: windows
        # starting on days 8, 9, 10 each insert n=1
        inp = _stage(tmp_path, [[(1, 10 * DAY + 1, "click")]])
        job = _job(tmp_path, inp, "sl1",
                   window_s=3 * 86_400, slide_s=86_400)
        job.run_all()
        ch = job.changelog()
        assert list(ch["op"]) == [1, 1, 1]
        assert sorted(ch["win_us"]) == [8 * DAY, 9 * DAY, 10 * DAY]
        assert list(ch["n"]) == [1, 1, 1]

    def test_window_updated_across_cycles_retracts(self, ray_session,
                                                   tmp_path):
        # day-10 and day-11 events share windows 9 and 10:
        # those retract their cycle-0 value and reinsert n=2
        inp = _stage(tmp_path, [
            [(1, 10 * DAY + 1, "click")],
            [(2, 11 * DAY + 1, "click")],
        ])
        job = _job(tmp_path, inp, "sl2",
                   window_s=3 * 86_400, slide_s=86_400)
        t = job.run_all()
        assert t["retractions"] == 2
        ch = job.changelog()
        c1 = ch[ch["cycle"] == 1]
        shared = c1[c1["win_us"].isin([9 * DAY, 10 * DAY])]
        assert sorted(zip(shared["op"], shared["n"])) == [
            (-1, 1), (-1, 1), (1, 2), (1, 2)]
        # window 11 is new: insert only
        w11 = c1[c1["win_us"] == 11 * DAY]
        assert list(zip(w11["op"], w11["n"])) == [(1, 1)]

    def test_fold_equals_batch_sliding_aggregate(self, ray_session,
                                                 tmp_path):
        import numpy as np
        rng = np.random.RandomState(4)
        batches, eid = [], 0
        for day in range(5):
            rows = []
            for _ in range(40):
                rows.append((eid, day * DAY + int(rng.randint(0, DAY)),
                             str(rng.choice(["click", "view"]))))
                eid += 1
            rows.sort(key=lambda r: r[1])
            batches.append(rows)
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "sl3",
                   window_s=3 * 86_400, slide_s=86_400)
        job.run_all()
        folded = job.folded()
        # brute-force batch sliding counts
        allr = [r for b in batches for r in b]
        exp = {}
        for _, ts, et in allr:
            base = (ts // DAY) * DAY
            for k in range(3):
                exp[(base - k * DAY, et)] = exp.get(
                    (base - k * DAY, et), 0) + 1
        got = {(int(r.win_us), r.key): int(r.n)
               for r in folded.itertuples()}
        assert got == exp

    def test_sliding_eviction_uses_window_length(self, ray_session,
                                                 tmp_path):
        # after the day-13 cycle (wm ~ day 13), windows with
        # win + 3d <= wm are closed: window 10 evicts, 11+ stay
        inp = _stage(tmp_path, [
            [(1, 10 * DAY + 1, "click")],
            [(2, 13 * DAY + 2, "click")],
        ])
        job = _job(tmp_path, inp, "sl4",
                   window_s=3 * 86_400, slide_s=86_400)
        job.run_all()
        st = job.cp.load_open_sessions()
        assert set(st["win_us"]) == {11 * DAY, 12 * DAY, 13 * DAY}

    def test_bad_window_args_rejected(self, tmp_path):
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        with pytest.raises(ValueError, match="go together"):
            StreamingChangelogJob(str(tmp_path / "in"),
                                  str(tmp_path / "sl5"), window_s=3)
        with pytest.raises(ValueError, match="multiple"):
            StreamingChangelogJob(str(tmp_path / "in"),
                                  str(tmp_path / "sl6"),
                                  window_s=7, slide_s=2)


class TestAppendMode:
    def test_window_emits_once_when_closed(self, ray_session, tmp_path):
        # 3d/1d sliding windows over day events: day-10's windows
        # (8,9,10) close as the watermark passes win+3d
        inp = _stage(tmp_path, [
            [(1, 10 * DAY + 1, "click")],
            [(2, 11 * DAY + 1, "click")],
            [(3, 13 * DAY + 2, "click")],
        ])
        job = _job(tmp_path, inp, "a1", output_mode="append",
                   window_s=3 * 86_400, slide_s=86_400)
        t = job.run_all()
        assert t["retractions"] == 0
        cl = job.closed()
        # window 8 closes at cycle 1 (wm = 11d+1us >= 8d+3d); 9 and 10
        # close at cycle 2 (wm = 13d+2us)
        got = {(int(r.cycle), int(r.win_us) // DAY, int(r.n))
               for r in cl.itertuples()}
        assert got == {(1, 8, 1), (2, 9, 2), (2, 10, 2)}
        # still-open windows (11..13) unemitted, held in state
        st = job.cp.load_open_sessions()
        assert set(st["win_us"] // DAY) == {11, 12, 13}

    def test_final_count_is_batch_aggregate(self, ray_session, tmp_path):
        import numpy as np
        rng = np.random.RandomState(6)
        batches, eid = [], 0
        for day in range(6):
            rows = []
            for _ in range(30):
                rows.append((eid, day * DAY + int(rng.randint(0, DAY)),
                             str(rng.choice(["click", "view"]))))
                eid += 1
            rows.sort(key=lambda r: r[1])
            batches.append(rows)
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "a2", output_mode="append",
                   window_s=3 * 86_400, slide_s=86_400)
        job.run_all()
        cl = job.closed()
        # every emitted window appears exactly once per key...
        assert not cl.duplicated(["win_us", "key"]).any()
        # ...with its full batch count
        allr = [r for b in batches for r in b]
        exp = {}
        for _, ts, et in allr:
            base = (ts // DAY) * DAY
            for k in range(3):
                exp[(base - k * DAY, et)] = exp.get(
                    (base - k * DAY, et), 0) + 1
        for r in cl.itertuples():
            assert exp[(int(r.win_us), r.key)] == int(r.n)

    def test_append_replay_same_bytes(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 10 * DAY + 1, "click")],
            [(2, 13 * DAY + 1, "view")],
        ])
        from imagor_ray.pipelines.changelog import StreamingChangelogJob
        job = StreamingChangelogJob(inp, str(tmp_path / "a3"),
                                    output_mode="append",
                                    window_s=3 * 86_400, slide_s=86_400)
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = StreamingChangelogJob(inp, str(tmp_path / "a3"),
                                      output_mode="append",
                                      window_s=3 * 86_400, slide_s=86_400)
        fresh.run_all()
        assert _sha(fresh) == crashed


class TestTopKChangelog:
    def _job(self, tmp_path, inp, name, **kw):
        from imagor_ray.pipelines.changelog import TopKChangelogJob
        return TopKChangelogJob(inp, str(tmp_path / name), **kw)

    def test_rank_slot_retracts_on_overtake(self, ray_session, tmp_path):
        # cycle 0: click=2, view=1 -> ranks (1 click 2), (2 view 1)
        # cycle 1: +2 view -> view=3 overtakes: both slots change
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 2, "click"),
             (3, MON + 3, "view")],
            [(4, MON + DAY, "view"), (5, MON + DAY + 1, "view")],
        ])
        job = self._job(tmp_path, inp, "t1", k=2)
        t = job.run_all()
        assert t["retractions"] == 2
        ch = job.changelog()
        c1 = ch[ch["cycle"] == 1]
        rows = sorted((int(r.rnk), int(r.op), r.key, int(r.n))
                      for r in c1.itertuples())
        assert rows == [(1, -1, "click", 2), (1, 1, "view", 3),
                        (2, -1, "view", 1), (2, 1, "click", 2)]

    def test_untouched_window_emits_nothing(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click")],
            [(2, MON + 3 * WEEK, "view")],
        ])
        job = self._job(tmp_path, inp, "t2")
        job.run_all()
        ch = job.changelog()
        c1 = ch[ch["cycle"] == 1]
        assert set(c1["win_us"]) == {MON + 3 * WEEK}

    def test_fold_equals_batch_topk(self, ray_session, tmp_path):
        import numpy as np
        rng = np.random.RandomState(8)
        batches, eid = [], 0
        for c in range(6):
            rows = []
            for _ in range(50):
                rows.append((eid, c * DAY + int(rng.randint(0, DAY)),
                             str(rng.choice(["a", "b", "c", "d", "e"]))))
                eid += 1
            batches.append(rows)
        inp = _stage(tmp_path, batches)
        job = self._job(tmp_path, inp, "t3", k=3)
        job.run_all()
        folded = job.folded()
        flat = pd.DataFrame([r for b in batches for r in b],
                            columns=["event_id", "ts", "event_type"])
        flat["win_us"] = ((flat["ts"] - MON) // WEEK) * WEEK + MON
        cnt = (flat.groupby(["win_us", "event_type"]).size()
               .reset_index(name="n"))
        cnt = cnt.sort_values(["win_us", "n", "event_type"],
                              ascending=[True, False, True])
        cnt["rnk"] = cnt.groupby("win_us").cumcount() + 1
        exp = (cnt[cnt["rnk"] <= 3]
               .sort_values(["win_us", "rnk"]).reset_index(drop=True))
        assert list(folded["win_us"]) == list(exp["win_us"])
        assert list(folded["rnk"]) == list(exp["rnk"])
        assert list(folded["key"]) == list(exp["event_type"])
        assert [int(x) for x in folded["n"]] == list(exp["n"])

    def test_replay_same_bytes(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, MON + 1, "click"), (2, MON + 2, "view")],
            [(3, MON + DAY, "view")],
        ])
        job = self._job(tmp_path, inp, "t4")
        job.run_cycle()
        job.cp.save = lambda state: (_ for _ in ()).throw(OSError("boom"))
        with pytest.raises(OSError):
            job.run_cycle()
        crashed = _sha(job)
        fresh = self._job(tmp_path, inp, "t4")
        fresh.run_all()
        assert _sha(fresh) == crashed
