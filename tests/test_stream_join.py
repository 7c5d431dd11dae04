"""Stream-stream windowed join: cross-cycle matching, watermark state
eviction, resume byte-identity, pandas/dataset path equivalence, and
late-row routing — beyond the DuckDB parity row (test_oracle_parity
covers value equality of the full staged run)."""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pytest


def _stage(tmp_path, batches, **parquet_kw):
    """Write a list of event-row lists as ordered micro-batch files.
    Rows: (event_id, ts_us, user_id, event_type)."""
    d = tmp_path / "in"
    d.mkdir(parents=True, exist_ok=True)
    for i, rows in enumerate(batches):
        df = pd.DataFrame(rows, columns=[
            "event_id", "ts", "user_id", "event_type"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        df.to_parquet(d / f"batch-{i:03d}.parquet", index=False,
                      **parquet_kw)
    return str(d)


def _matched(job) -> pd.DataFrame:
    parts = []
    for f in sorted(os.listdir(job.matched_dir)):
        parts.append(pd.read_parquet(os.path.join(job.matched_dir, f)))
    if not parts:
        return pd.DataFrame()
    out = pd.concat(parts, ignore_index=True)
    return (out.sort_values(["req_id", "resp_id"], kind="mergesort")
            .reset_index(drop=True))


def _sha(job) -> str:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.matched_dir)):
        with open(os.path.join(job.matched_dir, f), "rb") as fh:
            h.update(f.encode())
            h.update(fh.read())
    return h.hexdigest()


def _job(tmp_path, input_dir, name, **kw):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob
    return StreamingJoinJob(input_dir, str(tmp_path / name),
                            window_s=100, **kw)   # window = 100 s


W = 100 * 1_000_000  # window in µs


class TestCrossCycleMatching:
    def test_pair_straddling_cycles(self, ray_session, tmp_path):
        # click in cycle 0, purchase in cycle 1 inside the window:
        # emitted in cycle 1 from state
        inp = _stage(tmp_path, [
            [(1, 1_000_000, 7, "click")],
            [(2, 50_000_000, 7, "purchase")],
        ])
        job = _job(tmp_path, inp, "s1")
        t = job.run_all()
        assert t == {"cycles": 2, "matched": 1, "late": 0, "timeout": 0,
                     "rtimeout": 0}
        m = _matched(job)
        assert list(m["req_id"]) == [1] and list(m["resp_id"]) == [2]

    def test_no_match_outside_window_or_user(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 0, 7, "click"), (2, 0, 8, "click")],
            [(3, W + 1_000_000, 7, "purchase"),   # window expired
             (4, 50_000_000, 9, "purchase")],     # other user
        ])
        job = _job(tmp_path, inp, "s2")
        assert job.run_all()["matched"] == 0

    def test_right_before_left_never_matches(self, ray_session, tmp_path):
        # strict b.ts > a.ts: purchase arriving in an EARLIER cycle (and
        # earlier event time) can't match a later click
        inp = _stage(tmp_path, [
            [(1, 1_000_000, 7, "purchase")],
            [(2, 2_000_000, 7, "click")],
        ])
        job = _job(tmp_path, inp, "s3")
        assert job.run_all()["matched"] == 0


class TestStateEviction:
    def test_state_is_watermark_bounded(self, ray_session, tmp_path):
        # 5 cycles, each 10 windows after the last: state never
        # accumulates (evictable rows leave at every commit)
        inp = _stage(tmp_path, [
            [(10 * c, c * 10 * W, 7, "click"),
             (10 * c + 1, c * 10 * W + 1, 7, "purchase")]
            for c in range(5)
        ])
        job = _job(tmp_path, inp, "s4")
        sizes = []
        while (r := job.run_cycle()) is not None:
            sizes.append(r["state_rows"])
        # after each cycle the click is inside its own window of the
        # watermark (kept) but everything older is gone
        assert max(sizes) <= 2
        # all 5 same-cycle pairs were still emitted
        assert len(_matched(job)) == 5

    def test_evicted_rows_cannot_resurface(self, ray_session, tmp_path):
        # a click evicted by cycle 1's watermark must not match a
        # purchase whose event time would have been in-window but which
        # arrives late-but-on-time much later — the watermark proved no
        # ON-TIME row can match it, and the late purchase is routed late
        inp = _stage(tmp_path, [
            [(1, 0, 7, "click")],
            [(2, 20 * W, 7, "signup")],            # advances watermark
            [(3, 50_000_000, 7, "purchase")],      # late arrival
        ])
        job = _job(tmp_path, inp, "s5")
        t = job.run_all()
        assert t["matched"] == 0
        assert t["late"] == 1


class TestResumeAndEngines:
    def _batches(self):
        rng = np.random.RandomState(11)
        batches = []
        eid = 0
        for c in range(6):
            rows = []
            for _ in range(40):
                rows.append((eid, c * 120_000_000 + int(rng.randint(0, 120_000_000)),
                             int(rng.randint(0, 6)),
                             str(rng.choice(["click", "purchase", "view"]))))
                eid += 1
            batches.append(rows)
        return batches

    def test_resume_mid_stream_is_byte_identical(self, ray_session, tmp_path):
        batches = self._batches()
        inp_a = _stage(tmp_path / "a", batches)
        inp_b = _stage(tmp_path / "b", batches)

        ref = _job(tmp_path, inp_a, "ref")
        ref.run_all()

        half = _job(tmp_path, inp_b, "res")
        for _ in range(3):
            half.run_cycle()
        # a FRESH instance over the same state dir resumes and finishes
        resumed = _job(tmp_path, inp_b, "res")
        resumed.run_all()
        assert _sha(resumed) == _sha(ref)
        st = resumed.cp.load()
        assert len(st["processed"]) == 6

    def test_dataset_path_matches_pandas_path(self, ray_session, tmp_path):
        batches = self._batches()
        inp_a = _stage(tmp_path / "a", batches)
        inp_b = _stage(tmp_path / "b", batches)

        jp = _job(tmp_path, inp_a, "pd")                       # pandas
        jd = _job(tmp_path, inp_b, "ds", ray_cycle_threshold=0,
                  num_buckets=4)                               # dataset
        tp, td = jp.run_all(), jd.run_all()
        assert (tp["matched"], tp["late"]) == (td["matched"], td["late"])
        mp, md = _matched(jp), _matched(jd)
        pd.testing.assert_frame_equal(mp, md)
        # committed state snapshots agree byte-for-byte too (canonical
        # snapshot order is engine-independent)
        sp = jp.cp.load_open_sessions()
        sd = jd.cp.load_open_sessions()
        pd.testing.assert_frame_equal(sp, sd)

    def test_replay_after_crashed_commit_overwrites_same_bytes(
            self, ray_session, tmp_path):
        # crash BETWEEN the matched write and the checkpoint commit
        # (cp.save raises): cycle 1's output files and its staged-but-
        # unreferenced state snapshot are on disk, the checkpoint still
        # points at cycle 0 — the replay must re-run cycle 1 against
        # the committed pre-cycle state and overwrite the same files
        # with identical bytes
        batches = self._batches()
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "cr")
        job.run_cycle()
        orig_save = job.cp.save
        job.cp.save = lambda state: (_ for _ in ()).throw(
            OSError("injected crash before commit"))
        with pytest.raises(OSError):
            job.run_cycle()
        sha_crashed = _sha(job)
        job.cp.save = orig_save

        job2 = _job(tmp_path, inp, "cr")
        assert len(job2.cp.load()["processed"]) == 1   # commit was lost
        job2.run_cycle()                               # replays cycle 1
        assert _sha(job2) == sha_crashed
        assert len(job2.cp.load()["processed"]) == 2


class TestLateRouting:
    def test_late_rows_counted_not_joined(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 10 * W, 7, "click")],
            # arrives after watermark passed its ts -> late, excluded
            [(2, 1_000_000, 7, "purchase"),
             (3, 10 * W + 1000, 7, "purchase")],   # on-time, matches
        ])
        job = _job(tmp_path, inp, "s6")
        t = job.run_all()
        assert t["late"] == 1
        m = _matched(job)
        assert list(m["resp_id"]) == [3]


def _timeouts(job) -> pd.DataFrame:
    parts = []
    for f in sorted(os.listdir(job.timeout_dir)):
        parts.append(pd.read_parquet(os.path.join(job.timeout_dir, f)))
    if not parts:
        return pd.DataFrame()
    return (pd.concat(parts, ignore_index=True)
            .sort_values("req_id", kind="mergesort").reset_index(drop=True))


class TestOuterTimeouts:
    def test_timeout_emitted_at_eviction_not_finalize(
            self, ray_session, tmp_path):
        # click in cycle 0; cycle 1 advances the watermark far past its
        # window -> the null-right emission happens DURING the stream
        inp = _stage(tmp_path, [
            [(1, 0, 7, "click")],
            [(2, 20 * W, 7, "signup")],
        ])
        job = _job(tmp_path, inp, "t1")
        t = job.run_all()
        assert t["timeout"] == 1
        m = _timeouts(job)
        assert list(m["req_id"]) == [1]
        assert list(m["resp_id"]) == [-1]

    def test_matched_left_never_times_out(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 0, 7, "click"), (2, 50, 7, "purchase")],
            [(3, 20 * W, 7, "signup")],     # evicts the (matched) click
        ])
        job = _job(tmp_path, inp, "t2")
        t = job.run_all()
        assert (t["matched"], t["timeout"]) == (1, 0)
        assert job.finalize() == 0

    def test_finalize_flushes_unmatched_tail(self, ray_session, tmp_path):
        # the last cycle's click is still inside its window at end of
        # stream — only finalize() surfaces it
        inp = _stage(tmp_path, [[(1, 0, 7, "click")]])
        job = _job(tmp_path, inp, "t3")
        t = job.run_all()
        assert t["timeout"] == 0
        assert job.finalize() == 1
        assert list(_timeouts(job)["req_id"]) == [1]

    def test_outer_partition_of_clicks(self, ray_session, tmp_path):
        # over a random stream: matched ∪ timed-out = ALL clicks,
        # disjoint (the LEFT-OUTER completeness invariant)
        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "t4")
        job.run_all()
        job.finalize()
        matched = set(_matched(job)["req_id"])
        timed = set(_timeouts(job)["req_id"])
        all_clicks = {r[0] for b in batches for r in b if r[3] == "click"}
        assert matched | timed == all_clicks
        assert not (matched & timed)


class TestReviewFixes:
    def test_late_rows_are_routed_to_files(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 10 * W, 7, "click")],
            [(2, 1_000_000, 7, "purchase"),     # late
             (3, 1_000_001, 8, "view")],        # late, non-join type
        ])
        job = _job(tmp_path, inp, "lf")
        t = job.run_all()
        assert t["late"] == 2
        rows = pd.concat([
            pd.read_parquet(os.path.join(job.late_dir, f))
            for f in sorted(os.listdir(job.late_dir))], ignore_index=True)
        assert sorted(rows["event_id"]) == [2, 3]

    def test_late_files_match_across_engines(self, ray_session, tmp_path):
        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        # make some rows late: shuffle one early row into a later batch
        batches[3].append((9999, 1_000, 0, "purchase"))
        ja = _job(tmp_path, _stage(tmp_path / "a", batches), "la")
        jb = _job(tmp_path, _stage(tmp_path / "b", batches), "lb",
                  ray_cycle_threshold=0, num_buckets=4)
        ta, tb = ja.run_all(), jb.run_all()
        assert ta["late"] == tb["late"] > 0

        def late_ids(j):
            rows = [pd.read_parquet(os.path.join(j.late_dir, f))
                    for f in sorted(os.listdir(j.late_dir))]
            return sorted(pd.concat(rows, ignore_index=True)["event_id"])
        assert late_ids(ja) == late_ids(jb)

    def test_statless_inputs_match_stats_inputs(self, ray_session,
                                                tmp_path):
        """Inputs written without parquet statistics advance the
        watermark from the zone-map reader's ts scan: every output
        file, the state snapshots and the checkpoint (watermarks,
        counts) equal those of the same rows written with them."""
        import pyarrow.parquet as pq

        from tests.test_keyed_stream import _digests

        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        batches[3].append((9999, 1_000, 0, "purchase"))  # late

        def run(name, **parquet_kw):
            inp = _stage(tmp_path / name, batches, row_group_size=16,
                         **parquet_kw)
            job = _job(tmp_path, inp, f"state-{name}")
            totals = job.run_all()
            job.finalize()
            return (inp, totals, job.cp.load(),
                    _digests(str(tmp_path / f"state-{name}")))

        _, t_stats, cp_stats, f_stats = run("stats")
        inp, t_none, cp_none, f_none = run("none", write_statistics=False)
        md = pq.ParquetFile(os.path.join(inp, "batch-003.parquet")).metadata
        assert md.num_row_groups > 1
        assert md.row_group(0).column(1).statistics is None
        assert t_none == t_stats and t_stats["late"] == 1
        assert cp_none == cp_stats
        assert f_none == f_stats and f_stats

    def test_finalize_is_terminal(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [[(1, 0, 7, "click")]])
        job = _job(tmp_path, inp, "fin")
        job.run_all()
        job.finalize()
        # a late-arriving batch after finalize must be refused, not
        # matched against an already-timed-out left row
        extra = pd.DataFrame([(2, 50, 7, "purchase")], columns=[
            "event_id", "ts", "user_id", "event_type"])
        extra["ts"] = pd.to_datetime(extra["ts"], unit="us")
        extra.to_parquet(os.path.join(inp, "batch-999.parquet"),
                         index=False)
        with pytest.raises(RuntimeError, match="finalized"):
            _job(tmp_path, inp, "fin").run_cycle()


def _rtimeouts(job) -> pd.DataFrame:
    parts = [pd.read_parquet(os.path.join(job.rtimeout_dir, f))
             for f in sorted(os.listdir(job.rtimeout_dir))]
    return (pd.concat(parts, ignore_index=True) if parts
            else pd.DataFrame({"req_id": [], "resp_id": [], "user_id": []}))


class TestFullOuter:
    def test_right_timeout_emitted_at_eviction(self, ray_session,
                                               tmp_path):
        # purchase with no prior click evicts (ts <= wm) in the cycle
        # the watermark passes it — DURING the stream, not at finalize
        inp = _stage(tmp_path, [
            [(1, 1_000_000, 7, "purchase")],
            [(2, 10 * W, 8, "click")],        # advances wm past row 1
        ])
        job = _job(tmp_path, inp, "fo1")
        t = job.run_all()
        assert t["rtimeout"] == 1
        assert list(_rtimeouts(job)["resp_id"]) == [1]

    def test_matched_right_never_times_out(self, ray_session, tmp_path):
        inp = _stage(tmp_path, [
            [(1, 1_000_000, 7, "click")],
            [(2, 50_000_000, 7, "purchase")],   # matches row 1
            [(3, 10 * W, 8, "click")],          # evicts the purchase
        ])
        job = _job(tmp_path, inp, "fo2")
        t = job.run_all()
        assert (t["matched"], t["rtimeout"]) == (1, 0)
        # finalize flushes the unmatched tail CLICK (row 3) but must
        # not surface the already-matched purchase as a right timeout
        assert job.finalize() == 1
        assert len(_rtimeouts(job)) == 0

    def test_outer_partition_of_purchases(self, ray_session, tmp_path):
        # matched ∪ right-timed-out = ALL purchases, disjoint (the
        # FULL-OUTER completeness invariant, right side)
        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        inp = _stage(tmp_path, batches)
        job = _job(tmp_path, inp, "fo3")
        job.run_all()
        job.finalize()
        matched = set(_matched(job)["resp_id"])
        timed = set(_rtimeouts(job)["resp_id"])
        all_purch = {r[0] for b in batches for r in b
                     if r[3] == "purchase"}
        assert matched | timed == all_purch
        assert not (matched & timed)

    def test_rtimeout_byte_equal_across_engines(self, ray_session,
                                                tmp_path):
        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        inp = _stage(tmp_path, batches)
        jp = _job(tmp_path, inp, "fo4p", ray_cycle_threshold=10**9)
        jd = _job(tmp_path, inp, "fo4d", ray_cycle_threshold=0)
        jp.run_all(); jd.run_all()
        jp.finalize(); jd.finalize()
        rp, rd_ = _rtimeouts(jp), _rtimeouts(jd)
        assert sorted(rp["resp_id"]) == sorted(rd_["resp_id"])
        # the rtimeout writes are driver-side in BOTH engines, so the
        # per-cycle files must be byte-identical across them
        fp = sorted(os.listdir(jp.rtimeout_dir))
        fd = sorted(os.listdir(jd.rtimeout_dir))
        assert fp == fd
        for f in fp:
            with open(os.path.join(jp.rtimeout_dir, f), "rb") as a, \
                    open(os.path.join(jd.rtimeout_dir, f), "rb") as b:
                assert a.read() == b.read(), f


class TestTwoSources:
    def _stage2(self, tmp_path, left_batches, right_batches):
        def write(sub, batches):
            d = tmp_path / sub
            d.mkdir(parents=True, exist_ok=True)
            for i, rows in enumerate(batches):
                df = pd.DataFrame(rows, columns=[
                    "event_id", "ts", "user_id"])
                df["ts"] = pd.to_datetime(df["ts"], unit="us")
                df.to_parquet(d / f"batch-{i:03d}.parquet", index=False)
            return str(d)
        return (write("left", left_batches), write("right", right_batches))

    def _job2(self, tmp_path, ld, rd_, name):
        from imagor_ray.pipelines.stream_join import TwoSourceJoinJob
        return TwoSourceJoinJob(ld, rd_, str(tmp_path / name),
                                window_s=100)

    def test_cross_source_cross_cycle_match(self, ray_session, tmp_path):
        ld, rd_ = self._stage2(tmp_path,
                               [[(1, 1_000_000, 7)]],
                               [[(2, 50_000_000, 7)]])
        job = self._job2(tmp_path, ld, rd_, "ts1")
        t = job.run_all()
        assert t["matched"] == 1

    def test_lagging_source_holds_watermark(self, ray_session, tmp_path):
        # right source races 10 windows ahead; left source still at t0.
        # Global wm = min ⇒ NOTHING evicts or times out yet; when the
        # left catches up, the watermark advances and evictions fire.
        ld, rd_ = self._stage2(
            tmp_path,
            [[(1, 0, 7)],                        # cycle 0: left at t0
             [(2, 12 * W, 8)]],                  # cycle 1: left catches up
            [[(3, 10 * W, 9)],                   # right far ahead
             []])
        job = self._job2(tmp_path, ld, rd_, "ts2")
        r0 = job.run_cycle()
        # min(0-ish, 10W) keeps wm at the left's max: the left row is
        # still in-window, the right row unevicted
        assert r0["timeout"] == 0 and r0["rtimeout"] == 0
        assert r0["state_rows"] == 2
        r1 = job.run_cycle()
        # left catches up to 12W: wm jumps to min(12W, 10W) = 10W ⇒
        # the old left times out, the unmatched right evicts
        assert r1["timeout"] == 1 and r1["rtimeout"] == 1

    def test_source_with_no_data_holds_the_line(self, ray_session,
                                                tmp_path):
        ld, rd_ = self._stage2(tmp_path, [[(1, 50 * W, 7)]], [[]])
        job = self._job2(tmp_path, ld, rd_, "ts3")
        r = job.run_cycle()
        # right source has produced nothing: wm must stay 0
        assert r["watermark_us"] == 0 and r["timeout"] == 0

    def test_matches_single_source_results(self, ray_session, tmp_path):
        # the same logical stream split by side must produce the same
        # matched pairs as the interleaved single-source job
        batches = TestResumeAndEngines._batches(TestResumeAndEngines())
        inp = _stage(tmp_path, batches)
        one = _job(tmp_path, inp, "ts4-one")
        one.run_all()
        lb, rb = [], []
        for b in batches:
            lb.append([(e, ts, u) for e, ts, u, t in b if t == "click"])
            rb.append([(e, ts, u) for e, ts, u, t in b if t == "purchase"])
        ld, rd_ = self._stage2(tmp_path, lb, rb)
        two = self._job2(tmp_path, ld, rd_, "ts4-two")
        two.run_all()
        ma, mb = _matched(one), _matched(two)
        assert list(ma["req_id"]) == list(mb["req_id"])
        assert list(ma["resp_id"]) == list(mb["resp_id"])

    def test_resume_preserves_per_source_maxima(self, ray_session,
                                                tmp_path):
        ld, rd_ = self._stage2(
            tmp_path,
            [[(1, 5 * W, 7)], [(2, 6 * W, 7)]],
            [[(3, 4 * W, 7)], [(4, 7 * W, 7)]])
        job = self._job2(tmp_path, ld, rd_, "ts5")
        job.run_cycle()
        fresh = self._job2(tmp_path, ld, rd_, "ts5")   # resume
        r = fresh.run_cycle()
        assert r["watermark_us"] == 6 * W              # min(6W, 7W)

    def test_left_era_snapshot_resume_never_duplicates_rights(
            self, ray_session, tmp_path):
        """Review finding: snapshots from the LEFT-outer release carry
        matched=0 on rights that already produced pairs; resuming one
        must not re-emit those purchases as null-left timeouts."""
        inp = _stage(tmp_path, [
            [(1, 1_000_000, 7, "click"),
             (2, 2_000_000, 7, "purchase")],     # matches row 1
            [(3, 20 * W, 8, "click")],           # evicts the purchase
        ])
        job = _job(tmp_path, inp, "lg1")
        job.run_cycle()
        # doctor the committed checkpoint into the LEFT-era shape
        st = job.cp.load()
        st.pop("rights_matched_tracked", None)
        snap = job.cp.load_open_sessions(st)
        snap.loc[snap["side"] == 1, "matched"] = 0
        fname = job.cp.stage_open_sessions(snap, 0)
        st["open_sessions_file"] = fname
        job.cp.save(st)
        resumed = _job(tmp_path, inp, "lg1")
        r = resumed.run_cycle()
        assert r["rtimeout"] == 0            # no duplicate emission

    def test_idle_source_timeout_unpins_watermark(self, ray_session,
                                                  tmp_path):
        # right source delivers one early file then goes silent; the
        # left keeps producing. Without idleness the watermark pins at
        # the right's max; with idle_cycles=2 the left's clock takes
        # over after two right-less cycles and evictions fire.
        lb = [[(1, 0, 7)], [(2, 20 * W, 7)], [(3, 40 * W, 7)],
              [(4, 60 * W, 7)]]
        rb = [[(100, 1_000_000, 9)]]
        ld, rd_ = self._stage2(tmp_path / "a", lb, rb)
        from imagor_ray.pipelines.stream_join import TwoSourceJoinJob
        pinned = TwoSourceJoinJob(ld, rd_, str(tmp_path / "pin"),
                                  window_s=100)
        rs = [pinned.run_cycle() for _ in range(4)]
        assert rs[-1]["watermark_us"] == 1_000_000   # pinned forever
        assert rs[-1]["timeout"] == 0
        ld2, rd2 = self._stage2(tmp_path / "b", lb, rb)
        idle = TwoSourceJoinJob(ld2, rd2, str(tmp_path / "idl"),
                                window_s=100, idle_cycles=2)
        rs2 = [idle.run_cycle() for _ in range(4)]
        # cycle 2 is the second right-less cycle: right declared idle,
        # watermark jumps to the left's clock and old clicks time out
        assert rs2[2]["watermark_us"] == 40 * W
        assert sum(r["timeout"] for r in rs2) >= 2

    def test_idle_source_rearms_on_new_file(self, ray_session, tmp_path):
        # right goes idle by exhaustion (wm advances on left), then a
        # NEW right file lands mid-run: its clock re-enters the min and
        # holds further advancement (the watermark never regresses)
        lb = [[(1, 0, 7)], [(2, 20 * W, 7)], [(3, 40 * W, 7)],
              [(4, 80 * W, 7)]]
        ld, rd_ = self._stage2(tmp_path, lb, [[(100, 1_000_000, 9)]])
        from imagor_ray.pipelines.stream_join import TwoSourceJoinJob
        job = TwoSourceJoinJob(ld, rd_, str(tmp_path / "re"),
                               window_s=100, idle_cycles=2)
        rs = [job.run_cycle() for _ in range(3)]
        assert rs[2]["watermark_us"] == 40 * W       # idle: left drives
        # the idle source produces again (its new max 30W trails the
        # advanced watermark)
        late_file = pd.DataFrame({"event_id": [101],
                                  "ts": pd.to_datetime([30 * W],
                                                       unit="us"),
                                  "user_id": [9]})
        late_file.to_parquet(os.path.join(rd_, "batch-900.parquet"),
                             index=False)
        r3 = job.run_cycle()
        # re-armed: min(80W, 30W) = 30W < current 40W — wm holds at 40W
        assert r3["watermark_us"] == 40 * W
        # and the re-arrived rows behind the watermark route late
        assert r3["late"] == 1


class TestOutOfOrderArrivals:
    """With allowed lateness, in-horizon out-of-order arrivals must
    not lose pairs: the match kernel is arrival-order-insensitive (a
    pair emits in the later-ARRIVING side's cycle) and the eviction
    bounds keep the earlier side in state."""

    def test_right_arriving_before_left_still_pairs(self, ray_session,
                                                    tmp_path):
        # purchase (event-time AFTER the click) ARRIVES first; the
        # click arrives next cycle, still on-time under lateness
        inp = _stage(tmp_path, [
            [(2, 150, 7, "purchase"), (9, 200, 8, "view")],
            [(1, 100, 7, "click")],            # ts 100 < wm? no: lateness
        ])
        job = _job(tmp_path, inp, "o1", allowed_lateness_s=1)
        t = job.run_all()
        assert t["late"] == 0
        m = _matched(job)
        assert [(int(r.req_id), int(r.resp_id))
                for r in m.itertuples()] == [(1, 2)]

    def test_jittered_arrivals_equal_batch_join_both_engines(
            self, ray_session, tmp_path):
        rng = np.random.RandomState(13)
        SEC = 1_000_000
        rows = []
        for eid in range(400):
            rows.append((eid, int(rng.randint(0, 2000)) * SEC,
                         int(rng.randint(0, 10)),
                         str(rng.choice(["click", "purchase", "view"]))))
        # arrival cycle = 500s epoch + 0/1 jitter for every 3rd event
        batches = [[] for _ in range(6)]
        for r in rows:
            batches[r[1] // (500 * SEC) + (r[0] % 3 == 0)].append(r)
        inp = _stage(tmp_path, [b for b in batches if b])
        # batch-join expectation (window = 100 s)
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type"])
        l = df[df["event_type"] == "click"]
        r = df[df["event_type"] == "purchase"]
        j = l.merge(r, on="user_id", suffixes=("_l", "_r"))
        j = j[(j["ts_r"] > j["ts_l"]) & (j["ts_r"] <= j["ts_l"] + W)]
        exp = sorted(zip(j["event_id_l"], j["event_id_r"]))
        assert exp, "fixture must produce pairs"
        for name, kw in [("op", {"ray_cycle_threshold": 10**9}),
                         ("od", {"ray_cycle_threshold": 0,
                                 "num_buckets": 4})]:
            job = _job(tmp_path, inp, name, allowed_lateness_s=600,
                       **kw)
            t = job.run_all()
            assert t["late"] == 0
            m = _matched(job)
            got = sorted(zip(m["req_id"].astype(int),
                             m["resp_id"].astype(int)))
            assert got == exp
