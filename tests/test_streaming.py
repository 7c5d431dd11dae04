"""Streaming driver tests: watermarks, late-data routing, sessions
spanning micro-batches, and kill/resume determinism from checkpoint —
the engine's analogues of the reference's result-reuse and
cleanup-on-failure behaviours (``imagor_test.go:945-1116, 2756-2987``)."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pytest

from imagor_ray.pipelines.streaming import StreamingSessionJob


def write_stream(tmp_path, batches, **parquet_kw):
    """batches: list of list[(conv, ts_str)]; one parquet file per batch
    (``parquet_kw`` goes to the parquet writer)."""
    d = str(tmp_path / "stream")
    os.makedirs(d, exist_ok=True)
    for i, rows in enumerate(batches):
        df = pd.DataFrame({
            "conv_id": [r[0] for r in rows],
            "turn_idx": np.arange(len(rows), dtype="int32"),
            "role": "user",
            "text": "x",
            "tool": "click",
            "ts": pd.to_datetime([r[1] for r in rows]).astype("datetime64[us]"),
        })
        df.to_parquet(os.path.join(d, f"batch-{i:05d}.parquet"), index=False,
                      **parquet_kw)
    return d


class TestStreamingSessions:
    def test_session_spanning_micro_batches_closes_once(self, tmp_path):
        stream = write_stream(tmp_path, [
            [("a", "2024-01-01 00:00:00"), ("a", "2024-01-01 00:10:00")],
            # continues session a (gap < 30min), starts b
            [("a", "2024-01-01 00:30:00"), ("b", "2024-01-01 01:00:00")],
            # far future turn advances the watermark past a's end + gap
            [("c", "2024-01-01 12:00:00")],
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "state"), gap_s=1800)
        results = job.run_all()
        assert len(results) == 3
        closed = job.closed_sessions()
        # a (3 turns, one session) and b closed by cycle 3's watermark
        got = {(r.conv_id, r.n_turns) for r in closed.itertuples()}
        assert ("a", 3) in got and ("b", 1) in got
        # c still open
        open_df = job.cp.load_open_sessions()
        assert open_df["conv_id"].tolist() == ["c"]
        job.flush()
        final = job.closed_sessions()
        assert len(final) == 3
        assert final["n_turns"].sum() == 5

    def test_late_rows_routed_to_dead_letter(self, tmp_path):
        stream = write_stream(tmp_path, [
            [("a", "2024-01-02 00:00:00")],
            # ts before the watermark established by batch 0 → late
            [("b", "2024-01-01 00:00:00"), ("c", "2024-01-02 01:00:00")],
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "state"), gap_s=1800)
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r0["late"] == 0
        assert r1["late"] == 1
        state = job.cp.load()
        assert state["late_rows"] == 1
        late_files = os.listdir(job.late_dir)
        assert len(late_files) == 1
        late = pd.read_parquet(os.path.join(job.late_dir, late_files[0]))
        assert late["conv_id"].tolist() == ["b"]

    def test_allowed_lateness_admits_rows(self, tmp_path):
        stream = write_stream(tmp_path, [
            [("a", "2024-01-02 00:00:00")],
            [("b", "2024-01-01 23:30:00")],  # 30 min "late"
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "state"),
                                  gap_s=1800, allowed_lateness_s=3600)
        job.run_all()
        assert job.cp.load()["late_rows"] == 0

    def test_kill_and_resume_is_deterministic(self, tmp_path):
        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
            [("a", "2024-01-01 02:00:00")],
            [("c", "2024-01-01 09:00:00")],
            [("d", "2024-01-02 00:00:00")],
        ]
        s1 = write_stream(tmp_path, batches)
        # uninterrupted run
        job1 = StreamingSessionJob(s1, str(tmp_path / "state1"), gap_s=1800)
        job1.run_all()
        job1.flush()
        want = job1.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)

        # interrupted run: process 2 cycles, "kill", new driver resumes
        job2a = StreamingSessionJob(s1, str(tmp_path / "state2"), gap_s=1800)
        job2a.run_cycle()
        job2a.run_cycle()
        del job2a
        job2b = StreamingSessionJob(s1, str(tmp_path / "state2"), gap_s=1800)
        job2b.run_all()
        job2b.flush()
        got = job2b.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)

    def test_watermark_monotone(self, tmp_path):
        stream = write_stream(tmp_path, [
            [("a", "2024-01-03 00:00:00")],
            [("b", "2024-01-02 00:00:00")],  # older batch cannot regress wm
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "state"), gap_s=1800)
        r0 = job.run_cycle()
        r1 = job.run_cycle()
        assert r1["watermark_us"] == r0["watermark_us"]


class TestSkewedSessionize:
    def test_zipf_skew_salted_equals_plain(self, ray_session):
        import ray.data as rd

        from imagor_ray.sources.datagen import gen_transcripts
        from imagor_ray.stages.windows import session_windows

        df = gen_transcripts(n_convs=40, mean_turns=12, seed=7, zipf_a=1.3)
        # verify the generator actually produced skew (a hot conversation)
        sizes = df.groupby("conv_id").size()
        assert sizes.max() >= 5 * sizes.median()

        ds = rd.from_pandas(df)
        plain = (
            session_windows(ds, gap_s=900)
            .to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)
        )
        ds2 = rd.from_pandas(df)
        salted = (
            session_windows(ds2, gap_s=900, salt_bucket_s=4 * 3600)
            .to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)
        )
        for c in ("session_start", "session_end"):
            plain[c] = plain[c].astype("datetime64[us]")
            salted[c] = salted[c].astype("datetime64[us]")
        pd.testing.assert_frame_equal(plain, salted, check_dtype=False)


class TestStreamingFlagship:
    def test_full_dag_and_kill_resume_bytes(self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import StreamingFlagshipJob

        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
            [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00")],
            [("d", "2024-01-02 00:00:00")],
        ]
        s = write_stream(tmp_path, batches)

        j1 = StreamingFlagshipJob(s, str(tmp_path / "s1"), gap_s=1800, num_buckets=2)
        j1.run_all()
        j1.flush()
        want_sha = j1.processed_sha1()
        want_sessions = j1.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)
        assert want_sessions["n_turns"].sum() == 5

        # processed output carries the chain results + signatures
        import pandas as pd
        import os
        cdir = os.path.join(str(tmp_path / "s1"), "processed_turns", "cycle-00000")
        part = pd.concat([
            pd.read_parquet(os.path.join(cdir, f))
            for f in sorted(os.listdir(cdir)) if f.endswith(".parquet")
        ])
        assert {"path", "signature", "tool_kind"} <= set(part.columns)

        # interrupted run resumes to identical bytes
        j2 = StreamingFlagshipJob(s, str(tmp_path / "s2"), gap_s=1800, num_buckets=2)
        j2.run_cycle()
        del j2
        j3 = StreamingFlagshipJob(s, str(tmp_path / "s2"), gap_s=1800, num_buckets=2)
        j3.run_all()
        j3.flush()
        assert j3.processed_sha1() == want_sha
        got_sessions = j3.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got_sessions, want_sessions)


class TestCrashBetweenStageAndCommit:
    """End-to-end guarantee for the round-1 advice fix: a crash AFTER the
    post-cycle open-session snapshot is staged but BEFORE checkpoint.json
    commits must replay the cycle against the PRE-cycle snapshot and
    converge to the uninterrupted run's exact output."""

    @staticmethod
    def _mk_stream(tmp_path, name):
        import numpy as np

        rng = np.random.default_rng(7)
        rows = []
        base = pd.Timestamp("2024-03-01 00:00:00")
        for day in range(3):
            for i in range(120):
                conv = f"c{rng.integers(0, 12):03d}"
                ts = base + pd.Timedelta(days=day, seconds=int(rng.integers(0, 86000)))
                rows.append({"conv_id": conv, "ts": ts})
        df = pd.DataFrame(rows).sort_values("ts").reset_index(drop=True)
        input_dir = tmp_path / name
        input_dir.mkdir()
        for day, g in df.groupby(df["ts"].dt.floor("D")):
            g.to_parquet(input_dir / f"batch-{day:%Y%m%d}.parquet", index=False)
        return str(input_dir)

    def test_replay_converges_byte_identically(self, tmp_path):
        from imagor_ray.pipelines.streaming import StreamingSessionJob

        input_dir = self._mk_stream(tmp_path, "in")

        # uninterrupted reference run
        ref = StreamingSessionJob(input_dir, str(tmp_path / "ref"), gap_s=3600)
        ref.run_all()
        ref.flush()
        want = ref.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)

        # crashing run: cycle 1's checkpoint save raises AFTER the
        # open-session snapshot was staged
        job = StreamingSessionJob(input_dir, str(tmp_path / "crash"), gap_s=3600)
        job.run_cycle()  # cycle 0 commits normally
        orig_save = job.cp.save
        calls = {"n": 0}

        def exploding_save(state):
            calls["n"] += 1
            raise RuntimeError("simulated crash before checkpoint commit")

        job.cp.save = exploding_save
        with pytest.raises(RuntimeError):
            job.run_cycle()  # staged open-00001.parquet, checkpoint NOT advanced
        assert calls["n"] == 1
        job.cp.save = orig_save

        # "restart": a fresh job object over the same state dir replays
        # cycle 1 from the pre-cycle snapshot, then finishes the stream
        job2 = StreamingSessionJob(input_dir, str(tmp_path / "crash"), gap_s=3600)
        job2.run_all()
        job2.flush()
        got = job2.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want)


def test_open_snapshot_byte_stable_across_runs(tmp_path, ray_session):
    """The staged open-session snapshot must be byte-identical between a
    run and its replay even when the cycle runs on the hash exchange
    (whose reducer output order varies) — still_open is sorted before
    staging."""
    rows = [
        (f"c{i % 23:03d}", f"2024-06-01 {i % 24:02d}:{i % 60:02d}:00")
        for i in range(400)
    ]
    stream = write_stream(tmp_path, [rows])
    old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
    try:
        StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0  # force the exchange
        shas = []
        for name in ("sA", "sB"):
            job = StreamingSessionJob(stream, str(tmp_path / name), gap_s=1800)
            job.run_cycle()
            state = job.cp.load()
            snap = os.path.join(job.cp.path, state["open_sessions_file"])
            with open(snap, "rb") as f:
                import hashlib
                shas.append(hashlib.sha1(f.read()).hexdigest())
    finally:
        StreamingSessionJob.RAY_CYCLE_THRESHOLD = old
    assert shas[0] == shas[1]


def test_statless_stream_matches_stats_stream(ray_session, tmp_path):
    """A session stream written without parquet statistics runs its
    exchange cycles (threshold 0) on the zone-map reader's ts scan:
    its closed, late and open output and every watermark equal those
    of the same rows written with statistics. Row groups of two put an
    on-time, an all-late and a straddling group in cycle 1."""
    import pyarrow.parquet as pq

    from tests.test_keyed_stream import _digests

    batches = [
        [(f"c{i % 5}", f"2024-01-01 00:{3 * i:02d}:00") for i in range(12)],
        [("c1", "2024-01-01 02:00:00"), ("c2", "2024-01-01 02:10:00"),
         ("zz", "2023-12-31 00:00:00"), ("yy", "2023-12-31 00:05:00"),
         ("xx", "2023-12-31 00:10:00"), ("c3", "2024-01-01 02:20:00")],
        [("d", "2024-01-02 00:00:00"), ("c4", "2024-01-02 00:10:00")],
    ]

    def run(name, **parquet_kw):
        stream = write_stream(tmp_path / name, batches, row_group_size=2,
                              **parquet_kw)
        state_dir = str(tmp_path / name / "state")
        job = StreamingSessionJob(stream, state_dir, gap_s=1800,
                                  ray_cycle_threshold=0)
        results = job.run_all()
        return stream, results, job.cp.load(), _digests(state_dir)

    _, r_stats, cp_stats, f_stats = run("stats")
    stream, r_none, cp_none, f_none = run("none", write_statistics=False)
    md = pq.ParquetFile(os.path.join(stream, "batch-00001.parquet")).metadata
    assert md.num_row_groups == 3
    assert all(md.row_group(i).column(5).statistics is None
               for i in range(3))
    assert r_none == r_stats
    assert [r["late"] for r in r_stats] == [0, 3, 0]
    assert r_stats[-1]["open"] > 0 and sum(r["closed"] for r in r_stats) > 0
    assert cp_none == cp_stats
    assert f_none == f_stats
    assert any(k.startswith("late") for k in f_stats)


def _output_digests(state_dir: str) -> dict:
    """sha1 of every file under a stream state dir but the checkpoint,
    by relative name; a sink manifest (it records wall-clock write
    timings) by name only."""
    from tests.test_keyed_stream import _digests

    return {k: None if "_manifest" in k else v
            for k, v in _digests(state_dir).items()}


def test_nanosecond_pre_epoch_row_routes_late_in_both_placements(
        ray_session, tmp_path):
    """A ``timestamp[ns]`` stream whose first row sits 500 ns before the
    epoch: µs conversion floors it to −1 µs, below the initial watermark
    0, in the zone-map count and in both placements' late filters alike,
    so the in-process and exchange runs route it late and write the
    same files."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    stream = tmp_path / "stream"
    stream.mkdir()
    pq.write_table(pa.table({
        "conv_id": ["a", "a", "b"],
        "turn_idx": pa.array([0, 1, 0], pa.int32()),
        "role": ["user"] * 3, "text": ["x"] * 3, "tool": ["click"] * 3,
        "ts": pa.array([-500, 60 * 10**9, 120 * 10**9], pa.timestamp("ns")),
    }), str(stream / "batch-00000.parquet"))

    runs = []
    for name, thr in (("local", 10**9), ("exchange", 0)):
        job = StreamingSessionJob(str(stream), str(tmp_path / name),
                                  gap_s=30, ray_cycle_threshold=thr)
        results = job.run_all()
        job.flush()
        runs.append((results, _output_digests(job.cp.path)))
        late = pd.read_parquet(os.path.join(job.late_dir,
                                            "late-batch-00000.parquet"))
        assert late["turn_idx"].tolist() == [0]
    assert runs[0][0][0]["late"] == 1 and runs[0][0][0]["rows"] == 2
    assert runs[0] == runs[1]


class TestDatasetNativeCycle:
    """Above RAY_CYCLE_THRESHOLD a cycle runs on the hash exchange
    end-to-end (pinned read → late split → per-bucket chain→sink +
    sessionize). The two paths must write the same files with the same
    bytes and identical session/late accounting, at two buckets and at
    one."""

    def test_paths_byte_identical(self, ray_session, tmp_path, monkeypatch):
        import ray
        import ray.data

        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )
        from imagor_ray.state.sink import ExactlyOnceSink

        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00"),
             ("e", "2024-01-01 00:06:00"), ("f", "2024-01-01 00:07:00")],
            [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00"),
             ("zz", "2023-12-31 00:00:00")],  # late row in cycle 1
            [("d", "2024-01-02 00:00:00")],
        ]
        s = write_stream(tmp_path, batches)

        ray_calls = []

        def spy(name, fn):
            def call(*a, **kw):
                ray_calls.append(name)
                return fn(*a, **kw)
            return call

        for nb in (2, 1):
            # small cycles start no Ray work: the in-process run calls
            # the per-bucket body on the driver
            with monkeypatch.context() as m:
                for mod, attr in ((ray.data, "from_pandas"),
                                  (ray.data, "read_parquet"),
                                  (ExactlyOnceSink, "write"),
                                  (ray, "cluster_resources")):
                    m.setattr(mod, attr, spy(attr, getattr(mod, attr)))
                jp = StreamingFlagshipJob(s, str(tmp_path / f"pd{nb}"),
                                          gap_s=1800, num_buckets=nb)
                rp = jp.run_all()
                jp.flush()
            assert ray_calls == []

            old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
            try:
                StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0  # the exchange
                jd = StreamingFlagshipJob(s, str(tmp_path / f"ds{nb}"),
                                          gap_s=1800, num_buckets=nb)
                rds = jd.run_all()
                jd.flush()
            finally:
                StreamingSessionJob.RAY_CYCLE_THRESHOLD = old

            # identical per-cycle accounting (rows, late, closed, watermark)
            assert rds == rp
            # byte-identical exactly-once sink output
            assert jd.processed_sha1() == jp.processed_sha1()
            # one layout: the same files (sink parts, closed, late, open
            # snapshot) with the same bytes in both placements
            assert _output_digests(jd.cp.path) == _output_digests(jp.cp.path)
            # identical closed sessions
            key = ["conv_id", "session_start"]
            pd.testing.assert_frame_equal(
                jd.closed_sessions().sort_values(key).reset_index(drop=True),
                jp.closed_sessions().sort_values(key).reset_index(drop=True),
            )
            # late routing captured the out-of-order row in both
            assert sum(r["late"] for r in rds) == 1
            late_files = os.listdir(jd.late_dir)
            assert len(late_files) == 1
            late = pd.read_parquet(os.path.join(jd.late_dir, late_files[0]))
            assert late["conv_id"].tolist() == ["zz"]

    def test_dataset_cycle_kill_resume(self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
            [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00")],
            [("d", "2024-01-02 00:00:00")],
        ]
        s = write_stream(tmp_path, batches)
        old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0
            j1 = StreamingFlagshipJob(s, str(tmp_path / "w1"), gap_s=1800, num_buckets=2)
            j1.run_all()
            j1.flush()
            want = j1.processed_sha1()

            j2 = StreamingFlagshipJob(s, str(tmp_path / "w2"), gap_s=1800, num_buckets=2)
            j2.run_cycle()
            del j2
            j3 = StreamingFlagshipJob(s, str(tmp_path / "w2"), gap_s=1800, num_buckets=2)
            j3.run_all()
            j3.flush()
            assert j3.processed_sha1() == want
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old


@pytest.mark.parametrize("first,replay", [(10**9, 0), (0, 10**9)],
                         ids=["in_process_then_exchange",
                              "exchange_then_in_process"])
def test_replay_after_threshold_change(ray_session, tmp_path, first, replay):
    """A cycle that routed a late row and closed a session loses its
    commit; a fresh job replays it under the OTHER placement (the
    threshold changed between runs). Both placements write the late and
    closed outputs as single files, so the replay overwrites the lost
    cycle's files and converges on the uncrashed run's bytes."""
    batches = [
        [("a", "2024-01-01 00:00:00"), ("c", "2024-01-01 01:00:00")],
        [("a", "2024-01-01 02:00:00"), ("b", "2023-12-31 00:00:00")],
        [("d", "2024-01-02 00:00:00")],
    ]
    s = write_stream(tmp_path, batches)
    ref = StreamingSessionJob(s, str(tmp_path / "ref"), gap_s=1800)
    ref.run_all()
    ref.flush()

    sd = str(tmp_path / "crashed")
    job = StreamingSessionJob(s, sd, gap_s=1800, ray_cycle_threshold=first)
    job.run_cycle()

    def lost_commit(state):
        raise OSError("commit lost")

    job.cp.save = lost_commit
    with pytest.raises(OSError, match="commit lost"):
        job.run_cycle()
    late_path = os.path.join(job.late_dir, "late-batch-00001.parquet")
    closed_path = os.path.join(job.closed_dir, "closed-00001.parquet")
    # the lost cycle's outputs are single files in either placement
    assert os.path.isfile(late_path) and os.path.isfile(closed_path)

    again = StreamingSessionJob(s, sd, gap_s=1800,
                                ray_cycle_threshold=replay)
    again.run_all()
    again.flush()
    assert os.path.isfile(late_path) and os.path.isfile(closed_path)
    assert pd.read_parquet(late_path)["conv_id"].tolist() == ["b"]
    assert _output_digests(sd) == _output_digests(ref.cp.path)
    key = ["conv_id", "session_start"]
    pd.testing.assert_frame_equal(
        again.closed_sessions().sort_values(key).reset_index(drop=True),
        ref.closed_sessions().sort_values(key).reset_index(drop=True))


def _session_job(tmp_path):
    batches = [
        [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
        [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00"),
         ("zz", "2023-12-31 00:00:00")],  # late row in cycle 1
        [("d", "2024-01-02 00:00:00")],
    ]
    job = StreamingSessionJob(write_stream(tmp_path, batches),
                              str(tmp_path / "state"), gap_s=1800)
    job.run_all()
    job.flush()


def _join_job(tmp_path, **kw):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob
    from tests.test_keyed_stream import _stage

    job = StreamingJoinJob(_stage(str(tmp_path), "in"),
                           str(tmp_path / "state"), allowed_lateness_s=7200,
                           **kw)
    job.run_all()
    job.finalize()


@pytest.mark.parametrize("run", [
    _session_job,
    lambda p: _join_job(p, ray_cycle_threshold=10**9),
    lambda p: _join_job(p, ray_cycle_threshold=0, num_buckets=4),
], ids=["session_in_process", "join_in_process", "join_bucketed"])
def test_outputs_durable_before_commit(tmp_path, monkeypatch, run):
    """Power-loss durability of the stream jobs' single-file writer:
    every output file is fsynced before its rename, and every directory
    a cycle renamed into is fsynced exactly once before the checkpoint
    commit that makes the cycle visible."""
    from imagor_ray.state.checkpoint import Checkpoint
    from imagor_ray.state.storage import LocalStorage

    events = []

    def spy(kind, fn, arg):
        def call(*a):
            events.append((kind, arg(*a)))
            return fn(*a)
        return call

    monkeypatch.setattr(os, "replace", spy(
        "replace", os.replace, lambda src, dst: (src, dst)))
    monkeypatch.setattr(LocalStorage, "fsync_file", spy(
        "fsync_file", LocalStorage.fsync_file, lambda self, f: f.name))
    monkeypatch.setattr(LocalStorage, "fsync_dir", spy(
        "fsync_dir", LocalStorage.fsync_dir, lambda self, d: d))
    monkeypatch.setattr(Checkpoint, "save", spy(
        "save", Checkpoint.save, lambda self, state: self.path))
    run(tmp_path)

    state_dir = str(tmp_path / "state")
    emitted, fsynced, unsynced_dirs, synced_dirs = set(), set(), set(), []
    for kind, arg in events:
        if kind == "fsync_file":
            fsynced.add(arg)
        elif kind == "replace" and os.path.dirname(arg[1]) != state_dir:
            assert arg[0] in fsynced, f"renamed before fsync: {arg[1]}"
            emitted.add(arg[1])
            unsynced_dirs.add(os.path.dirname(arg[1]))
        elif kind == "fsync_dir":
            assert arg not in synced_dirs, f"{arg} fsynced twice in a cycle"
            synced_dirs.append(arg)
            unsynced_dirs.discard(arg)
        elif kind == "save":
            assert not unsynced_dirs, f"commit before dir fsync: {unsynced_dirs}"
            synced_dirs = []
    assert not unsynced_dirs
    outputs = {os.path.join(dp, f) for dp, _, fs in os.walk(state_dir)
               for f in fs if dp != state_dir}
    assert outputs and outputs == emitted


def test_exchange_late_output_durable_before_commit(ray_session, tmp_path,
                                                    monkeypatch):
    """A hash-exchange session cycle (threshold 0) that routes a late row
    writes it from the driver as the single file ``late-{file}`` the
    in-process placement writes: fsynced before its rename, and
    ``late_dir`` fsynced before the checkpoint commit of that cycle."""
    from imagor_ray.state.checkpoint import Checkpoint
    from imagor_ray.state.storage import LocalStorage

    events = []

    def spy(kind, fn, arg):
        def call(*a):
            events.append((kind, arg(*a)))
            return fn(*a)
        return call

    monkeypatch.setattr(os, "replace", spy(
        "replace", os.replace, lambda src, dst: (src, dst)))
    monkeypatch.setattr(LocalStorage, "fsync_file", spy(
        "fsync_file", LocalStorage.fsync_file, lambda self, f: f.name))
    monkeypatch.setattr(LocalStorage, "fsync_dir", spy(
        "fsync_dir", LocalStorage.fsync_dir, lambda self, d: d))
    monkeypatch.setattr(Checkpoint, "save", spy(
        "save", Checkpoint.save, lambda self, state: state["cycles"]))
    stream = write_stream(tmp_path, [
        [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
        [("a", "2024-01-01 02:00:00"), ("zz", "2023-12-31 00:00:00")],
    ])
    job = StreamingSessionJob(stream, str(tmp_path / "state"), gap_s=1800,
                              ray_cycle_threshold=0)
    job.run_all()

    late_file = os.path.join(job.late_dir, "late-batch-00001.parquet")
    assert os.listdir(job.late_dir) == ["late-batch-00001.parquet"]
    assert os.path.isfile(late_file)
    assert pd.read_parquet(late_file)["conv_id"].tolist() == ["zz"]
    renamed = next(i for i, (k, a) in enumerate(events)
                   if k == "replace" and a[1] == late_file)
    assert ("fsync_file", events[renamed][1][0]) in events[:renamed]
    # late_dir is fsynced at every commit: find the one after the rename
    dir_synced = events.index(("fsync_dir", job.late_dir), renamed)
    # the commit that makes cycle 1 visible comes after the dir fsync
    assert events.index(("save", 2)) > dir_synced


class TestCrashPointSweep:
    """Exhaustive kill-point coverage: for EVERY cycle k, run the
    flagship streaming job, crash it at cycle k's checkpoint commit,
    restart, and require byte-identical sink output and identical
    closed sessions vs the uninterrupted run — the kill/resume contract
    at every boundary, not just one."""

    def test_all_kill_points_converge(self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import StreamingFlagshipJob

        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
            [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00")],
            [("b", "2024-01-01 09:00:00"), ("d", "2024-01-01 10:00:00")],
            [("e", "2024-01-02 00:00:00")],
        ]
        s = write_stream(tmp_path, batches)
        ref = StreamingFlagshipJob(s, str(tmp_path / "ref"), gap_s=1800,
                                   num_buckets=2)
        ref.run_all()
        ref.flush()
        want_sha = ref.processed_sha1()
        want_sessions = ref.closed_sessions().sort_values(
            ["conv_id", "session_start"]).reset_index(drop=True)

        for kill_at in range(len(batches)):
            state = str(tmp_path / f"kill{kill_at}")
            job = StreamingFlagshipJob(s, state, gap_s=1800, num_buckets=2)
            calls = {"n": 0}
            orig_save = job.cp.save

            def crashing_save(st, _k=kill_at, _c=calls, _o=orig_save):
                if _c["n"] == _k:
                    _c["n"] += 1
                    raise RuntimeError(f"killed at cycle {_k}")
                _c["n"] += 1
                _o(st)

            job.cp.save = crashing_save
            with pytest.raises(RuntimeError):
                job.run_all()
            # fresh driver resumes from the last committed checkpoint
            job2 = StreamingFlagshipJob(s, state, gap_s=1800, num_buckets=2)
            job2.run_all()
            job2.flush()
            assert job2.processed_sha1() == want_sha, f"kill at {kill_at}"
            got = job2.closed_sessions().sort_values(
                ["conv_id", "session_start"]).reset_index(drop=True)
            pd.testing.assert_frame_equal(got, want_sessions)


def test_cli_stream_end_to_end(tmp_path):
    """`python -m imagor_ray stream` drives the full streaming job from
    the command line (cmd/imagor analogue)."""
    import json
    import subprocess
    import sys

    s = write_stream(tmp_path, [
        [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
        [("c", "2024-01-02 00:00:00")],
    ])
    r = subprocess.run(
        [sys.executable, "-m", "imagor_ray", "stream",
         "--input", s, "--state", str(tmp_path / "st"),
         "--buckets", "2", "--flush"],
        capture_output=True, text=True, cwd="/root/repo",
        env={**__import__("os").environ, "RAY_ADDRESS": "local"},
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["cycles"] == 2
    assert out["closed"] == 3
    # metrics subcommand reads the same state dir
    r2 = subprocess.run(
        [sys.executable, "-m", "imagor_ray", "metrics",
         "--state", str(tmp_path / "st")],
        capture_output=True, text=True, cwd="/root/repo",
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    rep = json.loads(r2.stdout.strip().splitlines()[-1])
    assert rep["streaming"]["cycles"] == 2


class TestTasksEngineCycle:
    """cycle_engine='tasks' (raw two-stage hash exchange) must be
    byte-identical to the in-process path, and resume from a mid-stream
    kill the same way."""

    BATCHES = [
        [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00"),
         ("e", "2024-01-01 00:06:00"), ("f", "2024-01-01 00:07:00")],
        [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00"),
         ("zz", "2023-12-31 00:00:00")],  # late row in cycle 1
        [("d", "2024-01-02 00:00:00")],
    ]

    def test_three_engines_byte_identical(self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        s = write_stream(tmp_path, self.BATCHES)
        jp = StreamingFlagshipJob(s, str(tmp_path / "pd"), gap_s=1800,
                                  num_buckets=2)
        rp = jp.run_all()
        jp.flush()

        old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0
            jobs = {}
            for eng in ("tasks",):
                j = StreamingFlagshipJob(s, str(tmp_path / eng), gap_s=1800,
                                         num_buckets=2, cycle_engine=eng)
                r = j.run_all()
                j.flush()
                jobs[eng] = (j, r)
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old

        key = ["conv_id", "session_start"]
        for eng, (j, r) in jobs.items():
            assert r == rp, eng
            assert j.processed_sha1() == jp.processed_sha1(), eng
            pd.testing.assert_frame_equal(
                j.closed_sessions().sort_values(key).reset_index(drop=True),
                jp.closed_sessions().sort_values(key).reset_index(drop=True),
            )
            late_files = os.listdir(j.late_dir)
            assert len(late_files) == 1, eng
            late = pd.read_parquet(os.path.join(j.late_dir, late_files[0]))
            assert late["conv_id"].tolist() == ["zz"], eng

    def test_tasks_engine_kill_resume(self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        s = write_stream(tmp_path, self.BATCHES)
        old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0
            j1 = StreamingFlagshipJob(s, str(tmp_path / "w1"), gap_s=1800,
                                      num_buckets=2, cycle_engine="tasks")
            j1.run_all()
            j1.flush()
            want = j1.processed_sha1()

            j2 = StreamingFlagshipJob(s, str(tmp_path / "w2"), gap_s=1800,
                                      num_buckets=2, cycle_engine="tasks")
            j2.run_cycle()
            del j2
            # a restart with the default engine must also converge
            j3 = StreamingFlagshipJob(s, str(tmp_path / "w2"), gap_s=1800,
                                      num_buckets=2)
            j3.run_all()
            j3.flush()
            assert j3.processed_sha1() == want
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old

    @pytest.mark.parametrize("engine", ["spark", "dataset"])
    def test_unknown_engine_rejected(self, tmp_path, engine):
        from imagor_ray.pipelines.streaming import StreamingSessionJob

        with pytest.raises(ValueError):
            StreamingSessionJob(str(tmp_path), str(tmp_path / "st"),
                                cycle_engine=engine)


class TestPipelinedCycles:
    """``run_all`` on the tasks engine pipelines consecutive cycles:
    reducer (N, b)'s output ObjectRef feeds reducer (N+1, b) directly
    and checkpoints commit strictly in cycle order with PIPELINE_DEPTH
    cycles in flight. Byte-identity with the in-process path is
    already asserted by TestTasksEngineCycle (run_all routes large
    cycles through the pipelined loop); here: session chains spanning more
    cycles than the pipeline depth, a mid-pipeline crash, and the
    small-cycle drain/fallback."""

    @staticmethod
    def _mk_batches(n_cycles: int = 6):
        base = pd.Timestamp("2024-01-01")
        batches = []
        for c in range(n_cycles):
            t0 = base + pd.Timedelta(hours=3 * c)
            batches.append([
                ("a", str(t0)),
                (f"c{c}", str(t0 + pd.Timedelta(minutes=1))),
                (f"c{c}", str(t0 + pd.Timedelta(minutes=5))),
            ])
        return batches

    def _run(self, tmp_path, name, stream, depth, threshold=0,
             engine="tasks"):
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        old_t = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        old_d = StreamingSessionJob.PIPELINE_DEPTH
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = threshold
            StreamingSessionJob.PIPELINE_DEPTH = depth
            j = StreamingFlagshipJob(stream, str(tmp_path / name),
                                     gap_s=1800, num_buckets=2,
                                     cycle_engine=engine)
            r = j.run_all()
            # every prefetched read was taken by its cycle: no read is
            # left in flight once run_all returns
            assert j._prefetch == {}
            j.flush()
            return j, r
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old_t
            StreamingSessionJob.PIPELINE_DEPTH = old_d

    def test_deep_stream_matches_unpipelined(self, ray_session, tmp_path):
        stream = write_stream(tmp_path, self._mk_batches(6))
        j1, r1 = self._run(tmp_path, "pipe", stream, depth=2)
        j2, r2 = self._run(tmp_path, "nopipe", stream, depth=1)
        assert r1 == r2
        assert j1.processed_sha1() == j2.processed_sha1()
        key = ["conv_id", "session_start"]
        pd.testing.assert_frame_equal(
            j1.closed_sessions().sort_values(key).reset_index(drop=True),
            j2.closed_sessions().sort_values(key).reset_index(drop=True))

    def test_crash_mid_pipeline_resumes_byte_identically(
            self, ray_session, tmp_path):
        """Kill the driver after cycle 1's COMMIT while cycles 2-3 are
        in flight (their sink/closed partitions may be partially on
        disk, their checkpoints are not): the resume must replay the
        uncommitted cycles over the partial output and converge to the
        reference bytes."""
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        stream = write_stream(tmp_path, self._mk_batches(6))
        ref, _ = self._run(tmp_path, "ref", stream, depth=2)
        want = ref.processed_sha1()

        old_t = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        orig_commit = StreamingSessionJob._commit_cycle
        calls = {"n": 0}

        def bomb(self, *a, **k):
            out = orig_commit(self, *a, **k)
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("injected driver kill")
            return out

        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0
            StreamingSessionJob._commit_cycle = bomb
            j1 = StreamingFlagshipJob(stream, str(tmp_path / "crash"),
                                      gap_s=1800, num_buckets=2,
                                      cycle_engine="tasks")
            with pytest.raises(RuntimeError, match="injected"):
                j1.run_all()
            del j1
        finally:
            StreamingSessionJob._commit_cycle = orig_commit
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old_t

        # exactly two cycles committed; later cycles' partial output is
        # on disk awaiting replay
        j2, r2 = self._run(tmp_path, "crash", stream, depth=2)
        assert len(r2) == 4  # resumes from cycle 2
        assert j2.processed_sha1() == want
        key = ["conv_id", "session_start"]
        pd.testing.assert_frame_equal(
            j2.closed_sessions().sort_values(key).reset_index(drop=True),
            ref.closed_sessions().sort_values(key).reset_index(drop=True))

    def test_mixed_small_and_large_cycles(self, ray_session, tmp_path):
        """Small cycles drain the pipeline and take the pandas path;
        the stream's outputs still match an all-pandas run."""
        batches = self._mk_batches(5)
        batches[1] = batches[1][:1]   # 1-row cycle → pandas path
        batches[3] = batches[3][:2]   # 2-row cycle → pandas path
        stream = write_stream(tmp_path, batches)
        # threshold 2: 3-row cycles go through the pipelined exchange
        jm, rm = self._run(tmp_path, "mixed", stream, depth=2, threshold=2)
        jp, rp = self._run(tmp_path, "allpd", stream, depth=2,
                           threshold=10**9, engine="tasks")
        assert rm == rp
        assert jm.processed_sha1() == jp.processed_sha1()
        key = ["conv_id", "session_start"]
        pd.testing.assert_frame_equal(
            jm.closed_sessions().sort_values(key).reset_index(drop=True),
            jp.closed_sessions().sort_values(key).reset_index(drop=True))

    def test_each_cycle_reads_its_footer_once(self, ray_session, tmp_path,
                                              monkeypatch):
        """The pipelined loop hands the zone-map stats it read to the
        cycles it drains to, so a stream of mixed small and large
        cycles reads each file's footer exactly once."""
        from imagor_ray.pipelines import streaming

        batches = self._mk_batches(6)
        batches[1] = batches[1][:1]   # small cycles → in-process
        batches[4] = batches[4][:2]
        stream = write_stream(tmp_path, batches)
        calls = []
        orig = streaming.footer_late_stats

        def spy(path, wm):
            calls.append(os.path.basename(path))
            return orig(path, wm)

        monkeypatch.setattr(streaming, "footer_late_stats", spy)
        _, r = self._run(tmp_path, "mixed", stream, depth=2, threshold=2)
        assert len(r) == 6
        assert calls == sorted(os.listdir(stream))

    def test_giant_cycles_drain_to_unpipelined(self, ray_session, tmp_path):
        """Cycles above PIPELINE_ROW_MAX (pipelining measured
        net-negative for saturated cycles) drain the pipeline and run
        through the unpipelined entry ``_run_file`` — pinned by spying
        on it — and the stream's bytes still match a fully pipelined
        run."""
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob, StreamingSessionJob,
        )

        stream = write_stream(tmp_path, self._mk_batches(5))
        ref, rr = self._run(tmp_path, "piperef", stream, depth=2)

        old_m = StreamingSessionJob.PIPELINE_ROW_MAX
        orig_rf = StreamingSessionJob._run_file
        calls = {"n": 0}

        def spy_rf(self, *a, **k):
            calls["n"] += 1
            return orig_rf(self, *a, **k)

        try:
            # every 3-row cycle is now "giant" → all drain to _run_file
            StreamingSessionJob.PIPELINE_ROW_MAX = 2
            StreamingSessionJob._run_file = spy_rf
            jg, rg = self._run(tmp_path, "giant", stream, depth=2)
        finally:
            StreamingSessionJob.PIPELINE_ROW_MAX = old_m
            StreamingSessionJob._run_file = orig_rf

        assert calls["n"] == 5  # each giant cycle took the drained path
        assert rg == rr
        assert jg.processed_sha1() == ref.processed_sha1()
        key = ["conv_id", "session_start"]
        pd.testing.assert_frame_equal(
            jg.closed_sessions().sort_values(key).reset_index(drop=True),
            ref.closed_sessions().sort_values(key).reset_index(drop=True))


class TestOutOfOrderSessions:
    """Under allowed lateness, on-time arrivals may predate open
    summaries: the interval-hull sessionize must merge them backward,
    bridge two open summaries of one conversation, and stay
    byte-identical across both cycle paths."""

    def test_backward_merge_into_open_summary(self, tmp_path):
        stream = write_stream(tmp_path, [
            [("a", "2024-01-01 10:00:00"), ("a", "2024-01-01 10:20:00")],
            # arrives later but lands INSIDE the open summary's span —
            # the pre-hull kernel would split it into its own session
            [("a", "2024-01-01 10:10:00"), ("b", "2024-01-01 11:00:00")],
            [("c", "2024-01-03 00:00:00")],   # closes everything
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "st"),
                                  gap_s=1800,
                                  allowed_lateness_s=2 * 86_400)
        t = job.run_all()
        assert sum(r["late"] for r in t) == 0
        job.flush()
        closed = job.closed_sessions()
        a = closed[closed["conv_id"] == "a"]
        assert len(a) == 1
        assert int(a["n_turns"].iloc[0]) == 3
        assert str(a["session_start"].iloc[0]) == "2024-01-01 10:00:00"
        assert str(a["session_end"].iloc[0]) == "2024-01-01 10:20:00"

    def test_bridge_merges_two_open_summaries(self, tmp_path):
        # two sessions of conv a, 50 min apart (> 30 min gap), BOTH
        # still open under lateness; a late-arriving turn between them
        # is within gap of both -> one merged session
        stream = write_stream(tmp_path, [
            [("a", "2024-01-01 10:00:00"), ("a", "2024-01-01 10:50:00")],
            [("a", "2024-01-01 10:25:00")],   # bridges the two
            [("c", "2024-01-03 00:00:00")],
        ])
        job = StreamingSessionJob(stream, str(tmp_path / "st"),
                                  gap_s=1800,
                                  allowed_lateness_s=2 * 86_400)
        t = job.run_all()
        assert sum(r["late"] for r in t) == 0
        job.flush()
        a = job.closed_sessions().query("conv_id == 'a'")
        assert len(a) == 1
        assert int(a["n_turns"].iloc[0]) == 3
        assert str(a["session_start"].iloc[0]) == "2024-01-01 10:00:00"
        assert str(a["session_end"].iloc[0]) == "2024-01-01 10:50:00"

    def test_jittered_closed_equals_batch_three_engines(
            self, ray_session, tmp_path):
        from imagor_ray.pipelines.streaming import StreamingFlagshipJob

        rng = np.random.RandomState(17)
        HOUR = 3600
        rows = []
        for eid in range(240):
            t0 = pd.Timestamp("2024-01-01") + pd.Timedelta(
                seconds=int(rng.randint(0, 48 * HOUR)))
            rows.append((f"c{int(rng.randint(0, 12)):02d}",
                         t0.strftime("%Y-%m-%d %H:%M:%S"), eid))
        # arrival batch = 12h epoch + 1-batch jitter for every 3rd row
        batches = [[] for _ in range(6)]
        for conv, ts, eid in rows:
            ep = int((pd.Timestamp(ts) - pd.Timestamp("2024-01-01"))
                     .total_seconds()) // (12 * HOUR)
            batches[ep + (eid % 3 == 0)].append((conv, ts))
        stream = write_stream(tmp_path, [b for b in batches if b])

        # batch sessionization expectation
        flat = pd.DataFrame(rows, columns=["conv_id", "ts", "eid"])
        flat["ts"] = pd.to_datetime(flat["ts"])
        flat = flat.sort_values(["conv_id", "ts"])
        us = flat["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        conv = flat["conv_id"].to_numpy()
        new = np.ones(len(flat), dtype=bool)
        new[1:] = (conv[1:] != conv[:-1]) | (np.diff(us) > 1800 * 1_000_000)
        sid = np.cumsum(new)
        exp = (flat.assign(_g=sid).groupby("_g")
               .agg(conv_id=("conv_id", "first"),
                    session_start=("ts", "min"), session_end=("ts", "max"),
                    n_turns=("ts", "size"))
               .reset_index(drop=True)
               .sort_values(["conv_id", "session_start"])
               .reset_index(drop=True))
        exp["n_turns"] = exp["n_turns"].astype("int64")

        old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        key = ["conv_id", "session_start"]
        shas = set()
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0
            for eng in ("tasks",):
                j = StreamingFlagshipJob(
                    stream, str(tmp_path / eng), gap_s=1800,
                    allowed_lateness_s=86_400, num_buckets=2,
                    cycle_engine=eng)
                j.run_all()
                j.flush()
                got = (j.closed_sessions()[
                    ["conv_id", "session_start", "session_end", "n_turns"]]
                    .sort_values(key).reset_index(drop=True))
                pd.testing.assert_frame_equal(got, exp, check_dtype=False)
                shas.add(j.processed_sha1())
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old
        jp = StreamingFlagshipJob(stream, str(tmp_path / "pd"),
                                  gap_s=1800, allowed_lateness_s=86_400,
                                  num_buckets=2)
        jp.run_all()
        jp.flush()
        got = (jp.closed_sessions()[
            ["conv_id", "session_start", "session_end", "n_turns"]]
            .sort_values(key).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, exp, check_dtype=False)
        shas.add(jp.processed_sha1())
        assert len(shas) == 1    # sink bytes identical across engines
