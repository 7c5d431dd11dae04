"""The session stream's large cycles read their input inside the hash
exchange's split tasks: one task per contiguous row-group range of the
cycle file or directory, late rows to the exchange's side shard, written by the
driver as ``late-{file}`` when it drains the cycle. ``run_all``
launches the split tasks of upcoming large files ahead of their cycle.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pandas as pd
import pytest

from imagor_ray.pipelines import streaming
from imagor_ray.pipelines.streaming import (
    StreamingFlagshipJob, StreamingSessionJob, _row_group_ranges,
)
from tests import test_streaming
from tests.test_streaming import _output_digests, write_stream

_mk_batches = test_streaming.TestPipelinedCycles._mk_batches


def _frame(rows) -> pd.DataFrame:
    return pd.DataFrame({
        "conv_id": [r[0] for r in rows],
        "turn_idx": np.arange(len(rows), dtype="int32"),
        "role": "user",
        "text": "x",
        "tool": "click",
        "ts": pd.to_datetime([r[1] for r in rows]).astype("datetime64[us]"),
    })


def _mixed_stream(d: str) -> str:
    """Three cycle files in row groups of two rows: the second carries
    three late rows in its middle row group, the third is written from a
    frame with a non-range index, which pandas stores as a column."""
    os.makedirs(d)
    first = _frame([(f"c{i % 4}", f"2024-01-01 00:{5 * i:02d}:00")
                    for i in range(10)])
    second = _frame([
        ("c1", "2024-01-01 02:00:00"), ("c2", "2024-01-01 02:05:00"),
        ("c3", "2024-01-01 02:10:00"), ("zz", "2023-12-31 00:00:00"),
        ("yy", "2023-12-31 00:01:00"), ("xx", "2023-12-31 00:02:00"),
        ("c0", "2024-01-01 02:15:00"), ("c1", "2024-01-01 02:20:00"),
    ])
    third = _frame([("d", "2024-01-02 00:00:00"),
                    ("c1", "2024-01-02 00:05:00"),
                    ("e", "2024-01-02 00:06:00")])
    third.index = [7, 3, 11]
    for i, df in enumerate((first, second, third)):
        df.to_parquet(os.path.join(d, f"batch-{i:05d}.parquet"),
                      index=i == 2 or None, row_group_size=2)
    return d


def _run(stream: str, state_dir: str, threshold: int,
         cls=StreamingFlagshipJob):
    kw = {"num_buckets": 2} if cls is StreamingFlagshipJob else {}
    job = cls(stream, state_dir, gap_s=1800, ray_cycle_threshold=threshold,
              **kw)
    results = job.run_all()
    assert job._prefetch == {}
    job.flush()
    return job, results


@pytest.mark.parametrize("cls", [StreamingFlagshipJob, StreamingSessionJob],
                         ids=["flagship", "session"])
def test_row_group_read_matches_in_process(ray_session, tmp_path, cls):
    """Several row groups per file, a stored pandas index and late rows
    in a middle row group: the exchange placement writes the bytes of
    the in-process placement."""
    import pyarrow.parquet as pq

    stream = _mixed_stream(str(tmp_path / "in"))
    md = pq.ParquetFile(os.path.join(stream, "batch-00002.parquet"))
    assert md.metadata.num_row_groups == 2
    assert "__index_level_0__" in md.schema_arrow.names
    local, r_local = _run(stream, str(tmp_path / "local"), 10**9, cls)
    ex, r_ex = _run(stream, str(tmp_path / "exchange"), 0, cls)
    assert r_ex == r_local
    assert [r["late"] for r in r_ex] == [0, 3, 0]
    assert _output_digests(ex.cp.path) == _output_digests(local.cp.path)
    late = pd.read_parquet(os.path.join(ex.late_dir,
                                        "late-batch-00001.parquet"))
    assert late["conv_id"].tolist() == ["zz", "yy", "xx"]
    if cls is StreamingFlagshipJob:
        assert ex.processed_sha1() == local.processed_sha1()


def _ray_dir(path: str, df: pd.DataFrame) -> None:
    """``df`` as a Ray Data parquet directory: three fragments of
    several row groups each."""
    import ray.data

    third = len(df) // 3
    ray.data.from_pandas([df[:third], df[third:2 * third], df[2 * third:]]
                         ).write_parquet(path, row_group_size=4)


@pytest.mark.parametrize("cls", [StreamingFlagshipJob, StreamingSessionJob],
                         ids=["flagship", "session"])
def test_ray_directory_cycles_match_in_process(ray_session, tmp_path, cls):
    """Cycle inputs that are Ray-written parquet directories (several
    fragments of several row groups, late rows in a middle fragment)
    run on the exchange and write the bytes of the in-process
    placement."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    stream = str(tmp_path / "in")
    os.makedirs(stream)
    _frame([(f"c{i % 4}", f"2024-01-01 00:{2 * i:02d}:00")
            for i in range(30)]
           ).to_parquet(os.path.join(stream, "batch-00000.parquet"),
                        index=False)
    rows = [(f"c{i % 5}", f"2024-01-01 01:{2 * i:02d}:00") for i in range(30)]
    rows[13:16] = [("zz", "2023-12-31 00:00:00"),
                   ("yy", "2023-12-31 00:01:00"),
                   ("xx", "2023-12-31 00:02:00")]
    _ray_dir(os.path.join(stream, "batch-00001.parquet"), _frame(rows))
    _ray_dir(os.path.join(stream, "batch-00002.parquet"), _frame(
        [(f"d{i % 3}", f"2024-01-01 03:{i:02d}:00") for i in range(24)]))
    frags = list(pads.dataset(os.path.join(
        stream, "batch-00001.parquet")).get_fragments())
    assert len(frags) == 3
    assert all(pq.ParquetFile(f.path).num_row_groups > 1 for f in frags)
    local, r_local = _run(stream, str(tmp_path / "local"), 10**9, cls)
    ex, r_ex = _run(stream, str(tmp_path / "exchange"), 0, cls)
    assert r_ex == r_local
    assert [r["late"] for r in r_ex] == [0, 3, 0]
    assert _output_digests(ex.cp.path) == _output_digests(local.cp.path)
    if cls is StreamingFlagshipJob:
        assert ex.processed_sha1() == local.processed_sha1()


@pytest.mark.parametrize("stats", [True, False], ids=["stats", "nostats"])
def test_null_ts_rows_route_late_on_both_placements(ray_session, tmp_path,
                                                    stats):
    """A row without a ts has no event time: both placements count it
    late and write it to ``late-{file}``, and no session holds a NaT."""
    stream = str(tmp_path / "in")
    os.makedirs(stream)
    for i in range(2):
        df = _frame([(f"c{j % 3}", f"2024-01-01 0{3 * i}:{j:02d}:00")
                     for j in range(10)])
        if i:
            df.loc[4, "ts"] = pd.NaT
        df.to_parquet(os.path.join(stream, f"batch-{i:05d}.parquet"),
                      index=False, write_statistics=stats)
    local, r_local = _run(stream, str(tmp_path / "local"), 10**9)
    ex, r_ex = _run(stream, str(tmp_path / "exchange"), 0)
    assert r_ex == r_local
    assert [(r["rows"], r["late"]) for r in r_ex] == [(10, 0), (9, 1)]
    assert _output_digests(ex.cp.path) == _output_digests(local.cp.path)
    assert ex.processed_sha1() == local.processed_sha1()
    late = pd.read_parquet(os.path.join(ex.late_dir,
                                        "late-batch-00001.parquet"))
    assert late["ts"].isna().tolist() == [True]
    closed = ex.closed_sessions()
    assert closed["n_turns"].sum() == 19
    assert not closed[["session_start", "session_end"]].isna().any().any()


def test_unreadable_next_file_still_commits_the_running_cycle(
        ray_session, tmp_path):
    """The read-ahead does not raise on an upcoming file whose footer
    cannot be read: at ``PIPELINE_DEPTH`` 1 the running cycle commits,
    and the bad file raises when its own cycle runs."""
    stream = write_stream(tmp_path, _mk_batches(3))
    with open(os.path.join(stream, "batch-00001.parquet"), "wb") as f:
        f.write(b"not parquet")
    job = StreamingFlagshipJob(stream, str(tmp_path / "st"), gap_s=1800,
                               num_buckets=2, ray_cycle_threshold=0)
    job.PIPELINE_DEPTH = 1
    with pytest.raises((OSError, ValueError)):
        job.run_all()
    assert job.cp.load()["processed"] == ["batch-00000.parquet"]


def _groups(counts, files=1):
    """Footer ``row_groups`` of ``files`` fragments holding ``counts``."""
    return [(f"f{f}", i, n) for f in range(files)
            for i, n in enumerate(counts)]


def test_row_group_ranges_cover_in_order():
    for counts in ([5], [1] * 40, [0, 3, 0, 0, 9, 1, 0], [100, 1, 1, 1, 1],
                   list(range(1, 30))):
        for files in (1, 3):
            groups = _groups(counts, files)
            for k in (1, 2, 8):
                ranges = _row_group_ranges(groups, k)
                assert 1 <= len(ranges) <= k
                assert [u for r in ranges for u in r] == [
                    g[:2] for g in groups]
                assert all(r for r in ranges)
    assert _row_group_ranges([], 8) == []
    # balanced by rows, not by group count
    assert [len(r) for r in _row_group_ranges(_groups([1] * 40), 8)
            ] == [5] * 8


def test_tiny_row_groups_launch_at_most_cluster_width_splits(
        ray_session, tmp_path, monkeypatch):
    """A 60-row file in one-row row groups is read by at most
    ``_cluster_width()`` split tasks, which together read every group
    once and in order."""
    stream = str(tmp_path / "in")
    os.makedirs(stream)
    _frame([(f"c{i % 7}", f"2024-01-01 00:{i:02d}:00") for i in range(60)]
           ).to_parquet(os.path.join(stream, "batch-00000.parquet"),
                        index=False, row_group_size=1)
    launched = []
    orig = streaming.split_refs

    def spy(inputs, key, nb, side=False):
        launched.append(list(inputs))
        return orig(inputs, key, nb, side)

    monkeypatch.setattr(streaming, "split_refs", spy)
    _, local = _run(stream, str(tmp_path / "local"), 10**9)
    _, ex = _run(stream, str(tmp_path / "exchange"), 0)
    assert ex == local
    assert len(launched) == 1
    width = streaming._cluster_width()
    assert 1 < len(launched[0]) <= width
    units = [u for src in launched[0] for u in src]
    assert [g for _, g in units] == list(range(60))


def test_read_ahead_splits_are_all_taken(ray_session, tmp_path,
                                         monkeypatch):
    """``run_all`` launches the split tasks of upcoming large files
    early and every later cycle takes its own: only the first cycle
    launches its split tasks itself, each file's are launched once, and
    ``_prefetch`` ends empty."""
    stream = write_stream(tmp_path, _mk_batches(6))
    taken, launched = [], []
    orig_take = StreamingSessionJob._take_prefetched
    orig_split = streaming.split_refs

    def take(self, fname, wm):
        out = orig_take(self, fname, wm)
        taken.append(out is not None)
        return out

    def split(inputs, key, nb, side=False):
        launched.append(os.path.basename(inputs[0][0][0]))
        return orig_split(inputs, key, nb, side)

    monkeypatch.setattr(StreamingSessionJob, "_take_prefetched", take)
    monkeypatch.setattr(streaming, "split_refs", split)
    job, results = _run(stream, str(tmp_path / "st"), 0)
    assert len(results) == 6
    # one lookup that finds nothing per launch; cycles 1-5 take theirs
    assert taken.count(False) == 6 and taken.count(True) == 5
    assert launched == sorted(os.listdir(stream))


def _children() -> set:
    """Pids of this process's child processes (empty where the kernel
    does not list them)."""
    out = set()
    task = f"/proc/{os.getpid()}/task"
    for tid in os.listdir(task):
        try:
            with open(os.path.join(task, tid, "children")) as f:
                out |= set(f.read().split())
        except OSError:
            pass
    return out


def test_run_all_leaves_no_thread_or_process(ray_session, tmp_path):
    """No thread or process started by a pipelined ``run_all`` outlives
    it (a first run warms the Ray session's own helpers)."""
    stream = write_stream(tmp_path, _mk_batches(4))
    _run(stream, str(tmp_path / "warm"), 0)
    threads, children = set(threading.enumerate()), _children()
    _run(stream, str(tmp_path / "st"), 0)
    assert set(threading.enumerate()) == threads
    assert _children() == children
