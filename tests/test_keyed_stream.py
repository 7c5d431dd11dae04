"""Crash replay for every job on the keyed-stream runtime, in BOTH
file layouts: unsuffixed files and per-bucket ``-{bucket}`` files
split at write time. The windowed and top-k changelog jobs have no
bucket key, so they write unsuffixed files only. A commit lost in
cycle 1 (``cp.save`` raises after every emission file was written)
must replay from the committed cycle-0 state and overwrite the same
bytes, and neither layout may start Ray work. Both layouts run the
cycle kernel once per cycle, and the bucket count is validated."""

from __future__ import annotations

import hashlib
import os
from unittest import mock

import pandas as pd
import pytest

from tests.test_state_rescale import _random_batches

_TYPES = ("click", "purchase", "view")


def _stage(root, name: str, keep=_TYPES) -> str:
    d = os.path.join(root, name)
    os.makedirs(d)
    for i, rows in enumerate(_random_batches(41)):
        df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                         "event_type", "value"])
        df["ts"] = pd.to_datetime(df["ts"], unit="us")
        df = df[df["event_type"].isin(keep)].reset_index(drop=True)
        df.to_parquet(os.path.join(d, f"batch-{i:03d}.parquet"), index=False)
    return d


def _make(name: str, root: str, state_dir: str, **kw):
    from imagor_ray.pipelines import changelog
    from imagor_ray.pipelines.broadcast_rules import BroadcastRulesJob
    from imagor_ray.pipelines.stream_cep import StreamingCepJob
    from imagor_ray.pipelines.stream_dedup import StreamingDedupJob
    from imagor_ray.pipelines.stream_join import (StreamingJoinJob,
                                                  TwoSourceJoinJob)
    from imagor_ray.pipelines.stream_scd2 import StreamingScd2Job
    from imagor_ray.pipelines.temporal_join import TemporalJoinJob

    ind = os.path.join(root, "in")
    if name in KEYLESS:
        cls, extra = KEYLESS[name]
        return getattr(changelog, cls)(ind, state_dir, **extra, **kw)
    if name == "two_source_join":
        return TwoSourceJoinJob(os.path.join(root, "left"),
                                os.path.join(root, "right"), state_dir, **kw)
    cls = {"stream_join": StreamingJoinJob, "temporal_join": TemporalJoinJob,
           "scd2": StreamingScd2Job, "cep": StreamingCepJob,
           "dedup": StreamingDedupJob,
           "session_changelog": changelog.SessionChangelogJob,
           "broadcast_rules": BroadcastRulesJob}[name]
    return cls(ind, state_dir, **kw)


def _digests(state_dir: str) -> dict:
    out = {}
    for dp, _, fs in os.walk(state_dir):
        for f in fs:
            if f == "checkpoint.json":
                continue
            p = os.path.join(dp, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, state_dir)] = hashlib.sha1(
                    fh.read()).hexdigest()
    return out


def _drain(job) -> None:
    job.run_all()
    if hasattr(job, "finalize"):
        job.finalize()


JOBS = ["stream_join", "two_source_join", "temporal_join", "scd2", "cep",
        "dedup", "session_changelog", "broadcast_rules"]
EXECUTORS = {"in_process": dict(ray_cycle_threshold=10**9),
             "bucketed": dict(ray_cycle_threshold=0, num_buckets=4)}
# jobs without a bucket key run in-process only: name -> (class name
# in pipelines/changelog.py, constructor kwargs)
_SLIDING = dict(window_s=3 * 86_400, slide_s=86_400)
KEYLESS = {
    "changelog_update": ("StreamingChangelogJob", {}),
    "changelog_complete": ("StreamingChangelogJob",
                           dict(output_mode="complete")),
    "changelog_append": ("StreamingChangelogJob",
                         dict(output_mode="append", **_SLIDING)),
    "changelog_sliding": ("StreamingChangelogJob", _SLIDING),
    "topk_changelog": ("TopKChangelogJob", dict(k=2)),
}
CASES = ([(name, ex) for name in JOBS for ex in EXECUTORS]
         + [(name, "in_process") for name in KEYLESS])


@pytest.mark.parametrize("name,executor", CASES)
def test_lost_commit_replays_identical_bytes(ray_session, tmp_path,
                                             monkeypatch, name, executor):
    import ray
    import ray.data

    spies = {}
    for mod, attr in ((ray.data, "read_parquet"),
                      (ray.data, "from_pandas"), (ray, "put")):
        spies[attr] = mock.Mock(wraps=getattr(mod, attr))
        monkeypatch.setattr(mod, attr, spies[attr])
    root = str(tmp_path)
    _stage(root, "in")
    _stage(root, "left", keep=("click",))
    _stage(root, "right", keep=("purchase", "view"))
    kw = dict({} if name in KEYLESS else EXECUTORS[executor],
              allowed_lateness_s=7200)

    crashed = os.path.join(root, "crashed")
    job = _make(name, root, crashed, **kw)
    orig_save, saves = job.cp.save, []

    def save_then_die_in_cycle_1(state):
        saves.append(state.get("cycles"))
        if len(saves) == 2:
            raise OSError("commit lost")
        orig_save(state)

    job.cp.save = save_then_die_in_cycle_1
    job.run_cycle()
    with pytest.raises(OSError, match="commit lost"):
        job.run_cycle()
    at_crash = _digests(crashed)
    # the cycle-1 emissions exist although their commit was lost
    assert any("-00001" in f for f in at_crash)

    replay = _make(name, root, crashed, **kw)
    assert len(replay.cp.load()["processed"]) == 1
    _drain(replay)
    after = _digests(crashed)
    # every output file the crashed cycle wrote is rewritten byte-equal
    # (open-session snapshots at the state root are GC'd after commits)
    changed = [f for f, h in at_crash.items()
               if os.sep in f and after.get(f) != h]
    assert not changed

    ref = os.path.join(root, "ref")
    _drain(_make(name, root, ref, **kw))
    assert after == _digests(ref)
    assert [a for a, spy in spies.items() if spy.called] == []


@pytest.mark.parametrize("num_buckets", [0, -3])
def test_bucket_count_below_one_is_rejected(tmp_path, num_buckets):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    ind = _stage(str(tmp_path), "in")
    for thr in (0, 10**9):
        with pytest.raises(ValueError, match="num_buckets"):
            StreamingJoinJob(ind, str(tmp_path / f"s{thr}"),
                             num_buckets=num_buckets,
                             ray_cycle_threshold=thr)


def test_bucketed_layout_runs_the_kernel_once_per_cycle(tmp_path,
                                                        monkeypatch):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    calls = []
    kernel = StreamingJoinJob._cycle_kernel

    def spy(self, st, new, wm, new_wm, cycle):
        calls.append(cycle)
        return kernel(self, st, new, wm, new_wm, cycle)

    monkeypatch.setattr(StreamingJoinJob, "_cycle_kernel", spy)
    ind = _stage(str(tmp_path), "in")
    sd = str(tmp_path / "state")
    job = StreamingJoinJob(ind, sd, allowed_lateness_s=7200, num_buckets=4,
                           ray_cycle_threshold=0)
    totals = job.run_all()
    assert calls == list(range(totals["cycles"]))
    # the outputs are still split into per-bucket files
    assert sorted(os.listdir(os.path.join(sd, "matched")))[:4] == [
        f"matched-00000-{b:02d}.parquet" for b in range(4)]


def test_bucketed_emission_without_the_key_is_an_error(tmp_path):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    class KeylessPairs(StreamingJoinJob):
        def _cycle_kernel(self, st, new, wm, new_wm, cycle):
            emits, nxt, counts = super()._cycle_kernel(st, new, wm, new_wm,
                                                       cycle)
            return ({n: df.drop(columns=[self.KEY])
                     for n, df in emits.items()}, nxt, counts)

    ind = _stage(str(tmp_path), "in")
    job = KeylessPairs(ind, str(tmp_path / "state"), num_buckets=4,
                       ray_cycle_threshold=0)
    with pytest.raises(ValueError, match="'matched'.*'user_id'"):
        job.run_cycle()


def test_bucketed_files_cover_exactly_the_present_buckets(tmp_path):
    """Every user is in every input file, so at 16 buckets each cycle
    writes each output for buckets 00-05 only; a present bucket with
    no rows of an output still gets its (empty) file, and every row
    sits in its own bucket's file."""
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    ind = _stage(str(tmp_path), "in")
    sd = str(tmp_path / "state")
    job = StreamingJoinJob(ind, sd, allowed_lateness_s=7200, num_buckets=16,
                           ray_cycle_threshold=0)
    cycles = job.run_all()["cycles"]
    sizes = []
    for name, key in (("matched", "user_id"), ("late", "user_id")):
        d = os.path.join(sd, name)
        assert sorted(os.listdir(d)) == [
            f"{name}-{c:05d}-{b:02d}.parquet"
            for c in range(cycles) for b in range(6)]
        for f in os.listdir(d):
            df = pd.read_parquet(os.path.join(d, f))
            assert (df[key] % 16 == int(f[-10:-8])).all()
            sizes.append(len(df))
    assert 0 in sizes and sum(sizes) > 0


def test_bucketed_outputs_convert_to_arrow_once_per_cycle(tmp_path,
                                                          monkeypatch):
    """At 16 buckets each cycle writes 6 per-bucket files of each
    bucketed output (late, matched), empty ones included, but converts
    each output frame to Arrow once: the ``pa.Table.from_pandas`` count
    per cycle does not grow with the number of present buckets."""
    import pyarrow.pandas_compat as pdc

    from imagor_ray.pipelines.keyed_stream import KeyedStreamJob
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    calls, per_cycle = [], []
    convert = pdc.dataframe_to_arrays   # the body of Table.from_pandas

    def spy(*a, **kw):
        calls.append(1)
        return convert(*a, **kw)

    execute = KeyedStreamJob._execute

    def counted(self, *a, **kw):
        calls.clear()
        out = execute(self, *a, **kw)
        per_cycle.append(len(calls))
        return out

    monkeypatch.setattr(pdc, "dataframe_to_arrays", spy)
    monkeypatch.setattr(KeyedStreamJob, "_execute", counted)
    ind = _stage(str(tmp_path), "in")
    sd = str(tmp_path / "state")
    job = StreamingJoinJob(ind, sd, allowed_lateness_s=7200, num_buckets=16,
                           ray_cycle_threshold=0)
    cycles = job.run_all()["cycles"]
    assert len(per_cycle) == cycles > 1
    for name in ("late", "matched"):
        assert len(os.listdir(os.path.join(sd, name))) == 6 * cycles
    assert per_cycle == [2] * cycles


def test_bucket_split_writes_the_bytes_of_a_per_bucket_conversion(tmp_path):
    """Each ``-{bucket}`` file equals ``df[ub == b].to_parquet(index=False)``
    byte for byte, for an int/datetime emission (one Arrow conversion,
    sliced) and an int/datetime/object one (converted per bucket,
    because an all-null object bucket becomes a ``null``-typed column),
    including a present bucket with no rows."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from imagor_ray.pipelines.keyed_stream import KeyedStreamJob

    class Tiny(KeyedStreamJob):
        OUTPUTS = ("numeric", "mixed")
        STATE_ORDER = ["user_id"]

        def _empty_state(self):
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64")})

        def _tag(self, b, wm):
            return pd.DataFrame({
                "event_id": b["event_id"].to_numpy(dtype="int64"),
                "user_id": b["user_id"].to_numpy(dtype="int64"),
                "ts_us": b["ts"].astype("datetime64[us]").astype("int64")
                .to_numpy()})

        def _cycle_kernel(self, st, new, wm, new_wm, cycle):
            new = new[new["user_id"] != 3]      # bucket 3: no rows
            numeric = pd.DataFrame({
                "user_id": new["user_id"].to_numpy(),
                "event_id": new["event_id"].to_numpy(),
                "ts": pd.Series(new["ts_us"].to_numpy())
                .astype("datetime64[us]")})
            mixed = numeric.assign(label=[            # bucket 2: all null
                None if u == 2 else f"u{u}" for u in numeric["user_id"]])
            self.emitted = {"numeric": numeric, "mixed": mixed}
            return self.emitted, st, {}

    ind = os.path.join(str(tmp_path), "in")
    os.makedirs(ind)
    uid = np.arange(30) % 6
    pd.DataFrame({
        "event_id": np.arange(30, 0, -1), "user_id": uid,
        "event_type": "click",
        "ts": pd.to_datetime(1_700_000_000 + 60 * np.arange(30), unit="s"),
    }).to_parquet(os.path.join(ind, "batch-000.parquet"), index=False)
    sd = str(tmp_path / "state")
    job = Tiny(ind, sd, num_buckets=4, ray_cycle_threshold=0)
    job.run_all()

    ref = str(tmp_path / "ref.parquet")
    for name, df in job.emitted.items():
        ub = df["user_id"].to_numpy() % 4
        files = sorted(os.listdir(os.path.join(sd, name)))
        assert files == [f"{name}-00000-{b:02d}.parquet" for b in range(4)]
        for b, f in enumerate(files):
            df[ub == b].to_parquet(ref, index=False)
            with open(ref, "rb") as want, \
                    open(os.path.join(sd, name, f), "rb") as got:
                assert got.read() == want.read(), f
    label = [pq.read_schema(os.path.join(sd, "mixed", f"mixed-00000-{b:02d}"
                                         ".parquet")).field("label").type
             for b in range(4)]
    assert label == [pa.string(), pa.string(), pa.null(), pa.null()]
