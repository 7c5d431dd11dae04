"""Crash replay for every job on the keyed-stream runtime. A commit
lost in cycle 1 (``cp.save`` raises after every emission file was
written) must replay from the committed cycle-0 state and overwrite
the same bytes, and no in-process job may start Ray work; the session
jobs also replay on the hash exchange. Every cycle of a keyed job runs
the kernel once and writes one unsuffixed file per output, also when
``StreamingJoinJob`` is given the benchmark's ignored bucket keywords."""

from __future__ import annotations

import hashlib
import json
import os
from unittest import mock

import numpy as np
import pandas as pd
import pytest

HOUR = 3600 * 1_000_000
_TYPES = ("click", "purchase", "view")


def _random_batches(seed: int, cycles: int = 4, rows: int = 60):
    """``cycles`` batches of ``rows`` (event_id, ts_us, user_id,
    event_type, value) rows over 6 users, one day per batch."""
    rng = np.random.RandomState(seed)
    batches, eid = [], 0
    for c in range(cycles):
        out = []
        for _ in range(rows):
            out.append((eid, c * 24 * HOUR + int(
                rng.randint(0, 24) * HOUR) + eid,
                int(rng.randint(0, 6)),
                str(rng.choice(["click", "purchase", "view"])),
                float(rng.randint(0, 100))))
            eid += 1
        batches.append(out)
    return batches


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


def _stage_transcripts(root) -> str:
    """``_random_batches(41)`` as a transcript stream for the session
    jobs: one conversation per user, one file per batch."""
    d = os.path.join(root, "turns")
    os.makedirs(d)
    for i, rows in enumerate(_random_batches(41)):
        eid, ts, uid = (np.array(c) for c in list(zip(*rows))[:3])
        pd.DataFrame({
            "conv_id": [f"c{u}" for u in uid],
            "turn_idx": eid.astype("int32"),
            "role": "user",
            "text": "x",
            "tool": "click",
            "ts": pd.to_datetime(ts, unit="us"),
        }).to_parquet(os.path.join(d, f"batch-{i:03d}.parquet"), index=False)
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
    if name in SESSION:
        from imagor_ray.pipelines import streaming

        return getattr(streaming, SESSION[name])(
            os.path.join(root, "turns"), state_dir, **kw)
    if name in WINDOWED:
        cls, extra = WINDOWED[name]
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
    """sha1 of every file under ``state_dir`` but the checkpoint; a sink
    manifest (``_manifest/*.json``) is digested without its wall-clock
    ``write_ms``."""
    out = {}
    for dp, _, fs in os.walk(state_dir):
        for f in fs:
            if f == "checkpoint.json":
                continue
            p = os.path.join(dp, f)
            with open(p, "rb") as fh:
                data = fh.read()
            if os.path.basename(dp) == "_manifest" and f.endswith(".json"):
                entry = json.loads(data)
                entry.pop("write_ms", None)
                data = json.dumps(entry, sort_keys=True).encode()
            out[os.path.relpath(p, state_dir)] = hashlib.sha1(
                data).hexdigest()
    return out


def _drain(job) -> None:
    job.run_all()
    if hasattr(job, "finalize"):
        job.finalize()
    elif hasattr(job, "flush"):
        job.flush()


JOBS = ["stream_join", "two_source_join", "temporal_join", "scd2", "cep",
        "dedup", "session_changelog", "broadcast_rules"]
EXECUTORS = {"in_process": {}}
# the windowed and top-k changelog jobs: name -> (class name in
# pipelines/changelog.py, constructor kwargs)
_SLIDING = dict(window_s=3 * 86_400, slide_s=86_400)
WINDOWED = {
    "changelog_update": ("StreamingChangelogJob", {}),
    "changelog_complete": ("StreamingChangelogJob",
                           dict(output_mode="complete")),
    "changelog_append": ("StreamingChangelogJob",
                         dict(output_mode="append", **_SLIDING)),
    "changelog_sliding": ("StreamingChangelogJob", _SLIDING),
    "topk_changelog": ("TopKChangelogJob", dict(k=2)),
}
#: the session jobs of pipelines/streaming.py, over ``_stage_transcripts``,
#: in both placements (threshold 0: every cycle runs on the hash exchange)
SESSION = {"session_stream": "StreamingSessionJob",
           "flagship_stream": "StreamingFlagshipJob"}
SESSION_EXECUTORS = {**EXECUTORS, "exchange": {"ray_cycle_threshold": 0}}
CASES = ([(name, ex) for name in (*JOBS, *WINDOWED) for ex in EXECUTORS]
         + [(name, ex) for name in SESSION for ex in SESSION_EXECUTORS])


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
    _stage_transcripts(root)
    kw = dict(SESSION_EXECUTORS[executor], allowed_lateness_s=7200)

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
    if executor == "in_process":
        assert [a for a, spy in spies.items() if spy.called] == []


def test_kernel_runs_once_per_cycle(tmp_path, monkeypatch):
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    calls = []
    kernel = StreamingJoinJob._cycle_kernel

    def spy(self, st, new, wm, new_wm, cycle):
        calls.append(cycle)
        return kernel(self, st, new, wm, new_wm, cycle)

    monkeypatch.setattr(StreamingJoinJob, "_cycle_kernel", spy)
    ind = _stage(str(tmp_path), "in")
    sd = str(tmp_path / "state")
    totals = StreamingJoinJob(ind, sd, allowed_lateness_s=7200).run_all()
    assert calls == list(range(totals["cycles"]))


def test_benchmark_bucket_keywords_leave_one_file_per_output_per_cycle(
        tmp_path):
    """``StreamingJoinJob`` built as the benchmark builds it (16
    buckets, row threshold 0) writes exactly one ``{name}-{cycle}``
    file per output per cycle, and the same files (names and bytes)
    as a job built without those keywords."""
    from imagor_ray.pipelines.stream_join import StreamingJoinJob

    ind = _stage(str(tmp_path), "in")
    runs = {}
    for name, kw in (("shim", dict(num_buckets=16, ray_cycle_threshold=0)),
                     ("plain", {})):
        sd = str(tmp_path / name)
        job = StreamingJoinJob(ind, sd, allowed_lateness_s=7200, **kw)
        cycles = job.run_all()["cycles"]
        assert cycles > 1
        for out in ("late", *job.OUTPUTS):
            assert sorted(os.listdir(os.path.join(sd, out))) == [
                f"{out}-{c:05d}.parquet" for c in range(cycles)]
        job.finalize()
        runs[name] = _digests(sd)
    assert runs["shim"] == runs["plain"]
