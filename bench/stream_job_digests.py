"""Byte-identity check for the stream jobs across two checkouts.

``dump ROOT OUT.json [CPUS]`` starts a Ray session of CPUS CPUs
(default 1) and runs every keyed-stream job of the checkout at ROOT
(stream and two-source joins, temporal join, SCD2, CEP, dedup, session
changelog, broadcast rules) over ``_random_batches(41)`` from
``tests/test_keyed_stream.py`` — split click / non-click for the
two-source join — with lateness 0 and 7200 s and default constructor
arguments, plus ``finalize()`` where the job has one. Each cycle of a
keyed job writes one file per output; a checkout that still has a
per-bucket layout writes these small streams unsuffixed too (they are
far below its row threshold), so its dump compares with this layout.
The keyed jobs start no Ray work whatever CPUS is; CPUS sizes the
session jobs' hash exchange below.

It runs ``StreamingChangelogJob`` (update, complete and append modes)
and ``TopKChangelogJob`` (k=2) over two streams — the same
``_random_batches(41)`` and ten day files with late arrivals, one empty
file and one all-late file — crossed with lateness 0 and 2 days and
with tumbling-week and 3-day/1-day sliding windows.

It also runs ``StreamingSessionJob`` and ``StreamingFlagshipJob`` (2
buckets) then ``flush()`` over five streams — two from
``tests/test_streaming.py`` (``TestPipelinedCycles._mk_batches(6)``
and the jittered stream of ``test_jittered_closed_equals_batch_three_engines``),
the jittered stream again in row groups of three rows with statistics
(``jitterrg``: files of more row groups than the exchange has split
tasks, so the split tasks read multi-group ranges located through
footer stats, late rows among them), the jittered stream once more with
every file a Ray Data parquet directory of three fragments in row
groups of three rows (``jitterraydir``), and an edge stream of four files
(one on-time file, one empty file, one all-late file, then one file
that advances the watermark) — crossed with lateness 0 and 86 400 s,
``RAY_CYCLE_THRESHOLD`` 10**9 (in-process) and 0 (hash exchange), and
``PIPELINE_DEPTH`` 1 and 2.

Stats-less copies: the edge stream, the keyed jobs' input (``in``,
``left``, ``right``) and the changelog day files are rewritten without
parquet statistics, in row groups of two rows, so every watermark and
late count comes from the zone-map reader's ts scan rather than from
footer min/max. The edge copy runs through both session jobs as above
(``…-edgenostats-…``), the keyed copy through every keyed job
(``…-nostats``) and the day copy through every changelog shape
(``chlog-daysnostats-…``): 176 cases in all.

For every case it writes the sha1 of every file under the state dir
except ``checkpoint.json``, the checkpoint itself and the ``run_all``
totals. A sink manifest (``_manifest/*.json``) is digested without its
wall-clock timings (``write_ms`` and ``*_ms`` stage metrics). Every
other file is digested byte for byte, the session jobs' single-file
outputs (``late/late-{file}`` and ``closed/closed-{cycle:05d}.parquet``)
included.

``compare A.json B.json`` prints one line per case and exits non-zero
unless every file digest and the totals match and B's checkpoints lose
no key and change no value of A's.

``placements OUT.json`` compares, within one dump, every ``-exchange``
session case with its ``-local`` twin (the same case at threshold
10**9) and exits non-zero unless all of them have the same files,
checkpoint and totals: the threshold must choose where a cycle runs,
never what it writes.

Run ``dump`` with ``PYTHONPATH=ROOT`` so Ray workers import the same
checkout::

    PYTHONPATH=$OLD python bench/stream_job_digests.py dump $OLD old.json
    PYTHONPATH=$NEW python bench/stream_job_digests.py dump $NEW new.json
    python bench/stream_job_digests.py compare old.json new.json
    python bench/stream_job_digests.py placements new.json

ROOT need not be the checkout this file comes from, so one copy of this
file can dump an older checkout at any CPU count.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import shutil
import sys
import tempfile


def dump(root: str, out: str, cpus: int = 1) -> None:
    sys.path.insert(0, root)
    sys.path.insert(0, os.path.join(root, "tests"))
    import ray

    ray.init(num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    tmp = tempfile.mkdtemp()
    try:
        res = _run_cases(tmp)
    finally:
        ray.shutdown()
        shutil.rmtree(tmp, ignore_errors=True)
    with open(out, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True, default=int)


def _run_cases(tmp: str) -> dict:
    """Every case, run under ``tmp``: ``{case: digests}``."""
    import pandas as pd
    import pyarrow.parquet as pq

    from test_keyed_stream import _random_batches
    from imagor_ray.pipelines.broadcast_rules import BroadcastRulesJob
    from imagor_ray.pipelines.changelog import (SessionChangelogJob,
                                                StreamingChangelogJob,
                                                TopKChangelogJob)
    from imagor_ray.pipelines.stream_cep import StreamingCepJob
    from imagor_ray.pipelines.stream_dedup import StreamingDedupJob
    from imagor_ray.pipelines.stream_join import (StreamingJoinJob,
                                                  TwoSourceJoinJob)
    from imagor_ray.pipelines.stream_scd2 import StreamingScd2Job
    from imagor_ray.pipelines.streaming import (StreamingFlagshipJob,
                                                StreamingSessionJob)
    from imagor_ray.pipelines.temporal_join import TemporalJoinJob
    from test_streaming import TestPipelinedCycles, write_stream

    batches = _random_batches(41)

    def stage(name, sel=None):
        d = os.path.join(tmp, name)
        os.makedirs(d)
        for i, rows in enumerate(batches):
            df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id",
                                             "event_type", "value"])
            df["ts"] = pd.to_datetime(df["ts"], unit="us")
            if sel is not None:
                df = df[sel(df)].reset_index(drop=True)
            df.to_parquet(os.path.join(d, f"batch-{i:03d}.parquet"),
                          index=False)
        return d

    def jobs(ind, left, right):
        return {
            "join": lambda s, **kw: StreamingJoinJob(ind, s, **kw),
            "two": lambda s, **kw: TwoSourceJoinJob(left, right, s, **kw),
            "temporal": lambda s, **kw: TemporalJoinJob(ind, s, **kw),
            "scd2": lambda s, **kw: StreamingScd2Job(ind, s, **kw),
            "cep": lambda s, **kw: StreamingCepJob(ind, s, **kw),
            "dedup": lambda s, **kw: StreamingDedupJob(ind, s, **kw),
            "session": lambda s, **kw: SessionChangelogJob(ind, s, **kw),
            "rules": lambda s, **kw: BroadcastRulesJob(ind, s, **kw),
        }

    ind = stage("in")
    left = stage("left", lambda d: d["event_type"] == "click")
    right = stage("right", lambda d: d["event_type"] != "click")
    keyed = {"local": jobs(ind, left, right),
             "nostats": jobs(*[_statless_copy(d) for d in (ind, left, right)])}
    res = {}
    for suffix, by_name in keyed.items():
        for name, make in by_name.items():
            for late in (0, 7200):
                case = f"{name}-{late}-{suffix}"
                sd = os.path.join(tmp, case)
                job = make(sd, allowed_lateness_s=late)
                totals = job.run_all()
                if hasattr(job, "finalize"):
                    job.finalize()
                res[case] = _digest_state(sd, totals)

    days = os.path.join(tmp, "days")
    os.makedirs(days)
    for i, tbl in enumerate(_changelog_days()):
        pq.write_table(tbl, os.path.join(days, f"day-{i:03d}.parquet"))
    modes = {
        "update": (StreamingChangelogJob, {}),
        "complete": (StreamingChangelogJob, dict(output_mode="complete")),
        "append": (StreamingChangelogJob, dict(output_mode="append")),
        "topk": (TopKChangelogJob, dict(k=2)),
    }
    shapes = {"tumbling": {},
              "sliding": dict(window_s=3 * 86_400, slide_s=86_400)}
    for sname, stream in (("random", ind), ("days", days),
                          ("daysnostats", _statless_copy(days))):
        for late in (0, 2 * 86_400):
            for shape, wkw in shapes.items():
                for mode, (cls, mkw) in modes.items():
                    case = f"chlog-{sname}-{late}-{shape}-{mode}"
                    sd = os.path.join(tmp, case)
                    job = cls(stream, sd, allowed_lateness_s=late, **wkw,
                              **mkw)
                    res[case] = _digest_state(sd, job.run_all())

    streams = {
        "pipe6": write_stream(pathlib.Path(tmp, "pipe6"),
                              TestPipelinedCycles._mk_batches(6)),
        "jitter": write_stream(pathlib.Path(tmp, "jitter"),
                               _jittered_batches()),
        "edge": write_stream(pathlib.Path(tmp, "edge"), _edge_batches()),
    }
    streams["edgenostats"] = _statless_copy(streams["edge"])
    streams["jitterrg"] = write_stream(pathlib.Path(tmp, "jitterrg"),
                                       _jittered_batches(), row_group_size=3)
    streams["jitterraydir"] = _ray_dir_copy(streams["jitter"])
    session_jobs = {"sessionjob": StreamingSessionJob,
                    "flagship": lambda i, s, **kw: StreamingFlagshipJob(
                        i, s, num_buckets=2, **kw)}
    for name, make in session_jobs.items():
        for sname, stream in streams.items():
            for late in (0, 86_400):
                for ex, thr in (("local", 10**9), ("exchange", 0)):
                    for depth in (1, 2):
                        case = f"{name}-{sname}-{late}-{ex}-d{depth}"
                        sd = os.path.join(tmp, case)
                        StreamingSessionJob.PIPELINE_DEPTH = depth
                        job = make(stream, sd, gap_s=1800,
                                   allowed_lateness_s=late,
                                   ray_cycle_threshold=thr,
                                   cycle_engine="tasks")
                        totals = job.run_all()
                        job.flush()
                        res[case] = _digest_state(sd, totals)
    return res


def _statless_copy(d: str) -> str:
    """A copy of input directory ``d`` (same rows, same file names)
    written without parquet statistics, in row groups of two rows."""
    import pyarrow.parquet as pq

    out = d.rstrip(os.sep) + "-nostats"
    os.makedirs(out)
    for f in sorted(os.listdir(d)):
        pq.write_table(pq.read_table(os.path.join(d, f)),
                       os.path.join(out, f), row_group_size=2,
                       write_statistics=False)
    return out


def _ray_dir_copy(d: str) -> str:
    """A copy of input directory ``d`` whose every file is rewritten by
    Ray Data as a parquet directory of the same name: three blocks, so
    three fragments, in row groups of three rows."""
    import pandas as pd
    import ray.data

    out = d.rstrip(os.sep) + "-raydir"
    os.makedirs(out)
    for f in sorted(os.listdir(d)):
        df = pd.read_parquet(os.path.join(d, f))
        n = -(-len(df) // 3)
        ray.data.from_pandas([df[i:i + n] for i in range(0, len(df), n)]
                             ).write_parquet(os.path.join(out, f),
                                             row_group_size=3)
    return out


def _changelog_days() -> list:
    """Ten day files of (event_id, ts, event_type) as arrow tables:
    every fourth row lands one arrival day late, file 4 is empty and
    file 7 holds only rows from day 1 (late under either horizon)."""
    import numpy as np
    import pyarrow as pa

    rng = np.random.RandomState(23)
    day = 86_400 * 1_000_000
    schema = pa.schema([("event_id", pa.int64()), ("ts", pa.timestamp("us")),
                        ("event_type", pa.string())])
    out, eid = [], 0
    for d in range(10):
        n = 0 if d == 4 else 6 if d == 7 else 40
        rows = []
        for _ in range(n):
            ev_day = 1 if d == 7 else d - (eid % 4 == 0)
            rows.append((eid, ev_day * day + int(rng.randint(0, day)),
                         str(rng.choice(["a", "b", "c", "d"]))))
            eid += 1
        cols = list(zip(*rows)) if rows else [[], [], []]
        out.append(pa.table([pa.array(c, t.type) for c, t in
                             zip(cols, schema)], schema=schema))
    return out


def _jittered_batches() -> list:
    """The out-of-order stream of
    ``test_jittered_closed_equals_batch_three_engines``: 240 turns over
    48 h in 12 h arrival batches, every third turn one batch late."""
    import numpy as np
    import pandas as pd

    rng = np.random.RandomState(17)
    hour = 3600
    batches = [[] for _ in range(6)]
    for eid in range(240):
        t0 = pd.Timestamp("2024-01-01") + pd.Timedelta(
            seconds=int(rng.randint(0, 48 * hour)))
        conv = f"c{int(rng.randint(0, 12)):02d}"
        ep = int((t0 - pd.Timestamp("2024-01-01")).total_seconds()) // (
            12 * hour)
        batches[ep + (eid % 3 == 0)].append(
            (conv, t0.strftime("%Y-%m-%d %H:%M:%S")))
    return [b for b in batches if b]


def _edge_batches() -> list:
    """Four session files: on-time turns, an empty file, a file whose
    turns are all more than a day behind the watermark (late under
    either lateness), then turns that advance the watermark and close
    the first file's sessions."""
    return [
        [("a", "2024-01-03 00:00:00"), ("b", "2024-01-03 00:10:00"),
         ("a", "2024-01-03 00:20:00"), ("c", "2024-01-03 05:00:00")],
        [],
        [("z", "2024-01-01 00:00:00"), ("a", "2024-01-01 12:00:00")],
        [("a", "2024-01-05 00:00:00"), ("c", "2024-01-05 00:20:00"),
         ("d", "2024-01-05 01:00:00")],
    ]


def _digest_state(sd: str, totals) -> dict:
    files = {}
    for dp, _, fs in os.walk(sd):
        for f in fs:
            p = os.path.join(dp, f)
            rel = os.path.relpath(p, sd)
            if rel == "checkpoint.json":
                continue
            with open(p, "rb") as fh:
                data = fh.read()
            if os.path.basename(dp) == "_manifest" and f.endswith(".json"):
                entry = json.loads(data)
                entry.pop("write_ms", None)
                entry["stage_metrics"] = {
                    k: v for k, v in entry.get("stage_metrics", {}).items()
                    if not k.endswith("_ms")}
                data = json.dumps(entry, sort_keys=True).encode()
            files[rel] = hashlib.sha1(data).hexdigest()
    with open(os.path.join(sd, "checkpoint.json")) as fh:
        cp = json.load(fh)
    return {"files": files, "checkpoint": cp, "totals": totals}


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    bad = 0
    for case in sorted(a):
        if case not in b:
            print(f"{case:36s} MISSING")
            bad += 1
            continue
        fa, fb = a[case]["files"], b[case]["files"]
        diff = sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))
        ca, cb = a[case]["checkpoint"], b[case]["checkpoint"]
        lost = [k for k in ca if k not in cb]
        changed = [k for k in ca if k in cb and ca[k] != cb[k]]
        same_totals = a[case]["totals"] == b[case]["totals"]
        ok = not (diff or lost or changed) and same_totals
        bad += not ok
        print(f"{case:36s} files={len(fa):3d} differing={len(diff)} "
              f"checkpoint_lost={lost} checkpoint_changed={changed} "
              f"totals_equal={same_totals} {'OK' if ok else diff[:6]}")
    print("ALL IDENTICAL" if not bad else f"{bad} cases differ")
    return 1 if bad else 0


def placements(path: str) -> int:
    """Every ``-exchange`` session case of one dump against its
    ``-local`` twin: same files, checkpoint and totals."""
    with open(path) as fh:
        res = json.load(fh)
    bad = n = 0
    for case in sorted(res):
        if "-exchange-" not in case:
            continue
        n += 1
        twin = case.replace("-exchange-", "-local-")
        a, b = res[case], res.get(twin)
        diff = (["MISSING TWIN"] if b is None else sorted(
            k for k in set(a["files"]) | set(b["files"])
            if a["files"].get(k) != b["files"].get(k)))
        ok = b is not None and not diff and all(
            a[k] == b[k] for k in ("checkpoint", "totals"))
        bad += not ok
        print(f"{case:40s} {'OK' if ok else diff[:6] or 'checkpoint/totals'}")
    print(f"{n - bad} of {n} exchange cases equal their local twin"
          if n else "no exchange cases")
    return 1 if bad or not n else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) in (4, 5):
        dump(sys.argv[2], sys.argv[3], *map(int, sys.argv[4:]))
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    elif sys.argv[1:2] == ["placements"] and len(sys.argv) == 3:
        sys.exit(placements(sys.argv[2]))
    else:
        sys.exit(__doc__)
