"""Byte-identity check for the keyed-stream jobs across two checkouts.

``dump ROOT OUT.json`` runs every keyed-stream job of the checkout at
ROOT (stream and two-source joins, temporal join, SCD2, CEP, dedup,
session changelog, broadcast rules) over ``_random_batches(41)`` from
``tests/test_state_rescale.py`` — split click / non-click for the
two-source join — with lateness 0 and 7200 s, on the in-process
executor (``ray_cycle_threshold=10**9``) and the bucketed one
(``0``, 4 buckets), plus ``finalize()`` where the job has one. It
writes the sha1 of every file under each state dir except
``checkpoint.json``, the checkpoint itself and the ``run_all`` totals.

``compare A.json B.json`` prints one line per case and exits non-zero
unless every file digest and the totals match and B's checkpoints lose
no key and change no value of A's.

Run ``dump`` with ``PYTHONPATH=ROOT`` so Ray workers import the same
checkout::

    PYTHONPATH=$OLD python bench/stream_job_digests.py dump $OLD old.json
    PYTHONPATH=$NEW python bench/stream_job_digests.py dump $NEW new.json
    python bench/stream_job_digests.py compare old.json new.json
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile


def dump(root: str, out: str) -> None:
    sys.path.insert(0, root)
    sys.path.insert(0, os.path.join(root, "tests"))
    import pandas as pd
    import ray

    from test_state_rescale import _random_batches
    from imagor_ray.pipelines.broadcast_rules import BroadcastRulesJob
    from imagor_ray.pipelines.changelog import SessionChangelogJob
    from imagor_ray.pipelines.stream_cep import StreamingCepJob
    from imagor_ray.pipelines.stream_dedup import StreamingDedupJob
    from imagor_ray.pipelines.stream_join import (StreamingJoinJob,
                                                  TwoSourceJoinJob)
    from imagor_ray.pipelines.stream_scd2 import StreamingScd2Job
    from imagor_ray.pipelines.temporal_join import TemporalJoinJob

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    tmp = tempfile.mkdtemp()
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

    ind = stage("in")
    left = stage("left", lambda d: d["event_type"] == "click")
    right = stage("right", lambda d: d["event_type"] != "click")
    jobs = {
        "join": lambda s, **kw: StreamingJoinJob(ind, s, **kw),
        "two": lambda s, **kw: TwoSourceJoinJob(left, right, s, **kw),
        "temporal": lambda s, **kw: TemporalJoinJob(ind, s, **kw),
        "scd2": lambda s, **kw: StreamingScd2Job(ind, s, **kw),
        "cep": lambda s, **kw: StreamingCepJob(ind, s, **kw),
        "dedup": lambda s, **kw: StreamingDedupJob(ind, s, **kw),
        "session": lambda s, **kw: SessionChangelogJob(ind, s, **kw),
        "rules": lambda s, **kw: BroadcastRulesJob(ind, s, **kw),
    }
    executors = {"local": dict(ray_cycle_threshold=10**9),
                 "bucketed": dict(ray_cycle_threshold=0, num_buckets=4)}
    res = {}
    for name, make in jobs.items():
        for late in (0, 7200):
            for ex, kw in executors.items():
                sd = os.path.join(tmp, f"{name}-{late}-{ex}")
                job = make(sd, allowed_lateness_s=late, **kw)
                totals = job.run_all()
                if hasattr(job, "finalize"):
                    job.finalize()
                files = {}
                for dp, _, fs in os.walk(sd):
                    for f in fs:
                        p = os.path.join(dp, f)
                        rel = os.path.relpath(p, sd)
                        if rel != "checkpoint.json":
                            with open(p, "rb") as fh:
                                files[rel] = hashlib.sha1(
                                    fh.read()).hexdigest()
                with open(os.path.join(sd, "checkpoint.json")) as fh:
                    cp = json.load(fh)
                res[f"{name}-{late}-{ex}"] = {
                    "files": files, "checkpoint": cp, "totals": totals}
    ray.shutdown()
    with open(out, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)


def compare(a_path: str, b_path: str) -> int:
    with open(a_path) as fh:
        a = json.load(fh)
    with open(b_path) as fh:
        b = json.load(fh)
    bad = 0
    for case in sorted(a):
        if case not in b:
            print(f"{case:24s} MISSING")
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
        print(f"{case:24s} files={len(fa):3d} differing={len(diff)} "
              f"checkpoint_lost={lost} checkpoint_changed={changed} "
              f"totals_equal={same_totals} {'OK' if ok else diff[:6]}")
    print("ALL IDENTICAL" if not bad else f"{bad} cases differ")
    return 1 if bad else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) == 4:
        dump(sys.argv[2], sys.argv[3])
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) == 4:
        sys.exit(compare(sys.argv[2], sys.argv[3]))
    else:
        sys.exit(__doc__)
