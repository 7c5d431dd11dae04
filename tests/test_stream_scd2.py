"""StreamingScd2Job — continuous SCD type-2 changelog across
micro-batch cycles: op-grammar pinning, kernel sweep-equivalence,
batch equality on both engines, out-of-order arrivals under lateness,
crash-replay byte identity, finalize + late routing, fold-back to the
batch dimension."""

import hashlib
import os

import numpy as np
import pandas as pd
import pytest

from imagor_ray.pipelines.stream_scd2 import (
    StreamingScd2Job, _empty_reg, _scd2_cycle_kernel)

_OPS_SORT = ["user_id", "change_ts_us", "version", "op"]


def _rows(spec):
    """spec: list of (user_id, event_id, ts_s, attr)."""
    return pd.DataFrame({
        "user_id": np.array([s[0] for s in spec], dtype="int64"),
        "event_id": np.array([s[1] for s in spec], dtype="int64"),
        "ts_us": np.array([s[2] * 1_000_000 for s in spec], dtype="int64"),
        "attr": [s[3] for s in spec],
    })


def _batch_ops(df: pd.DataFrame) -> pd.DataFrame:
    """Reference: the full-corpus op derivation (the SQL oracle's
    three UNION arms in pandas)."""
    g = df.sort_values(["user_id", "ts_us", "event_id"],
                       kind="mergesort").reset_index(drop=True)
    u = g["user_id"].to_numpy()
    t = g["ts_us"].to_numpy()
    a = g["attr"].to_numpy()
    n = len(g)
    new_user = np.ones(n, dtype=bool)
    new_user[1:] = u[1:] != u[:-1]
    new_run = new_user | np.concatenate(
        [[True], a[1:] != a[:-1]])
    starts = np.flatnonzero(new_run)
    ru, rf, ra = u[starts], t[starts], a[starts]
    first = np.ones(len(starts), dtype=bool)
    first[1:] = ru[1:] != ru[:-1]
    fidx = np.maximum.accumulate(
        np.where(first, np.arange(len(starts)), 0))
    version = np.arange(len(starts)) - fidx + 1
    nxt = np.full(len(starts), -1, dtype="int64")
    nxt[:-1] = np.where(ru[:-1] == ru[1:], rf[1:], -1)
    frames = [pd.DataFrame({
        "user_id": ru, "op": np.ones(len(ru), dtype="int64"),
        "version": version.astype("int64"), "attr": ra,
        "valid_from_us": rf,
        "valid_to_us": np.full(len(ru), -1, dtype="int64"),
        "change_ts_us": rf,
    })]
    hasn = nxt != -1
    frames.append(pd.DataFrame({
        "user_id": ru[hasn], "op": np.full(int(hasn.sum()), -1, "int64"),
        "version": version[hasn].astype("int64"), "attr": ra[hasn],
        "valid_from_us": rf[hasn],
        "valid_to_us": np.full(int(hasn.sum()), -1, dtype="int64"),
        "change_ts_us": nxt[hasn],
    }))
    frames.append(pd.DataFrame({
        "user_id": ru[hasn], "op": np.ones(int(hasn.sum()), dtype="int64"),
        "version": version[hasn].astype("int64"), "attr": ra[hasn],
        "valid_from_us": rf[hasn], "valid_to_us": nxt[hasn],
        "change_ts_us": nxt[hasn],
    }))
    return (pd.concat(frames, ignore_index=True)
            .sort_values(_OPS_SORT, kind="mergesort")
            .reset_index(drop=True))


def _mkcorpus(n=4000, users=60, seed=3):
    rng = np.random.RandomState(seed)
    types = np.array(["signup", "click", "purchase", "view"])
    base = 1_700_000_000
    return _rows([
        (int(rng.randint(0, users)), i,
         base + int(rng.randint(0, 5 * 86_400)),
         str(types[rng.randint(0, 4)]))
        for i in range(n)])


def _stage_days(df: pd.DataFrame, tmp, jitter: bool = False) -> str:
    d = pd.DataFrame({
        "event_id": df["event_id"].to_numpy(dtype="int64"),
        "ts": pd.Series(df["ts_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "user_id": df["user_id"].to_numpy(dtype="int64"),
        "event_type": df["attr"].to_numpy(),
    })
    ats = d["ts"]
    if jitter:
        delayed = (d["event_id"].to_numpy(dtype="int64") % 7) == 0
        ats = ats + pd.to_timedelta(np.where(delayed, 86_400, 0), unit="s")
    d["_day"] = ats.dt.strftime("%Y%m%d")
    input_dir = str(tmp / ("days_j" if jitter else "days"))
    os.makedirs(input_dir, exist_ok=True)
    for day, g in d.groupby("_day"):
        (g.drop(columns=["_day"])
         .sort_values("event_id", kind="mergesort")
         .to_parquet(os.path.join(input_dir, f"batch-{day}.parquet"),
                     index=False))
    return input_dir


def _ops_bytes(job) -> bytes:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.ops_dir)):
        if f.endswith(".parquet"):
            h.update(f.encode())
            with open(os.path.join(job.ops_dir, f), "rb") as fh:
                h.update(fh.read())
    return h.digest()


class TestKernel:
    def test_op_grammar_hand_built(self):
        # user 1: A A B A → versions 1(A),2(B),3(A): 7 ops
        df = _rows([(1, 0, 10, "A"), (1, 1, 20, "A"),
                    (1, 2, 30, "B"), (1, 3, 40, "A")])
        ops, reg = _scd2_cycle_kernel(_empty_reg(), df)
        M = 1_000_000
        want = pd.DataFrame({
            "user_id": [1, 1, 1, 1, 1, 1, 1],
            "op": [1, -1, 1, 1, -1, 1, 1],
            "version": [1, 1, 1, 2, 2, 2, 3],
            "attr": ["A", "A", "A", "B", "B", "B", "A"],
            "valid_from_us": [10 * M, 10 * M, 10 * M, 30 * M,
                              30 * M, 30 * M, 40 * M],
            "valid_to_us": [-1, -1, 30 * M, -1, -1, 40 * M, -1],
            "change_ts_us": [10 * M, 30 * M, 30 * M, 30 * M,
                             40 * M, 40 * M, 40 * M],
        }).sort_values(_OPS_SORT, kind="mergesort").reset_index(drop=True)
        for c in ["user_id", "op", "version", "valid_from_us",
                  "valid_to_us", "change_ts_us"]:
            want[c] = want[c].astype("int64")
        pd.testing.assert_frame_equal(ops, want)
        assert reg.to_dict("list") == {
            "user_id": [1], "version": [3], "attr": ["A"],
            "valid_from_us": [40 * M]}

    def test_register_continues_same_attr_without_ops(self):
        df1 = _rows([(1, 0, 10, "A")])
        ops1, reg = _scd2_cycle_kernel(_empty_reg(), df1)
        assert len(ops1) == 1                     # open v1
        ops2, reg2 = _scd2_cycle_kernel(reg, _rows([(1, 1, 20, "A")]))
        assert len(ops2) == 0                     # same attr: no ops
        assert reg2["valid_from_us"].tolist() == [10_000_000]
        ops3, reg3 = _scd2_cycle_kernel(reg2, _rows([(1, 2, 30, "B")]))
        assert sorted(ops3["op"].tolist()) == [-1, 1, 1]
        assert reg3["version"].tolist() == [2]

    def test_version_base_does_not_leak_across_users(self):
        # user 1 carries version 5; user 2 is brand-new — the base
        # broadcast must not give user 2 version 5 (index gather, not
        # value accumulate)
        reg = pd.DataFrame({
            "user_id": [1], "version": [5], "attr": ["A"],
            "valid_from_us": [1_000_000]})
        ops, reg2 = _scd2_cycle_kernel(
            reg, _rows([(1, 0, 10, "B"), (2, 1, 10, "C")]))
        got = dict(zip(reg2["user_id"], reg2["version"]))
        assert got == {1: 6, 2: 1}

    def test_sweep_equivalence_random(self):
        df = _mkcorpus(n=3000, users=40, seed=7)
        batch = _batch_ops(df)
        reg = _empty_reg()
        outs, prev = [], -1
        base = int(df["ts_us"].min())
        cuts = [base + k * 86_400 * 1_000_000 for k in (1, 2, 3, 4)]
        for cut in cuts + [None]:
            if cut is None:
                ready = df[df["ts_us"] >= prev]
            else:
                ready = df[(df["ts_us"] >= prev) & (df["ts_us"] < cut)]
                prev = cut
            ops, reg = _scd2_cycle_kernel(reg, ready)
            outs.append(ops)
        inc = (pd.concat(outs, ignore_index=True)
               .sort_values(_OPS_SORT, kind="mergesort")
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(inc, batch)


class TestJob:
    def test_job_equals_batch_both_engines(self, tmp_path, ray_session):
        df = _mkcorpus()
        input_dir = _stage_days(df, tmp_path)
        batch = _batch_ops(df)
        assert len(batch) > 0
        job = StreamingScd2Job(input_dir, str(tmp_path / "st"))
        job.run_all()
        job.finalize()
        pd.testing.assert_frame_equal(job.ops(), batch)

    def test_out_of_order_equals_batch(self, tmp_path, ray_session):
        df = _mkcorpus(seed=11)
        input_dir = _stage_days(df, tmp_path, jitter=True)
        batch = _batch_ops(df)
        job = StreamingScd2Job(input_dir, str(tmp_path / "stj"),
                               allowed_lateness_s=2 * 86_400)
        tot = job.run_all()
        assert tot["late"] == 0
        job.finalize()
        pd.testing.assert_frame_equal(job.ops(), batch)

    def test_folded_equals_batch_dimension(self, tmp_path):
        df = _mkcorpus(seed=5)
        input_dir = _stage_days(df, tmp_path)
        job = StreamingScd2Job(input_dir, str(tmp_path / "st_fold"))
        job.run_all()
        job.finalize()
        folded = job.folded()
        batch = _batch_ops(df)
        opens = batch[(batch["op"] == 1) & (batch["valid_to_us"] == -1)]
        closes = batch[(batch["op"] == 1) & (batch["valid_to_us"] != -1)]
        retr = set(map(tuple, batch[batch["op"] == -1]
                       [["user_id", "version"]].to_numpy()))
        live_open = opens[[tuple(x) not in retr for x in
                           opens[["user_id", "version"]].to_numpy()]]
        want = (pd.concat([live_open, closes], ignore_index=True)
                [["user_id", "version", "attr", "valid_from_us",
                  "valid_to_us"]]
                .sort_values(["user_id", "version"], kind="mergesort")
                .reset_index(drop=True))
        pd.testing.assert_frame_equal(folded, want)

    def test_crash_replay_byte_identity(self, tmp_path):
        # crash BETWEEN the op-file write and the checkpoint commit
        # (cp.save raises): cycle 1's op file and its staged-but-
        # unreferenced state snapshot are on disk, the checkpoint
        # still points at cycle 0 — the replay must re-run cycle 1
        # against the committed pre-cycle state and overwrite the
        # same files with identical bytes. (Version numbers make SCD2
        # maximally state-sensitive: a replay from the wrong snapshot
        # changes every subsequent op row, so this pins the commit
        # ordering for real — a state-dict rollback that points at a
        # gc'd snapshot would fail here.)
        df = _mkcorpus(seed=5)
        input_dir = _stage_days(df, tmp_path)
        sdir = str(tmp_path / "st_crash")
        job = StreamingScd2Job(input_dir, sdir)
        job.run_cycle()
        orig_save = job.cp.save
        job.cp.save = lambda state: (_ for _ in ()).throw(
            OSError("injected crash before commit"))
        with pytest.raises(OSError):
            job.run_cycle()
        sha_crashed = _ops_bytes(job)
        job.cp.save = orig_save

        job2 = StreamingScd2Job(input_dir, sdir)
        assert len(job2.cp.load()["processed"]) == 1   # commit was lost
        job2.run_cycle()                               # replays cycle 1
        assert _ops_bytes(job2) == sha_crashed
        job2.run_all()
        job2.finalize()
        pd.testing.assert_frame_equal(job2.ops(), _batch_ops(df))

    def test_finalize_terminal_and_late_routing(self, tmp_path):
        df = _mkcorpus(seed=9)
        input_dir = _stage_days(df, tmp_path, jitter=True)
        job = StreamingScd2Job(input_dir, str(tmp_path / "st_late"))
        tot = job.run_all()
        assert tot["late"] > 0
        job.finalize()
        # a file arriving after finalize must be refused, not processed
        extra_dir = _stage_days(_rows([(1, 10**6, 1_800_000_000, "A")]),
                                tmp_path / "st_late_extra")
        import shutil
        for f in os.listdir(extra_dir):
            shutil.copy(os.path.join(extra_dir, f),
                        os.path.join(input_dir, "zz-" + f))
        with pytest.raises(RuntimeError):
            job.run_cycle()
        late = pd.concat([
            pd.read_parquet(os.path.join(job.late_dir, f))
            for f in sorted(os.listdir(job.late_dir))], ignore_index=True)
        assert len(late) == tot["late"]
