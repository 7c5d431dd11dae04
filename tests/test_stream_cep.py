"""StreamingCepJob — incremental Kleene-funnel CEP across micro-batch
cycles: kernel invariants, batch equality on both engines, out-of-order
arrivals under lateness, crash-replay byte identity, finalize."""

import hashlib
import os

import numpy as np
import pandas as pd
import pytest

from imagor_ray.pipelines.stream_cep import (
    StreamingCepJob, _cep_cycle_kernel, _empty_kst)

W_US = 21600 * 1_000_000
_CODE = {"signup": 0, "click": 1, "purchase": 2, "other": 3}


def _rows(spec):
    """spec: list of (user_id, event_id, ts_s, type_name)."""
    return pd.DataFrame({
        "user_id": np.array([s[0] for s in spec], dtype="int64"),
        "event_id": np.array([s[1] for s in spec], dtype="int64"),
        "ts_us": np.array([s[2] * 1_000_000 for s in spec], dtype="int64"),
        "code": np.array([_CODE[s[3]] for s in spec], dtype="int64"),
    })


def _batch_matches(df: pd.DataFrame) -> pd.DataFrame:
    """Reference: the batch island kernel over the full event table."""
    g = df.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
    uid = g["user_id"].to_numpy()
    ts = g["ts_us"].to_numpy()
    code = g["code"].to_numpy()
    n = len(g)
    is_click = code == 1
    same_prev = np.zeros(n, dtype=bool)
    same_prev[1:] = uid[1:] == uid[:-1]
    prev_click = np.zeros(n, dtype=bool)
    prev_click[1:] = is_click[:-1]
    next_click = np.zeros(n, dtype=bool)
    next_click[:-1] = is_click[1:]
    same_next = np.zeros(n, dtype=bool)
    same_next[:-1] = uid[:-1] == uid[1:]
    starts = np.flatnonzero(is_click & ~(prev_click & same_prev))
    ends = np.flatnonzero(is_click & ~(next_click & same_next))
    ok = (starts > 0) & (ends < n - 1)
    s, e = starts[ok], ends[ok]
    good = ((uid[s - 1] == uid[s]) & (code[s - 1] == 0)
            & (uid[e + 1] == uid[e]) & (code[e + 1] == 2)
            & (ts[e + 1] - ts[s - 1] <= W_US))
    s, e = s[good], e[good]
    return pd.DataFrame({
        "user_id": uid[s],
        "start_ts": pd.Series(ts[s - 1]).astype("datetime64[us]"),
        "end_ts": pd.Series(ts[e + 1]).astype("datetime64[us]"),
        "n_clicks": (e - s + 1).astype("int64"),
    }).sort_values(["user_id", "start_ts", "end_ts"],
                   kind="mergesort").reset_index(drop=True)


def _run_incremental(df: pd.DataFrame, cuts: list) -> pd.DataFrame:
    """Feed the kernel watermark sweep by watermark sweep (cuts are
    ascending ts_s watermarks; the final sweep is +inf) and collect
    emissions."""
    kst = _empty_kst()
    out = []
    prev = -1
    for cut in list(cuts) + [None]:
        if cut is None:
            ready = df[df["ts_us"] >= prev]
        else:
            wm = cut * 1_000_000
            ready = df[(df["ts_us"] >= prev) & (df["ts_us"] < wm)]
            prev = wm
        em, kst = _cep_cycle_kernel(kst, ready, W_US)
        out.append(em)
    return (pd.concat(out, ignore_index=True)
            .sort_values(["user_id", "start_ts", "end_ts"],
                         kind="mergesort").reset_index(drop=True))


class TestKernel:
    def test_island_split_across_sweeps(self):
        # signup, 3 clicks, purchase — cut mid-island
        df = _rows([(1, 1, 100, "signup"), (1, 2, 200, "click"),
                    (1, 3, 300, "click"), (1, 4, 400, "click"),
                    (1, 5, 500, "purchase")])
        batch = _batch_matches(df)
        assert len(batch) == 1 and batch["n_clicks"].iloc[0] == 3
        for cut in ([250], [250, 350], [150, 250, 450], [450]):
            inc = _run_incremental(df, cut)
            pd.testing.assert_frame_equal(inc, batch)

    def test_island_dies_on_non_purchase(self):
        df = _rows([(1, 1, 100, "signup"), (1, 2, 200, "click"),
                    (1, 3, 300, "other"), (1, 4, 400, "purchase")])
        for cuts in ([], [250], [250, 350]):
            assert len(_run_incremental(df, cuts)) == 0

    def test_window_bound_uses_carried_signup_ts(self):
        # purchase lands exactly window + 1s after signup -> no match
        df = _rows([(1, 1, 0, "signup"), (1, 2, 10, "click"),
                    (1, 3, 21601, "purchase")])
        assert len(_run_incremental(df, [5000])) == 0
        # exactly at the window -> match
        df2 = _rows([(1, 1, 0, "signup"), (1, 2, 10, "click"),
                     (1, 3, 21600, "purchase")])
        inc = _run_incremental(df2, [5000])
        assert len(inc) == 1 and inc["n_clicks"].iloc[0] == 1

    def test_leading_click_island_never_matches(self):
        # user's first-ever events are clicks: no signup flank exists
        df = _rows([(1, 1, 100, "click"), (1, 2, 200, "click"),
                    (1, 3, 300, "purchase")])
        for cuts in ([], [150], [150, 250]):
            assert len(_run_incremental(df, cuts)) == 0

    def test_state_passthrough_for_untouched_users(self):
        # user 2's open island must survive a sweep that only has
        # user-1 rows, then still match
        df = _rows([(2, 1, 100, "signup"), (2, 2, 200, "click"),
                    (1, 3, 300, "other"), (2, 4, 400, "purchase")])
        inc = _run_incremental(df, [250, 350])
        batch = _batch_matches(df)
        pd.testing.assert_frame_equal(inc, batch)
        assert len(batch) == 1

    def test_multi_user_random_equivalence(self):
        rng = np.random.RandomState(7)
        n = 3000
        types = np.array(["signup", "click", "purchase", "other"])
        df = _rows([
            (int(rng.randint(0, 40)), i, int(rng.randint(0, 50000)),
             str(types[rng.randint(0, 4)]))
            for i in range(n)])
        batch = _batch_matches(df)
        assert len(batch) > 0
        inc = _run_incremental(df, [10000, 20000, 30000, 40000])
        pd.testing.assert_frame_equal(inc, batch)


def _stage_days(df: pd.DataFrame, tmp, jitter: bool = False) -> str:
    """Write per-arrival-day parquet files from (user_id, event_id,
    ts_us, code) rows, event_type restored from code."""
    inv = {v: k for k, v in _CODE.items()}
    d = pd.DataFrame({
        "event_id": df["event_id"].to_numpy(dtype="int64"),
        "ts": pd.Series(df["ts_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "user_id": df["user_id"].to_numpy(dtype="int64"),
        "event_type": df["code"].map(inv).to_numpy(),
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


def _mkcorpus(n=4000, users=60, seed=3):
    rng = np.random.RandomState(seed)
    types = np.array(["signup", "click", "purchase", "other"])
    base = 1_700_000_000
    return _rows([
        (int(rng.randint(0, users)), i,
         base + int(rng.randint(0, 5 * 86_400)),
         str(types[rng.randint(0, 4)]))
        for i in range(n)])


def _emit_bytes(job) -> bytes:
    h = hashlib.sha1()
    for f in sorted(os.listdir(job.emitted_dir)):
        if f.endswith(".parquet"):
            h.update(f.encode())
            with open(os.path.join(job.emitted_dir, f), "rb") as fh:
                h.update(fh.read())
    return h.digest()


class TestJob:
    def test_job_equals_batch_both_engines(self, tmp_path, ray_session):
        df = _mkcorpus()
        input_dir = _stage_days(df, tmp_path)
        batch = _batch_matches(df)
        assert len(batch) > 0
        job = StreamingCepJob(input_dir, str(tmp_path / "st"))
        job.run_all()
        job.finalize()
        pd.testing.assert_frame_equal(job.matches(), batch)

    def test_out_of_order_equals_batch(self, tmp_path, ray_session):
        df = _mkcorpus(seed=11)
        input_dir = _stage_days(df, tmp_path, jitter=True)
        batch = _batch_matches(df)
        assert len(batch) > 0
        job = StreamingCepJob(input_dir, str(tmp_path / "stj"),
                              allowed_lateness_s=2 * 86_400)
        tot = job.run_all()
        assert tot["late"] == 0  # 2-day horizon keeps everything
        job.finalize()
        pd.testing.assert_frame_equal(job.matches(), batch)

    def test_crash_replay_byte_identity(self, tmp_path):
        df = _mkcorpus(seed=5)
        input_dir = _stage_days(df, tmp_path)
        sdir = str(tmp_path / "st_crash")
        job = StreamingCepJob(input_dir, sdir)
        job.run_cycle()
        job.run_cycle()
        # crash: second job resumes from the checkpoint and re-runs
        job2 = StreamingCepJob(input_dir, sdir)
        # replay cycle 2 by wiping its processed mark
        st = job2.cp.load()
        st["processed"] = st["processed"][:1]
        st["cycles"] = 1
        st["watermark_us"] = st["cycle_metrics"][0]["watermark_us"]
        st["open_sessions_file"] = "open-00000.parquet"
        st["cycle_metrics"] = st["cycle_metrics"][:1]
        job2.cp.save(st)
        before = _emit_bytes(job)
        job2.run_cycle()
        assert _emit_bytes(job2) == before
        job2.run_all()
        job2.finalize()
        pd.testing.assert_frame_equal(job2.matches(), _batch_matches(df))

    def test_finalize_terminal_and_late_routing(self, tmp_path):
        df = _mkcorpus(seed=9)
        input_dir = _stage_days(df, tmp_path, jitter=True)
        # lateness 0: jittered arrivals fall behind the watermark and
        # must route late, not corrupt the match set
        job = StreamingCepJob(input_dir, str(tmp_path / "st_late"))
        tot = job.run_all()
        assert tot["late"] > 0
        job.finalize()
        # a file arriving after finalize must be refused, not processed
        extra = _rows([(1, 10**6, 1_800_000_000, "click")])
        _stage_days(extra, tmp_path / "st_late_extra")
        import shutil
        for f in os.listdir(str(tmp_path / "st_late_extra" / "days")):
            shutil.copy(
                os.path.join(str(tmp_path / "st_late_extra" / "days"), f),
                os.path.join(input_dir, "zz-" + f))
        with pytest.raises(RuntimeError):
            job.run_cycle()
        late = pd.concat([
            pd.read_parquet(os.path.join(job.late_dir, f))
            for f in sorted(os.listdir(job.late_dir))], ignore_index=True)
        assert len(late) == tot["late"]
