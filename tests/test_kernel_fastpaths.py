"""Three per-bucket kernels of the streaming flagship against the forms
they replaced, kept here as references: the Arrow-sorted sink write,
the digit-run detector's prefiltered regex and the lexsort sessionize
must give exactly what the pandas forms gave."""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from imagor_ray.pipelines.streaming import StreamingSessionJob
from imagor_ray.stages.detector import DigitRunDetector
from imagor_ray.stages.windows import ts_us
from imagor_ray.state.sink import ExactlyOnceSink

_ALPHA = list("abcXYZ09 ") + ["é", "漢", "🙂", "٣", "５", "\x00"]


def _text(rng, n: int) -> str:
    return "".join(rng.choice(_ALPHA, n))


def _partition(rng, n: int, dup: bool) -> pd.DataFrame:
    g = pd.DataFrame({
        "conv_id": [_text(rng, int(rng.integers(0, 4))) for _ in range(n)],
        "turn_idx": rng.integers(0, 5, n).astype("int32"),
        "signature": [_text(rng, 3) for _ in range(n)],
        "x": rng.normal(size=n),
        "t": [None if rng.random() < .3 else _text(rng, 2)
              for _ in range(n)],
        "_bucket": 3,
    })
    if dup:
        g = pd.concat([g, g.sample(frac=.5, random_state=int(n))])
    g.index = rng.permutation(len(g)) + 100
    return g


@pytest.mark.parametrize("seed", range(6))
def test_sink_arrow_sort_writes_pandas_sort_bytes(tmp_path, seed):
    """The sink's Arrow sort writes the bytes and manifest key range of
    the pandas mergesort it replaced, duplicate keys, Unicode, NUL and
    a float ``sort_extra`` key included."""
    rng = np.random.default_rng(seed)
    extra = ("x",) if seed % 2 else ()
    g = _partition(rng, int(rng.integers(1, 60)), dup=seed % 3 == 0)
    sink = ExactlyOnceSink(str(tmp_path / "out"), num_buckets=4)
    os.makedirs(sink.manifest_dir, exist_ok=True)
    sink.write_partition_df(g.copy(), sort_extra=extra)

    ref = g
    keys = ["conv_id", "turn_idx", "signature"]
    if ref.duplicated(subset=keys).any():
        fp = pd.util.hash_pandas_object(ref.drop(columns=["_bucket"]),
                                        index=False).to_numpy()
        ref = (ref.assign(_row_fp=fp)
               .sort_values([*keys, "_row_fp"], kind="mergesort")
               .drop_duplicates(subset=keys, keep="first")
               .drop(columns=["_row_fp"]))
    ref = ref.sort_values(["conv_id", "turn_idx", *extra, "signature"],
                          kind="mergesort"
                          ).drop(columns=["_bucket"]).reset_index(drop=True)
    want = str(tmp_path / "ref.parquet")
    pq.write_table(pa.Table.from_pandas(ref, preserve_index=False), want,
                   compression="snappy")
    got = os.path.join(sink.out_dir, "part-00003.parquet")
    with open(got, "rb") as a, open(want, "rb") as b:
        assert a.read() == b.read()
    with open(os.path.join(sink.manifest_dir, "bucket-00003.json")) as f:
        m = json.load(f)
    assert m["rows"] == len(ref)
    assert m["key_min"] == [ref["conv_id"].iloc[0],
                            int(ref["turn_idx"].iloc[0])]
    assert m["key_max"] == [ref["conv_id"].iloc[-1],
                            int(ref["turn_idx"].iloc[-1])]


def _series(rng, trial: int) -> pd.Series:
    vals = [_text(rng, int(rng.integers(0, 8)))
            for _ in range(int(rng.integers(0, 30)))]
    if vals and trial % 5 == 1:
        vals[0] = None
    if vals and trial % 5 == 2:
        vals[-1] = np.nan
    if vals and trial % 5 == 3:
        vals[0] = 5
    if trial % 5 == 4:
        vals = [b"ab1"] + vals
    s = pd.Series(vals, dtype=object, name="text")
    if trial % 3 == 0:
        s.index = np.zeros(len(s), int)
    if trial % 7 == 6:
        s = s.astype("string")
    return s


def test_digit_prefilter_matches_full_regex():
    """Prefiltered ``replace_spans`` equals the regex over every row:
    Unicode digits, non-str rows, duplicate labels and string dtype
    included (or raises what it raises)."""
    det = DigitRunDetector()
    det.startup()

    def repl(span: str) -> str:
        return "*" * len(span)

    rng = np.random.default_rng(1)
    for trial in range(200):
        s = _series(rng, trial)
        try:
            want = s.str.replace(det._re, lambda m: repl(m.group(0)),
                                 regex=True)
        except Exception as e:  # the same error, or the same rows
            with pytest.raises(type(e)):
                det.replace_spans(s, repl)
            continue
        pd.testing.assert_series_equal(det.replace_spans(s, repl), want)


def _sessionize_groupby(turns: pd.DataFrame, gap_s: int) -> pd.DataFrame:
    """The reference for :meth:`StreamingSessionJob._sessionize_with_start`:
    the same interval-hull sessionize as a pandas sort and groupby."""
    df = (turns.sort_values(["conv_id", "_start", "ts"], kind="mergesort")
          .reset_index(drop=True))
    s_us = ts_us(df["_start"])
    e_us = ts_us(df["ts"])
    conv = df["conv_id"].to_numpy()
    # per-conv running max of interval ends (integer-exact; the
    # value a global shift leaks across a conv boundary is masked
    # by the conv-change flag)
    hull = np.asarray(pd.Series(e_us)
                      .groupby(pd.Series(conv), sort=False).cummax(),
                      dtype="int64")
    prev_hull = np.empty_like(hull)
    prev_hull[0] = np.int64(-(1 << 62))
    prev_hull[1:] = hull[:-1]
    new = np.empty(len(df), dtype=bool)
    new[0] = True
    new[1:] = ((conv[1:] != conv[:-1])
               | (s_us[1:] > prev_hull[1:] + gap_s * 1_000_000))
    gsid = np.cumsum(new)
    return df.assign(_g=gsid).groupby("_g", sort=True).agg(
        conv_id=("conv_id", "first"),
        session_start=("_start", "min"),
        session_end=("ts", "max"),
        n_turns=("n_turns", "sum"),
    ).reset_index(drop=True)


def _turns(rng, n: int, unit: str, ties: bool) -> pd.DataFrame:
    base = pd.Timestamp("2024-01-01").value
    ts = base + rng.integers(0, 4 * 3600 * 10**9, n)
    if ties:
        ts = ts // 10**9 * 10**9
    dur = np.where(rng.random(n) < .3,
                   rng.integers(0, 3600 * 10**9, n), 0)
    return pd.DataFrame({
        "conv_id": rng.choice(["a", "b", "c", "é", "zz", "A"], n
                              ).astype(object),
        "ts": pd.to_datetime(ts + dur).astype(f"datetime64[{unit}]"),
        "n_turns": rng.integers(1, 5, n).astype("int64"),
        "_start": pd.to_datetime(ts).astype(f"datetime64[{unit}]"),
    }, index=rng.permutation(n) * 3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_lexsort_sessionize_matches_groupby():
    """The lexsort + reduceat sessionize equals the pandas groupby form
    (ns and µs inputs, tied timestamps, intervals, any index, a null
    conv_id)."""
    rng = np.random.default_rng(5)
    for trial in range(150):
        df = _turns(rng, int(rng.integers(1, 80)),
                    "ns" if trial % 3 == 0 else "us", trial % 4 == 0)
        if trial % 10 == 7:
            df.loc[df.index[0], "conv_id"] = None
        gap = int(rng.choice([60, 600, 1800]))
        pd.testing.assert_frame_equal(
            StreamingSessionJob._sessionize_with_start(df, gap),
            _sessionize_groupby(df, gap), check_exact=True)
