"""Zone-map late stats: exact (late_count, total, max_us) from parquet
row-group footers, with driver-side scanning (ts column only) of just
the row groups whose [min, max] straddles the watermark or that carry
no ts statistics."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from imagor_ray.pipelines.keyed_stream import file_max_ts, footer_late_stats


def _write(tmp_path, ts_us_values, row_group_size=None, stats=True):
    df = pd.DataFrame({
        "conv_id": [f"c{i}" for i in range(len(ts_us_values))],
        "ts": pd.to_datetime(np.asarray(ts_us_values, dtype="int64"), unit="us"),
    })
    p = str(tmp_path / "batch.parquet")
    pq.write_table(
        pa.Table.from_pandas(df, preserve_index=False), p,
        row_group_size=row_group_size or len(df) or 1,
        write_statistics=stats,
    )
    return p


@pytest.mark.parametrize("wm", [0, 50, 150, 250, 1_000])
def test_exact_counts_across_row_groups(tmp_path, wm):
    # 3 row groups of 4: [0..300] us in steps of 25
    ts = list(range(0, 300, 25))
    p = _write(tmp_path, ts, row_group_size=4)
    late, total, max_us = footer_late_stats(p, wm)
    assert total == len(ts)
    assert late == sum(1 for t in ts if t < wm)
    assert max_us == max(ts)


def test_no_late_needs_no_scan(tmp_path, monkeypatch):
    """min >= wm for every group → zero row groups read (the common
    case costs footer metadata only)."""
    p = _write(tmp_path, [100, 200, 300, 400], row_group_size=2)

    def boom(*a, **k):
        raise AssertionError("row group scanned despite clean zone maps")

    monkeypatch.setattr(pq, "ParquetFile", boom)
    late, total, max_us = footer_late_stats(p, 100)
    assert (late, total, max_us) == (0, 4, 400)


def test_all_late_group_counted_without_scan(tmp_path, monkeypatch):
    p = _write(tmp_path, [10, 20, 500, 600], row_group_size=2)

    def boom(*a, **k):
        raise AssertionError("fully-late group should come from zone maps")

    monkeypatch.setattr(pq, "ParquetFile", boom)
    late, total, max_us = footer_late_stats(p, 400)
    assert (late, total, max_us) == (2, 4, 600)


def test_statless_file_exact_counts(tmp_path):
    """Row groups without ts statistics (none written at all, or only
    for ``conv_id``) are scanned, never guessed: the counts and max
    equal those of the same rows written with statistics, at every
    watermark."""
    ts = list(range(0, 300, 25))
    with_stats = _write(tmp_path, ts, row_group_size=4)
    for stats in (False, ["conv_id"]):
        d = tmp_path / f"stats-{bool(stats)}"
        d.mkdir()
        p = _write(d, ts, row_group_size=4, stats=stats)
        md = pq.ParquetFile(p).metadata
        assert md.num_row_groups == 3
        assert all(md.row_group(i).column(1).statistics is None
                   for i in range(3))
        for wm in (0, 50, 150, 250, 1_000):
            assert footer_late_stats(p, wm) == (
                sum(1 for t in ts if t < wm), len(ts), max(ts))
            assert footer_late_stats(p, wm) == footer_late_stats(
                with_stats, wm)
        assert file_max_ts(p) == file_max_ts(with_stats) == max(ts)


def test_unreadable_footer_raises(tmp_path):
    p = tmp_path / "torn.parquet"
    p.write_bytes(b"PAR1 not a parquet footer")
    with pytest.raises(pa.ArrowInvalid):
        footer_late_stats(str(p), 0)


def test_empty_file_falls_back(tmp_path):
    """An empty file has a statless (or absent) row group: no late
    rows, no rows, no max (file_max_ts reads -1)."""
    p = _write(tmp_path, [])
    assert footer_late_stats(p, 123) == (0, 0, None)
    assert file_max_ts(p) == -1
