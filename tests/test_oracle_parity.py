"""Full catalog parity: every queries() entry with an oracle_sql() mirror
must match DuckDB exactly at sf0.001 (row count + sorted-value equality —
the same comparison shape as the driver's correctness gate)."""

from __future__ import annotations

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
)


def run_oracle(q: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    try:
        return con.sql(q).df()
    finally:
        con.close()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(9)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def to_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    return result.to_pandas()


def oracle_keys():
    from imagor_ray.pipelines.queries import ORACLES
    return sorted(ORACLES.keys())


@pytest.mark.parametrize("name", oracle_keys())
def test_query_matches_oracle(name, ray_session):
    from imagor_ray.pipelines.queries import _DRIVER_WINDOW, ORACLES, QUERIES

    got = normalize(to_df(QUERIES[name](SF)))
    want = normalize(run_oracle(ORACLES[name]))
    if name in _DRIVER_WINDOW:
        # a 0-row oracle would make the parity check of this entry vacuous
        assert len(want) > 0, f"{name}: _DRIVER_WINDOW entry has a 0-row oracle"
    assert len(got) == len(want), f"{name}: {len(got)} rows vs oracle {len(want)}"
    assert list(got.columns) == list(want.columns), (
        f"{name}: columns {list(got.columns)} vs {list(want.columns)}"
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=False,
                                  rtol=0, atol=1e-9)


def test_rows_only_queries_run(ray_session):
    from imagor_ray.pipelines.queries import ORACLES, QUERIES

    for name in sorted(set(QUERIES) - set(ORACLES)):
        df = to_df(QUERIES[name](SF))
        assert df is not None and len(df.columns) > 0, name


def test_q18_driver_collects_at_most_topn(ray_session, monkeypatch):
    """q18 with a top-3, once with every order heavy (threshold 0) and
    once with none (a threshold above every order's quantity): the
    oracle still matches, empty result columns included, and no Ray
    collection of probed orders brings more than the top-3 rows to the
    driver."""
    import ray.data as rd

    from imagor_ray.pipelines.queries import _Q18_SQL, _q_q18

    collected = []
    to_pandas = rd.Dataset.to_pandas

    def spy(self, *a, **kw):
        df = to_pandas(self, *a, **kw)
        if "o_orderkey" in df.columns:
            collected.append(len(df))
        return df

    monkeypatch.setattr(rd.Dataset, "to_pandas", spy)
    for threshold, rows in ((0, 3), (10**12, 0)):
        collected.clear()
        got = normalize(_q_q18(SF, qty_threshold=threshold, topn=3))
        sql = (_Q18_SQL.replace("> 250", f"> {threshold}")
               .replace("LIMIT 100", "LIMIT 3"))
        want = normalize(run_oracle(sql))
        assert len(want) == rows
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        assert max(collected, default=0) <= 3, collected
        assert collected or not rows
