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
