"""CLI entry — the engine's analogue of the reference's server binary
(``cmd/imagor/main.go:12-21`` + flag/env config binding
``config/config.go:33-133``), shaped for ``ray job submit``::

    ray job submit -- python -m imagor_ray flagship --sf /root/testdata/sf0.001 --out /tmp/out
    ray job submit -- python -m imagor_ray stream --input /data/stream --state /tmp/state
    python -m imagor_ray sessions --sf /root/testdata/sf0.001

Owns the Ray session (guarded init) — library code never calls
``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


_ORACLE_TABLES = ("region", "nation", "customer", "supplier", "part",
                  "orders", "lineitem", "events", "documents", "embeddings")


def _verify_against_oracle(name: str, df, sf_dir: str) -> dict:
    """Side-by-side oracle check — the evaluation driver's comparator
    (sorted columns, sorted values, 1e-9 float tolerance) as a CLI."""
    import duckdb
    import pandas as pd

    from imagor_ray.pipelines.queries import ORACLES

    con = duckdb.connect()
    for t in _ORACLE_TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    want = con.sql(ORACLES[name]).df()

    def norm(d):
        d = d[sorted(d.columns)].copy()
        for c in d.columns:
            if pd.api.types.is_datetime64_any_dtype(d[c]):
                d[c] = d[c].astype("datetime64[us]")
            elif pd.api.types.is_integer_dtype(d[c]):
                d[c] = d[c].astype("int64")
            elif pd.api.types.is_float_dtype(d[c]):
                d[c] = d[c].astype("float64").round(9)
        return d.sort_values(list(d.columns),
                             kind="mergesort").reset_index(drop=True)

    g, w = norm(df), norm(want)
    out = {"query": name, "rows": int(len(g)), "oracle_rows": int(len(w)),
           "columns_match": list(g.columns) == list(w.columns)}
    try:
        pd.testing.assert_frame_equal(g, w, check_dtype=False,
                                      check_exact=False, rtol=0, atol=1e-9)
        out["match"] = len(g) == len(w) and out["columns_match"]
    except AssertionError:
        out["match"] = False
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="imagor_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("flagship", help="fused flagship chain → exactly-once sink")
    p.add_argument("--sf", required=True, help="input table directory")
    p.add_argument("--out", required=True, help="sink output directory")
    p.add_argument("--secret", default=None)
    p.add_argument("--buckets", type=int, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--check-freshness", action="store_true", default=None,
                   help="per-bucket source-fingerprint staleness probe")
    p.add_argument("--source-write-through", default=None,
                   help="raw-input checkpoint directory (imagor.go:457-467)")

    p = sub.add_parser("sessions", help="session-window summaries")
    p.add_argument("--sf", required=True)
    p.add_argument("--gap-s", type=int, default=None)
    p.add_argument("--salt-bucket-s", type=int, default=None)

    p = sub.add_parser("config", help="print the resolved engine config (env + defaults)")

    p = sub.add_parser(
        "metrics",
        help="unified per-stage metrics report (prometheus.go analogue)",
    )
    p.add_argument("--sink", default=None, help="exactly-once sink directory")
    p.add_argument("--state", default=None, help="streaming state directory")

    p = sub.add_parser(
        "reshard",
        help="rewrite a committed sink into a new bucket layout "
             "(small-file compaction / bucket split)",
    )
    p.add_argument("--src", required=True, help="source sink directory/URI")
    p.add_argument("--dst", required=True, help="destination sink directory/URI")
    p.add_argument("--dst-buckets", type=int, required=True)

    p = sub.add_parser(
        "query",
        help="run any catalog operator by name (the queries() registry); "
             "prints a row-count summary or writes partitioned parquet",
    )
    p.add_argument("name", nargs="?", default=None,
                   help="catalog entry; omit (or use --list) to list all")
    p.add_argument("--sf", default=None, help="input table directory")
    p.add_argument("--out", default=None,
                   help="write result as parquet under this directory "
                        "instead of printing the summary")
    p.add_argument("--list", action="store_true", help="list catalog entries")
    p.add_argument("--show", type=int, default=0,
                   help="also print the first N result rows as JSON lines")
    p.add_argument("--verify", action="store_true",
                   help="run the entry's DuckDB oracle over the same "
                        "tables and report row/column/value equality")
    p.add_argument("--all", action="store_true",
                   help="run EVERY catalog entry (one JSON line each, "
                        "continues on error); with --verify this is the "
                        "full correctness sweep")

    p = sub.add_parser("stream", help="micro-batch streaming job (full DAG)")
    p.add_argument("--input", required=True, help="micro-batch parquet dir")
    p.add_argument("--state", required=True, help="checkpoint/state dir")
    p.add_argument("--gap-s", type=int, default=1800)
    p.add_argument("--lateness-s", type=int, default=0)
    p.add_argument("--buckets", type=int, default=None)
    p.add_argument("--flush", action="store_true", help="close open sessions at end")

    args = ap.parse_args(argv)

    # flag > env (IMAGOR_RAY_*) > default — config.go:33-133 precedence
    from imagor_ray.config import EngineConfig

    cfg = EngineConfig.from_env()

    if args.cmd == "config":
        print(json.dumps(cfg.describe()))
        return 0
    if args.cmd == "query" and (args.list
                                or (args.name is None and not args.all)):
        from imagor_ray.pipelines.queries import ORACLES, QUERIES

        for name in sorted(QUERIES):
            kind = "sql-verified" if name in ORACLES else "rows-only"
            print(f"{name}\t{kind}")
        return 0
    if args.cmd == "metrics":
        # pull model over committed artifacts — no Ray session needed
        from imagor_ray.state.metrics import EngineMetrics

        print(json.dumps(EngineMetrics.collect(
            sink=args.sink, state_dir=args.state,
        )))
        return 0

    _ensure_ray()

    if args.cmd == "flagship":
        from imagor_ray.pipelines.flagship import flagship_write

        cfg = cfg.with_overrides(
            secret=args.secret, num_buckets=args.buckets,
            replicas=args.replicas, check_freshness=args.check_freshness,
            source_write_through=args.source_write_through,
        )
        summary = flagship_write(
            args.sf, args.out, secret=cfg.secret,
            num_buckets=cfg.num_buckets, replicas=cfg.replicas,
            check_freshness=cfg.check_freshness,
            source_write_through=cfg.source_write_through or None,
            disabled_filters=tuple(cfg.disabled_filters),
            max_filter_ops=cfg.max_filter_ops,
            detector=cfg.detector,
        )
        print(json.dumps(summary))
    elif args.cmd == "sessions":
        from imagor_ray.sources.transcripts import derive_transcripts
        from imagor_ray.stages.windows import session_windows

        cfg = cfg.with_overrides(gap_s=args.gap_s, salt_bucket_s=args.salt_bucket_s)
        n = session_windows(
            derive_transcripts(args.sf), gap_s=cfg.gap_s,
            salt_bucket_s=cfg.salt_bucket_s or None,
        ).count()
        print(json.dumps({"sessions": n}))
    elif args.cmd == "reshard":
        from imagor_ray.state.sink import ExactlyOnceSink

        src_sink = ExactlyOnceSink(args.src)
        dest = src_sink.reshard_to(args.dst, args.dst_buckets)
        print(json.dumps({"src_partitions": len(src_sink.committed_buckets()),
                          "dst_partitions": len(dest.committed_buckets()),
                          "rows": dest.metrics()["rows"]}))
    elif args.cmd == "query":
        from imagor_ray.pipelines.queries import QUERIES

        if not args.all and args.name not in QUERIES:
            print(json.dumps({"error": f"unknown query {args.name!r}; "
                              "run 'query --list'"}))
            return 2
        if not args.sf:
            print(json.dumps({"error": "--sf required to run a query"}))
            return 2
        if args.all:
            from imagor_ray.pipelines.queries import ORACLES

            import time as _time
            bad = []
            for name in sorted(QUERIES):
                t0 = _time.perf_counter()
                try:
                    res = QUERIES[name](args.sf)
                    df = (res.to_pandas()
                          if hasattr(res, "to_pandas") else res)
                    row = {"query": name, "rows": int(len(df)),
                           "sec": round(_time.perf_counter() - t0, 1)}
                    if args.verify and name in ORACLES:
                        v = _verify_against_oracle(name, df, args.sf)
                        row["match"] = v["match"]
                        if not v["match"]:
                            bad.append(name)
                    elif args.verify:
                        row["match"] = "rows-only"
                except Exception as exc:  # sweep must finish
                    row = {"query": name, "error": str(exc)[:200],
                           "sec": round(_time.perf_counter() - t0, 1)}
                    bad.append(name)
                print(json.dumps(row), flush=True)
            print(json.dumps({"sweep": len(QUERIES), "failed": bad}))
            return 1 if bad else 0
        result = QUERIES[args.name](args.sf)
        if args.verify:
            from imagor_ray.pipelines.queries import ORACLES

            df = (result.to_pandas()
                  if hasattr(result, "to_pandas") else result)
            if args.name not in ORACLES:
                print(json.dumps({"query": args.name, "rows": int(len(df)),
                                  "verified": "rows-only (no SQL oracle)"}))
                return 0
            verdict = _verify_against_oracle(args.name, df, args.sf)
            print(json.dumps(verdict))
            return 0 if verdict["match"] else 1
        is_ds = hasattr(result, "write_parquet")
        if args.out and is_ds:
            # resumable layout: Ray writes one file per block
            result.write_parquet(args.out)
            print(json.dumps({"query": args.name, "out": args.out}))
        else:
            df = result.to_pandas() if hasattr(result, "to_pandas") else result
            if args.out:
                os.makedirs(args.out, exist_ok=True)
                path = os.path.join(args.out, f"{args.name}.parquet")
                df.to_parquet(path)
                print(json.dumps({"query": args.name, "rows": int(len(df)),
                                  "out": path}))
            else:
                head = (df.head(args.show).astype(str).to_dict("records")
                        if args.show else [])
                print(json.dumps({"query": args.name, "rows": int(len(df)),
                                  "columns": sorted(map(str, df.columns)),
                                  "head": head}))
    elif args.cmd == "stream":
        from imagor_ray.pipelines.streaming import StreamingFlagshipJob

        cfg = cfg.with_overrides(num_buckets=args.buckets)
        job = StreamingFlagshipJob(
            args.input, args.state, gap_s=args.gap_s,
            allowed_lateness_s=args.lateness_s,
            num_buckets=cfg.num_buckets,
        )
        results = job.run_all()
        if args.flush:
            job.flush()
        print(json.dumps({"cycles": len(results),
                          "late": sum(r["late"] for r in results),
                          "closed": int(len(job.closed_sessions()))}))
    import ray

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
