"""Ray Data integration tests: transcripts derivation vs DuckDB, the
parse/sign fast path, windows vs SQL window functions, the flagship DAG,
and the exactly-once sink (dedup, replay, resume, byte-identical output).

Model: the reference's orchestrator behavioural tests with counting fake
storages (``imagor_test.go:684-744, 945-1116``) and the golden end-to-end
corpus (``processor_test.go:1383-1460``)."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def oracle(q: str, sf_dir: str = SF) -> pd.DataFrame:
    con = duckdb.connect()
    for t in ("events", "documents"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    try:
        return con.sql(q).df()
    finally:
        con.close()


@pytest.fixture(scope="module")
def transcripts_df(ray_session):
    from imagor_ray.sources.transcripts import read_transcripts

    return (
        read_transcripts(SF)
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )


class TestTranscriptsDerivation:
    def test_matches_duckdb_oracle(self, transcripts_df):
        from imagor_ray.sources.transcripts import TRANSCRIPTS_SQL

        oracle_df = (
            oracle(TRANSCRIPTS_SQL)
            .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
        )
        got = transcripts_df[oracle_df.columns.tolist()]
        got = got.assign(ts=got["ts"].astype("datetime64[us]"))
        oracle_df = oracle_df.assign(ts=oracle_df["ts"].astype("datetime64[us]"))
        pd.testing.assert_frame_equal(got, oracle_df, check_dtype=False)

    def test_turn_ordering_invariant(self, transcripts_df):
        # per-turn stable ordering: turn_idx is 0..n-1 within each conv,
        # monotone in (ts, event order)
        for _, g in transcripts_df.groupby("conv_id"):
            assert g["turn_idx"].tolist() == list(range(len(g)))
            assert g.sort_values("turn_idx")["ts"].is_monotonic_increasing


class TestParseSignStage:
    def test_fast_path_equals_full_roundtrip(self):
        from imagor_ray.functions import imagorpath as ip
        from imagor_ray.stages.parse_sign import ParseSignStage

        stage = ParseSignStage()
        df = pd.DataFrame({
            "conv_id": ["conv_000001", "conv_000002"],
            "turn_idx": [0, 17],
            "tool": ["signup", "purchase"],
        })
        out = stage(df.copy())
        for _, row in out.iterrows():
            p = ip.parse(row["path"])
            # canonical: generate(parse(path)) is a fixed point
            assert ip.generate_path(p) == row["path"]
            assert stage.signer.sign(row["path"]) == row["signature"]

    def test_signature_is_sha256_hmac(self):
        from imagor_ray.stages.parse_sign import ParseSignStage
        import base64, hashlib, hmac

        stage = ParseSignStage(secret="s3cr3t")
        df = pd.DataFrame({"conv_id": ["c"], "turn_idx": [0], "tool": ["view"]})
        out = stage(df)
        expect = base64.urlsafe_b64encode(
            hmac.new(b"s3cr3t", out["path"].iloc[0].encode(), hashlib.sha256).digest()
        ).decode()
        assert out["signature"].iloc[0] == expect


class TestWindows:
    def test_tumbling_matches_sql(self, ray_session):
        from imagor_ray.sources.transcripts import read_transcripts
        from imagor_ray.stages.windows import tumbling_tool_stats

        got = (
            tumbling_tool_stats(read_transcripts(SF), size_s=3600)
            .to_pandas().sort_values(["tool", "window_start"]).reset_index(drop=True)
        )
        from imagor_ray.sources.transcripts import TRANSCRIPTS_SQL
        want = oracle(f"""
            WITH t AS ({TRANSCRIPTS_SQL})
            SELECT tool,
                   epoch_us(ts) // 3600000000 * 3600 AS window_start,
                   count(*) AS n_turns,
                   sum(length(text)) AS sum_len,
                   min(ts) AS min_ts, max(ts) AS max_ts
            FROM t GROUP BY 1, 2 ORDER BY 1, 2
        """).reset_index(drop=True)
        assert got["n_turns"].sum() == want["n_turns"].sum()
        pd.testing.assert_frame_equal(
            got[["tool", "window_start", "n_turns", "sum_len"]],
            want[["tool", "window_start", "n_turns", "sum_len"]],
            check_dtype=False,
        )

    def test_sessions_match_sql(self, ray_session):
        from imagor_ray.sources.transcripts import TRANSCRIPTS_SQL, read_transcripts
        from imagor_ray.stages.windows import session_windows

        got = (
            session_windows(read_transcripts(SF), gap_s=1800)
            .to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)
        )
        want = oracle(f"""
            WITH t AS ({TRANSCRIPTS_SQL}),
            g AS (
              SELECT *,
                CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                       OVER (PARTITION BY conv_id ORDER BY ts, turn_idx)
                     > 1800 * 1000000 THEN 1 ELSE 0 END AS new_s
              FROM t),
            s AS (
              SELECT *, CAST(sum(new_s) OVER (PARTITION BY conv_id
                        ORDER BY ts, turn_idx) AS INTEGER) AS session_id
              FROM g)
            SELECT conv_id, session_id,
                   min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_turns, sum(length(text)) AS sum_len
            FROM s GROUP BY 1, 2 ORDER BY 1, 2
        """).reset_index(drop=True)
        for c in ("session_start", "session_end"):
            got[c] = got[c].astype("datetime64[us]")
            want[c] = want[c].astype("datetime64[us]")
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_salted_sessions_equal_unsalted(self, ray_session):
        from imagor_ray.sources.transcripts import read_transcripts
        from imagor_ray.stages.windows import session_windows

        plain = (
            session_windows(read_transcripts(SF), gap_s=1800)
            .to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)
        )
        salted = (
            session_windows(read_transcripts(SF), gap_s=1800, salt_bucket_s=6 * 3600)
            .to_pandas().sort_values(["conv_id", "session_id"]).reset_index(drop=True)
        )
        for c in ("session_start", "session_end"):
            plain[c] = plain[c].astype("datetime64[us]")
            salted[c] = salted[c].astype("datetime64[us]")
        pd.testing.assert_frame_equal(plain, salted, check_dtype=False)

    def test_sliding_each_row_in_k_windows(self):
        from imagor_ray.stages.windows import explode_sliding

        df = pd.DataFrame({
            "ts": pd.to_datetime(["2024-01-01 00:10:00"]),
            "tool": ["click"], "text": ["x"],
        })
        out = explode_sliding(df, size_s=3600, slide_s=900)
        assert len(out) == 4
        starts = sorted(out["window_start"])
        base = pd.Timestamp("2024-01-01 00:00:00").value // 10**9
        assert starts == [base - 2700, base - 1800, base - 900, base]

    def test_split_late(self):
        from imagor_ray.stages.windows import split_late

        df = pd.DataFrame({"ts": pd.to_datetime(["2024-01-01", "2024-01-03"])})
        wm = pd.Timestamp("2024-01-02").value // 1000
        ontime, late = split_late(df, wm)
        assert len(ontime) == 1 and len(late) == 1


class TestFlagship:
    def test_processed_turns_schema_and_determinism(self, ray_session):
        from imagor_ray.pipelines.flagship import processed_turns

        df = processed_turns(SF).to_pandas().sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True)
        assert set(df.columns) >= {
            "conv_id", "turn_idx", "role", "text", "tool", "ts",
            "path", "signature", "tool_kind", "tool_cost",
        }
        assert len(df) == 1000
        df2 = processed_turns(SF).to_pandas().sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(df, df2[df.columns])

    def test_arrow_stages_identical(self, ray_session):
        """arrow_stages=True (zero-copy pa.Table parse_sign/enrich,
        round-4 verdict item 7) produces the identical rows — the
        measured format comparison in BENCH.md finding 17 rests on
        this equality."""
        from imagor_ray.pipelines.flagship import processed_turns

        a = processed_turns(SF).to_pandas().sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True)
        b = processed_turns(SF, arrow_stages=True).to_pandas().sort_values(
            ["conv_id", "turn_idx"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)

    def test_chain_outputs_per_tool(self, ray_session):
        from imagor_ray.pipelines.flagship import processed_turns

        df = processed_turns(SF).to_pandas()
        # signup: trimmed → padded/cut to 200 left → lower → ≤160 chars
        sig = df[df.tool == "signup"]["text"]
        assert (sig.str.len() == 160).all()
        assert (sig == sig.str.lower()).all()
        # purchase: exact 120 with <BUY> spliced at right
        buy = df[df.tool == "purchase"]["text"]
        assert (buy.str.len() == 120).all()
        assert buy.str.endswith("<BUY>").all()
        # view: ends with [VIEW] (label applied after grayscale)
        view = df[df.tool == "view"]["text"]
        assert view.str.endswith("[VIEW]").all()
        # error: hex encoded, digits redacted pre-encoding
        err = df[df.tool == "error"]["text"]
        assert err.str.fullmatch("[0-9A-F]*").all()
        # click: ≤160, no digits (redacted), letters shifted by 5
        clk = df[df.tool == "click"]["text"]
        assert (clk.str.len() <= 160).all()
        assert not clk.str.contains(r"\d").any()


class TestExactlyOnceSink:
    def _turns(self):
        from imagor_ray.pipelines.flagship import processed_turns
        return processed_turns(SF)

    def test_write_dedup_and_replay_identical(self, ray_session, tmp_path):
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink

        d1 = str(tmp_path / "out1")
        sink = ExactlyOnceSink(d1, num_buckets=4)
        turns = self._turns()
        # inject duplicates: union the stream with itself → sink must dedup
        dup = turns.union(self._turns())
        summary = sink.write(dup)
        assert summary["rows_written"] == 1000
        assert summary["buckets_written"] == 4

        # full replay into a fresh directory is byte-identical
        d2 = str(tmp_path / "out2")
        sink2 = ExactlyOnceSink(d2, num_buckets=4)
        sink2.write(self._turns())
        assert sink.content_sha1() == sink2.content_sha1()

    def test_resume_skips_committed_partitions(self, ray_session, tmp_path):
        from imagor_ray.state.sink import ExactlyOnceSink

        d = str(tmp_path / "out")
        sink = ExactlyOnceSink(d, num_buckets=4)
        sink.write(self._turns())
        first_sha = sink.content_sha1()
        # simulate a failed run resumed: drop one partition + its manifest
        os.remove(os.path.join(d, "part-00002.parquet"))
        os.remove(os.path.join(d, "_manifest", "bucket-00002.json"))
        summary = sink.write(self._turns())
        assert summary["buckets_written"] == 1  # only the missing one
        assert sink.content_sha1() == first_sha  # byte-identical after resume

    def test_manifest_lineage(self, ray_session, tmp_path):
        from imagor_ray.state.sink import ExactlyOnceSink

        d = str(tmp_path / "out")
        sink = ExactlyOnceSink(d, num_buckets=4)
        sink.write(self._turns())
        entries = sink.read_manifest()
        assert len(entries) == 4
        assert sum(e["rows"] for e in entries) == 1000
        for e in entries:
            assert e["sha1"] and e["key_min"] and e["key_max"]

    def test_sorted_output(self, ray_session, tmp_path):
        from imagor_ray.state.sink import ExactlyOnceSink

        d = str(tmp_path / "out")
        sink = ExactlyOnceSink(d, num_buckets=4)
        sink.write(self._turns())
        for f in sink.output_files():
            part = pd.read_parquet(f)
            key = part[["conv_id", "turn_idx"]]
            assert key.equals(key.sort_values(["conv_id", "turn_idx"]).reset_index(drop=True))


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        from imagor_ray.state.checkpoint import Checkpoint

        cp = Checkpoint(str(tmp_path / "cp"))
        st = cp.load()
        assert st["watermark_us"] == 0
        st["watermark_us"] = 123
        st["processed"] = ["f1.parquet"]
        cp.save(st)
        assert cp.load()["watermark_us"] == 123
        df = pd.DataFrame({"conv_id": ["a"], "last_ts": pd.to_datetime(["2024-01-01"])})
        fname = cp.stage_open_sessions(df, cycle=0)
        # staged but uncommitted: invisible to a replay
        assert cp.load_open_sessions() is None
        st["open_sessions_file"] = fname
        cp.save(st)
        got = cp.load_open_sessions()
        assert got["conv_id"].tolist() == ["a"]

    def test_save_fsyncs_state_dir_after_replace(self, tmp_path,
                                                  monkeypatch):
        # the checkpoint rename survives a power loss only once its
        # directory is fsynced, after the rename
        import os

        from imagor_ray.state.checkpoint import Checkpoint
        from imagor_ray.state.storage import LocalStorage

        events = []
        real_replace, real_fsync_dir = os.replace, LocalStorage.fsync_dir

        def replace(src, dst):
            real_replace(src, dst)
            events.append(("replace", os.path.basename(dst)))

        def fsync_dir(self, path):
            real_fsync_dir(self, path)
            events.append(("fsync_dir", path))

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(LocalStorage, "fsync_dir", fsync_dir)
        cp = Checkpoint(str(tmp_path / "cp3"))
        cp.save(cp.load())
        assert events == [("replace", "checkpoint.json"),
                          ("fsync_dir", str(tmp_path / "cp3"))]

    def test_staged_open_sessions_invisible_until_commit(self, tmp_path):
        # crash between staging cycle N's snapshot and committing the
        # checkpoint must replay cycle N against the PRE-cycle snapshot
        # (ADVICE round 1: open-session leg must be atomic with the
        # checkpoint, not committed before it).
        from imagor_ray.state.checkpoint import Checkpoint

        cp = Checkpoint(str(tmp_path / "cp2"))
        st = cp.load()
        pre = pd.DataFrame({"conv_id": ["pre"], "n_turns": [1]})
        st["open_sessions_file"] = cp.stage_open_sessions(pre, cycle=0)
        cp.save(st)
        # cycle 1 stages its post-cycle snapshot, then "crashes" before save
        cp.stage_open_sessions(pd.DataFrame({"conv_id": ["post"], "n_turns": [9]}), cycle=1)
        got = cp.load_open_sessions()
        assert got["conv_id"].tolist() == ["pre"]
        # gc after a (re)committed checkpoint drops the orphaned snapshot
        cp.gc_open_sessions(keep=st["open_sessions_file"])
        assert not (tmp_path / "cp2" / "open-00001.parquet").exists()
        assert cp.load_open_sessions()["conv_id"].tolist() == ["pre"]


class TestFusedFlagship:
    def test_fused_equals_composable_byte_identical(self, ray_session, tmp_path):
        from imagor_ray.pipelines.flagship import flagship_write, processed_turns
        from imagor_ray.state.sink import ExactlyOnceSink

        d1 = str(tmp_path / "composable")
        sink1 = ExactlyOnceSink(d1, num_buckets=4)
        sink1.write(processed_turns(SF))

        d2 = str(tmp_path / "fused")
        summary = flagship_write(SF, d2, num_buckets=4)
        assert summary["rows_written"] == 1000
        sink2 = ExactlyOnceSink(d2, num_buckets=4)
        assert sink1.content_sha1() == sink2.content_sha1()

    def test_fused_resume(self, ray_session, tmp_path):
        from imagor_ray.pipelines.flagship import flagship_write
        from imagor_ray.state.sink import ExactlyOnceSink

        d = str(tmp_path / "out")
        flagship_write(SF, d, num_buckets=4)
        sink = ExactlyOnceSink(d, num_buckets=4)
        sha = sink.content_sha1()
        os.remove(os.path.join(d, "part-00001.parquet"))
        os.remove(os.path.join(d, "_manifest", "bucket-00001.json"))
        summary = flagship_write(SF, d, num_buckets=4)
        assert summary["buckets_written"] == 1
        assert sink.content_sha1() == sha

    def test_tasks_engine_byte_identical_and_resumes(self, ray_session, tmp_path):
        """engine='tasks' (raw hash exchange, BENCH finding 20) must
        write the same bytes as the groupby engine and honor the
        committed-bucket skip on replay/resume — including a
        cross-engine resume of a tasks-engine run."""
        from imagor_ray.pipelines.flagship import flagship_write
        from imagor_ray.state.sink import ExactlyOnceSink

        d1 = str(tmp_path / "ds")
        flagship_write(SF, d1, num_buckets=4)
        d2 = str(tmp_path / "tk")
        summary = flagship_write(SF, d2, num_buckets=4, engine="tasks")
        assert summary["rows_written"] == 1000
        sha = ExactlyOnceSink(d1, num_buckets=4).content_sha1()
        sink2 = ExactlyOnceSink(d2, num_buckets=4)
        assert sink2.content_sha1() == sha
        # replay: all buckets skip
        r = flagship_write(SF, d2, num_buckets=4, engine="tasks")
        assert r["buckets_written"] == 0 and r["buckets_skipped"] == 4
        # cross-engine resume after losing one partition
        os.remove(os.path.join(d2, "part-00002.parquet"))
        os.remove(os.path.join(d2, "_manifest", "bucket-00002.json"))
        r = flagship_write(SF, d2, num_buckets=4)   # dataset engine
        assert r["buckets_written"] == 1
        assert sink2.content_sha1() == sha
        # one bucket: the exchange's lone shard per block
        d3, d4 = str(tmp_path / "ds1"), str(tmp_path / "tk1")
        flagship_write(SF, d3, num_buckets=1)
        flagship_write(SF, d4, num_buckets=1, engine="tasks")
        assert (ExactlyOnceSink(d4, num_buckets=1).content_sha1()
                == ExactlyOnceSink(d3, num_buckets=1).content_sha1())


class TestAnnRecall:
    def test_lsh_multiprobe_recall(self, ray_session):
        from imagor_ray.pipelines.ann import ann_topk, lsh_topk

        bf = ann_topk(SF, n_queries=5, k=10)
        ls = lsh_topk(SF, n_queries=5, k=10, bits=3, probe_hamming=1)
        recalls = []
        for q in sorted(bf["query_id"].unique()):
            truth = set(bf[bf["query_id"] == q]["vec_id"])
            got = set(ls[ls["query_id"] == q]["vec_id"])
            recalls.append(len(truth & got) / len(truth))
        assert sum(recalls) / len(recalls) >= 0.5, recalls

    def test_lsh_fullprobe_equals_bruteforce(self, ray_session):
        """probe_hamming = bits covers every bucket, so full-probe LSH is
        deterministically identical to brute force row for row — the
        property backing the ann_lsh_topk_fullprobe oracle entry
        (round-4 verdict item 5)."""
        import pandas as pd

        from imagor_ray.pipelines.ann import ann_topk, lsh_topk

        bf = ann_topk(SF, n_queries=5, k=10)
        fp = lsh_topk(SF, n_queries=5, k=10, bits=4, probe_hamming=4).astype(
            {"query_id": "int64", "vec_id": "int64", "rank": "int64"})
        pd.testing.assert_frame_equal(
            bf[["query_id", "vec_id", "cos", "rank"]],
            fp[["query_id", "vec_id", "cos", "rank"]])


class TestPerKeyFreshness:
    """loadResult's modified-time staleness semantics (imagor.go:605-652)
    at bucket granularity: mutate one input row of a committed bucket,
    re-run with check_freshness, ONLY that bucket rewrites, and the
    output matches a from-scratch run byte-for-byte."""

    @staticmethod
    def _rows(n=64):
        import numpy as np
        return pd.DataFrame({
            "conv_id": [f"conv_{i % 16:06d}" for i in range(n)],
            "turn_idx": np.arange(n, dtype="int32") // 16,
            "signature": [f"sig{i}" for i in range(n)],
            "text": [f"payload {i}" for i in range(n)],
        })

    def test_stale_bucket_rewrites_fresh_skip(self, ray_session, tmp_path):
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink, conv_bucket

        df = self._rows()
        sink = ExactlyOnceSink(str(tmp_path / "a"), num_buckets=4)
        sink.write(rd.from_pandas(df))
        sha_before = sink.content_sha1()
        fps_before = {e["partition_id"]: e["sha1"] for e in sink.read_manifest()}

        # unchanged input + freshness probe → every bucket skips, bytes equal
        summary = sink.write(rd.from_pandas(df), check_freshness=True)
        assert summary["rows_written"] == 0
        assert sink.content_sha1() == sha_before

        # mutate ONE row; find its bucket
        df2 = df.copy()
        df2.loc[5, "text"] = "MUTATED"
        hot = int(conv_bucket(df2.loc[[5], "conv_id"], 4).iloc[0])
        summary = sink.write(rd.from_pandas(df2), check_freshness=True)
        # only the hot bucket rewrote
        fps_after = {e["partition_id"]: e["sha1"] for e in sink.read_manifest()}
        changed = [b for b in fps_after if fps_after[b] != fps_before.get(b)]
        assert changed == [hot]
        assert summary["rows_written"] > 0

        # byte-identical to a from-scratch run on the mutated input
        fresh = ExactlyOnceSink(str(tmp_path / "b"), num_buckets=4)
        fresh.write(rd.from_pandas(df2))
        assert sink.content_sha1() == fresh.content_sha1()

    def test_default_mode_unchanged(self, ray_session, tmp_path):
        # without check_freshness the bucket-granularity skip is intact
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink

        df = self._rows()
        sink = ExactlyOnceSink(str(tmp_path / "c"), num_buckets=4)
        sink.write(rd.from_pandas(df))
        df2 = df.copy()
        df2.loc[5, "text"] = "MUTATED"
        summary = sink.write(rd.from_pandas(df2))
        assert summary["rows_written"] == 0  # all buckets skipped


class TestConfigBinding:
    """config.go:33-133 precedence: flag > IMAGOR_RAY_* env > default."""

    def test_env_overlay_and_types(self):
        from imagor_ray.config import EngineConfig

        env = {
            "IMAGOR_RAY_SECRET": "env-secret",
            "IMAGOR_RAY_NUM_BUCKETS": "32",
            "IMAGOR_RAY_CHECK_FRESHNESS": "true",
            "IMAGOR_RAY_DISABLED_FILTERS": "blur, sharpen",
            "IMAGOR_RAY_LOADER_ALLOWED_SOURCES": "cdn.*,regex:a.b",
        }
        cfg = EngineConfig.from_env(env)
        assert cfg.secret == "env-secret"
        assert cfg.num_buckets == 32
        assert cfg.check_freshness is True
        assert cfg.disabled_filters == ("blur", "sharpen")
        assert cfg.loader_allowed_sources == ("cdn.*", "regex:a.b")
        assert cfg.gap_s == 1800  # untouched default

    def test_cli_beats_env(self):
        from imagor_ray.config import EngineConfig

        cfg = EngineConfig.from_env({"IMAGOR_RAY_NUM_BUCKETS": "32"})
        cfg = cfg.with_overrides(num_buckets=8, secret=None)
        assert cfg.num_buckets == 8
        assert cfg.secret == "imagor-ray-secret"  # None → keep env/default

    def test_unknown_knob_rejected(self):
        from imagor_ray.config import EngineConfig

        with pytest.raises(KeyError):
            EngineConfig().with_overrides(nope=1)


class TestSourceWriteThrough:
    def test_raw_checkpoint_written_alongside_processed(self, ray_session, tmp_path):
        from imagor_ray.pipelines.flagship import flagship_write
        from imagor_ray.state.sink import ExactlyOnceSink

        out = str(tmp_path / "processed")
        src = str(tmp_path / "raw")
        flagship_write(SF, out, num_buckets=4, source_write_through=src)
        raw = ExactlyOnceSink(src, num_buckets=4).read().to_pandas()
        processed = ExactlyOnceSink(out, num_buckets=4).read().to_pandas()
        assert len(raw) == len(processed)
        # raw tier holds PRE-chain text with the signature key
        merged = raw.merge(processed, on=["conv_id", "turn_idx"],
                           suffixes=("_raw", "_proc"))
        assert (merged["signature_raw"] == merged["signature_proc"]).all()
        assert (merged["text_raw"] != merged["text_proc"]).any()
        # raw text equals the source transcript text
        from imagor_ray.sources.transcripts import read_transcripts
        t = read_transcripts(SF).to_pandas()
        m2 = raw.merge(t, on=["conv_id", "turn_idx"], suffixes=("", "_src"))
        assert (m2["text"] == m2["text_src"]).all()


class TestIvfTopk:
    def test_recall_vs_bruteforce(self, ray_session):
        from imagor_ray.pipelines.ann import ann_topk, ivf_topk

        bf = ann_topk(SF, n_queries=5, k=10)
        ivf = ivf_topk(SF, n_queries=5, k=10, n_centroids=8, n_probe=4)
        recall = 0.0
        for q in bf["query_id"].unique():
            want = set(bf[bf["query_id"] == q]["vec_id"])
            got = set(ivf[ivf["query_id"] == q]["vec_id"])
            recall += len(want & got) / len(want)
        recall /= bf["query_id"].nunique()
        # probing half the cells of weakly-clustered random vectors —
        # recall must beat the random-scan baseline (≈ n_probe/n_centroids
        # would be chance if cells carried no signal; trained cells must
        # concentrate neighbours)
        assert recall >= 0.6, recall

    def test_deterministic(self, ray_session):
        from imagor_ray.pipelines.ann import ivf_topk

        a = ivf_topk(SF, n_queries=3, k=5)
        b = ivf_topk(SF, n_queries=3, k=5)
        pd.testing.assert_frame_equal(a, b)

    def test_full_probe_equals_bruteforce(self, ray_session):
        # probing EVERY cell must reproduce brute force exactly
        from imagor_ray.pipelines.ann import ann_topk, ivf_topk

        bf = ann_topk(SF, n_queries=3, k=10)
        full = ivf_topk(SF, n_queries=3, k=10, n_centroids=8, n_probe=8)
        pd.testing.assert_frame_equal(
            bf[bf["query_id"] < 3].reset_index(drop=True), full)


class TestConfigPlumbing:
    def test_disabled_filters_reach_the_flagship_chain(self, ray_session, tmp_path):
        # disabling label must change chain output for the view template
        # (config.go:33-133 → vipsconfig disable list); purchase has no
        # label so it stays identical
        from imagor_ray.pipelines.flagship import flagship_write
        from imagor_ray.state.sink import ExactlyOnceSink

        d1, d2 = str(tmp_path / "on"), str(tmp_path / "off")
        flagship_write(SF, d1, num_buckets=4)
        flagship_write(SF, d2, num_buckets=4, disabled_filters=("label",))
        a = ExactlyOnceSink(d1, 4).read().to_pandas().set_index(["conv_id", "turn_idx"])
        b = ExactlyOnceSink(d2, 4).read().to_pandas().set_index(["conv_id", "turn_idx"])
        view = a[a["tool"] == "view"].join(b, rsuffix="_off")
        assert (view["text"] != view["text_off"]).any()   # [VIEW] overlay gone
        other = a[a["tool"] == "purchase"].join(b, rsuffix="_off")
        assert (other["text"] == other["text_off"]).all()

    def test_cli_env_precedence_end_to_end(self):
        import json
        import subprocess
        import sys as _sys

        out = subprocess.run(
            [_sys.executable, "-m", "imagor_ray", "config"],
            env={**__import__("os").environ, "IMAGOR_RAY_NUM_BUCKETS": "13",
                 "IMAGOR_RAY_DISABLED_FILTERS": "blur,sharpen"},
            capture_output=True, text=True, check=True, cwd="/root/repo",
        ).stdout
        cfg = json.loads(out.strip().splitlines()[-1])
        assert cfg["num_buckets"] == 13
        assert cfg["disabled_filters"] == ["blur", "sharpen"]


class TestSinkProperty:
    """Hypothesis: for arbitrary keyed frames, replay and partial-repair
    always reproduce the exact committed bytes (the exactly-once
    contract under any data shape)."""

    def test_random_frames_replay_byte_identical(self, ray_session, tmp_path):
        import hashlib as _hl

        import numpy as np
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink

        rng = np.random.default_rng(17)
        for trial in range(3):
            n = int(rng.integers(1, 400))
            df = pd.DataFrame({
                "conv_id": [f"c{rng.integers(0, 37):03d}" for _ in range(n)],
                "turn_idx": rng.integers(0, 50, n).astype("int32"),
                "signature": [f"s{rng.integers(0, 10)}" for _ in range(n)],
                "text": [f"payload {rng.integers(0, 1_000_000)}" for _ in range(n)],
            })
            d = str(tmp_path / f"t{trial}")
            sink = ExactlyOnceSink(d, num_buckets=5)
            sink.write(rd.from_pandas(df))
            sha = sink.content_sha1()
            # full replay is a no-op
            s2 = sink.write(rd.from_pandas(df.sample(frac=1.0, random_state=1)))
            assert s2["rows_written"] == 0
            assert sink.content_sha1() == sha
            # repair one randomly deleted bucket
            files = sink.output_files()
            victim = files[int(rng.integers(0, len(files)))]
            bucket = victim.split("part-")[1][:5]
            os.remove(victim)
            os.remove(os.path.join(d, "_manifest", f"bucket-{bucket}.json"))
            sink.write(rd.from_pandas(df))
            assert sink.content_sha1() == sha, f"trial {trial} diverged"


class TestFreshnessCrashSafety:
    """A failed freshness rewrite must never destroy committed data: the
    delete-on-error handler (imagor.go:795-808 analogue) may only remove
    files THIS call created. Previously any exception during a committed
    bucket's probe/rewrite deleted the committed part file while its
    manifest survived — the bucket was then skipped forever (silent
    permanent loss)."""

    @staticmethod
    def _committed(tmp_path, name):
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink, conv_bucket

        df = TestPerKeyFreshness._rows()
        sink = ExactlyOnceSink(str(tmp_path / name), num_buckets=4)
        sink.write(rd.from_pandas(df))
        df2 = df.copy()
        df2.loc[5, "text"] = "MUTATED"
        df2["_bucket"] = conv_bucket(df2["conv_id"], 4).astype("int32")
        hot = int(df2.loc[5, "_bucket"])
        group = df2[df2["_bucket"] == hot].reset_index(drop=True)
        return sink, df2.drop(columns=["_bucket"]), group, hot

    def test_failure_before_replace_keeps_committed_bytes(
        self, ray_session, tmp_path, monkeypatch
    ):
        from imagor_ray.state import sink as sink_mod

        sink, _, group, hot = self._committed(tmp_path, "pre")
        sha = sink.content_sha1()

        def boom(*a, **k):
            raise RuntimeError("disk full")

        monkeypatch.setattr(sink_mod.pq, "write_table", boom)
        with pytest.raises(RuntimeError):
            sink.write_partition_df(group, check_freshness=True)
        monkeypatch.undo()
        # old committed (data, manifest) pair untouched and still readable
        assert hot in sink.committed_buckets()
        assert sink.content_sha1() == sha
        for f in sink.output_files():
            pd.read_parquet(f)

    def test_failure_after_replace_reverts_bucket_to_uncommitted(
        self, ray_session, tmp_path, monkeypatch
    ):
        import ray.data as rd
        from imagor_ray.state import sink as sink_mod
        from imagor_ray.state.sink import ExactlyOnceSink

        sink, df2, group, hot = self._committed(tmp_path, "post")

        def boom(*a, **k):
            raise RuntimeError("crash during manifest write")

        monkeypatch.setattr(sink_mod.json, "dump", boom)
        with pytest.raises(RuntimeError):
            sink.write_partition_df(group, check_freshness=True)
        monkeypatch.undo()
        # new bytes were swapped in but never recorded → the bucket must
        # revert to uncommitted (manifest gone with the data file) so a
        # replay rewrites it instead of skipping a hole
        assert hot not in sink.committed_buckets()
        part = os.path.join(sink.out_dir, f"part-{hot:05d}.parquet")
        assert not os.path.exists(part)
        # replay converges to a from-scratch run on the mutated input
        sink.write(rd.from_pandas(df2))
        fresh = ExactlyOnceSink(str(tmp_path / "post_fresh"), num_buckets=4)
        fresh.write(rd.from_pandas(df2))
        assert sink.content_sha1() == fresh.content_sha1()

    def test_uncommitted_failure_never_leaves_orphan_manifest(
        self, tmp_path, monkeypatch
    ):
        # first-time write failing mid-manifest-commit: no manifest may
        # outlive a deleted data file
        from imagor_ray.state import sink as sink_mod
        from imagor_ray.state.sink import ExactlyOnceSink, conv_bucket

        df = TestPerKeyFreshness._rows()
        df["_bucket"] = conv_bucket(df["conv_id"], 4).astype("int32")
        group = df[df["_bucket"] == int(df["_bucket"].iloc[0])].reset_index(drop=True)
        sink = ExactlyOnceSink(str(tmp_path / "orphan"), num_buckets=4)
        os.makedirs(sink.manifest_dir, exist_ok=True)

        def boom(*a, **k):
            raise RuntimeError("crash in manifest write")

        monkeypatch.setattr(sink_mod.json, "dump", boom)
        with pytest.raises(RuntimeError):
            sink.write_partition_df(group)
        monkeypatch.undo()
        assert sink.committed_buckets() == set()
        assert sink.output_files() == []


class TestSinkURIBackends:
    """The 'S3/GCS is a URI swap' claim made concrete: the sink's full
    commit protocol (keyed dedup, total sort, temp→rename, manifest
    commit, replay skip, freshness rewrite, delete-on-error) runs
    unchanged over an fsspec backend addressed by URI. memory:// stands
    in for the object store; rename semantics per backend are documented
    in state/storage.py."""

    @staticmethod
    def _bucketed(df, nb=4):
        from imagor_ray.state.sink import conv_bucket

        df = df.copy()
        df["_bucket"] = conv_bucket(df["conv_id"], nb).astype("int32")
        return df

    def _drive(self, sink, df):
        # drive the commit protocol partition by partition (driver-side:
        # memory:// is per-process by nature — the point under test is
        # the protocol, which is identical for cluster-visible backends)
        for _, g in self._bucketed(df).groupby("_bucket"):
            sink.write_partition_df(g.reset_index(drop=True))

    def test_memory_uri_replay_byte_identical_to_local(self, tmp_path):
        import fsspec

        from imagor_ray.state.sink import ExactlyOnceSink

        fsspec.filesystem("memory").rm("/sinkA", recursive=True) if \
            fsspec.filesystem("memory").exists("/sinkA") else None
        df = TestPerKeyFreshness._rows()
        mem = ExactlyOnceSink("memory://sinkA", num_buckets=4)
        mem._st.makedirs(mem.manifest_dir)
        self._drive(mem, df)
        local = ExactlyOnceSink(str(tmp_path / "local"), num_buckets=4)
        local._st.makedirs(local.manifest_dir)
        self._drive(local, df)
        # identical bytes across backends and committed lineage
        assert mem.content_sha1() == local.content_sha1()
        assert mem.committed_buckets() == {0, 1, 2, 3}
        # replay is an idempotent skip
        out = mem.write_partition_df(self._bucketed(df).groupby("_bucket").get_group(0))
        assert bool(out["skipped"].iloc[0])
        assert mem.content_sha1() == local.content_sha1()
        # metrics/readback work through the storage layer
        assert mem.metrics()["partitions"] == 4
        assert mem.read().count() == len(df)

    def test_memory_uri_freshness_rewrite(self):
        import fsspec

        from imagor_ray.state.sink import ExactlyOnceSink

        fs = fsspec.filesystem("memory")
        if fs.exists("/sinkB"):
            fs.rm("/sinkB", recursive=True)
        df = TestPerKeyFreshness._rows()
        sink = ExactlyOnceSink("memory://sinkB", num_buckets=4)
        sink._st.makedirs(sink.manifest_dir)
        self._drive(sink, df)
        fps = {e["partition_id"]: e["sha1"] for e in sink.read_manifest()}
        df2 = df.copy()
        df2.loc[5, "text"] = "MUTATED"
        b2 = self._bucketed(df2)
        hot = int(b2.loc[5, "_bucket"])
        for _, g in b2.groupby("_bucket"):
            sink.write_partition_df(g.reset_index(drop=True), check_freshness=True)
        fps2 = {e["partition_id"]: e["sha1"] for e in sink.read_manifest()}
        assert [b for b in fps2 if fps2[b] != fps[b]] == [hot]

    def test_memory_uri_delete_on_error(self, monkeypatch):
        import fsspec

        from imagor_ray.state import sink as sink_mod
        from imagor_ray.state.sink import ExactlyOnceSink

        fs = fsspec.filesystem("memory")
        if fs.exists("/sinkC"):
            fs.rm("/sinkC", recursive=True)
        df = TestPerKeyFreshness._rows()
        sink = ExactlyOnceSink("memory://sinkC", num_buckets=4)
        sink._st.makedirs(sink.manifest_dir)

        def boom(*a, **k):
            raise RuntimeError("object store write failed")

        monkeypatch.setattr(sink_mod.json, "dump", boom)
        g = self._bucketed(df).groupby("_bucket").get_group(1).reset_index(drop=True)
        with pytest.raises(RuntimeError):
            sink.write_partition_df(g)
        monkeypatch.undo()
        # no orphan manifest, no data file: bucket fully reverted
        assert sink.committed_buckets() == set()
        assert sink.output_files() == []


class TestReshard:
    """Committed-layout compaction/expansion: reshard_to preserves row
    content exactly under a new bucket count, inherits exactly-once
    semantics, and is safely re-runnable."""

    def test_reshard_preserves_rows(self, ray_session, tmp_path):
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink

        df = TestPerKeyFreshness._rows()
        src = ExactlyOnceSink(str(tmp_path / "src"), num_buckets=8)
        src.write(rd.from_pandas(df))
        assert len(src.committed_buckets()) == 8

        dest = src.reshard_to(str(tmp_path / "dst"), 2)
        assert dest.committed_buckets() == {0, 1}
        key = ["conv_id", "turn_idx", "signature"]
        a = src.read().to_pandas().sort_values(key).reset_index(drop=True)
        b = dest.read().to_pandas().sort_values(key).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b[a.columns])
        # re-running the reshard is an idempotent skip
        sha = dest.content_sha1()
        out = src.reshard_to(str(tmp_path / "dst"), 2)
        assert out.content_sha1() == sha

    def test_reshard_expand_matches_direct_write(self, ray_session, tmp_path):
        import ray.data as rd
        from imagor_ray.state.sink import ExactlyOnceSink

        df = TestPerKeyFreshness._rows()
        src = ExactlyOnceSink(str(tmp_path / "s2"), num_buckets=2)
        src.write(rd.from_pandas(df))
        wide = src.reshard_to(str(tmp_path / "w8"), 8)
        direct = ExactlyOnceSink(str(tmp_path / "d8"), num_buckets=8)
        direct.write(rd.from_pandas(df))
        # resharded output is byte-identical to writing the same rows
        # directly at the destination layout
        assert wide.content_sha1() == direct.content_sha1()


class TestAutoEngine:
    def test_auto_picks_by_estimated_rows_and_stays_byte_identical(
            self, ray_session, tmp_path):
        """engine='auto' (cost-based crossover, BENCH finding 20):
        below the threshold it must take the tasks path, above it the
        dataset path — and the sink bytes match the dataset engine
        either way."""
        from unittest.mock import patch

        from imagor_ray.pipelines import exchange
        from imagor_ray.pipelines.flagship import flagship_write
        from imagor_ray.state.sink import ExactlyOnceSink

        d_ref = str(tmp_path / "ref")
        flagship_write(SF, d_ref, num_buckets=4)
        sha = ExactlyOnceSink(d_ref, num_buckets=4).content_sha1()

        # sf0.001 has 1000 events: threshold above => tasks engine
        d1 = str(tmp_path / "auto_small")
        with patch.object(exchange, "hash_exchange",
                          wraps=exchange.hash_exchange) as spy:
            flagship_write(SF, d1, num_buckets=4, engine="auto",
                           engine_auto_threshold=10_000)
            assert spy.call_count == 1
        assert ExactlyOnceSink(d1, num_buckets=4).content_sha1() == sha

        # threshold below => dataset engine (exchange never called)
        d2 = str(tmp_path / "auto_big")
        with patch.object(exchange, "hash_exchange",
                          wraps=exchange.hash_exchange) as spy:
            flagship_write(SF, d2, num_buckets=4, engine="auto",
                           engine_auto_threshold=10)
            assert spy.call_count == 0
        assert ExactlyOnceSink(d2, num_buckets=4).content_sha1() == sha
