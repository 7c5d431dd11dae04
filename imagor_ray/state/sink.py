"""Exactly-once Parquet sink with per-partition checkpointed lineage.

Mirrors imagor's result-storage idempotency: results are written keyed by
content-addressed key and re-writes are harmless
(``imagor.go:388-398, 516-518, 783-811``); failed saves are deleted
(``imagor.go:795-808``). Here:

- the sink key is ``(conv_id, turn_idx, signature)``;
- the stream is hash-partitioned on ``conv_id`` into ``num_buckets``
  partitions; each partition is written by one grouped task:
  dedup on key (keep-first) → stable sort ``(conv_id, turn_idx)`` →
  write ``part-{bucket}.parquet`` to a temp name → fsync → atomic rename
  → append a lineage manifest line (atomic rename of the manifest file);
- correctness under Ray task retries comes from idempotent keyed writes
  + the atomic per-partition commit, NOT from suppression (the
  reference's singleflight is an optimization only — SURVEY §7.4.1);
- replay: partitions whose manifest entry exists are skipped up front
  (the anti-join against committed lineage), so a resumed run re-writes
  only missing partitions and the final directory is byte-identical.

Layout::

    out_dir/
      part-00000.parquet        # sorted, deduped rows of bucket 0
      _manifest/bucket-00000.json   # lineage: rows, key-range, checksum

One directory per key-range partition → a failed run skips finished
partitions on resume (resumable output).
"""

from __future__ import annotations

import hashlib
import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..functions.hashing import crc32_bucket
from .storage import storage_for

__all__ = ["ExactlyOnceSink", "conv_bucket"]

KEY_COLS = ("conv_id", "turn_idx", "signature")


def conv_bucket(conv_ids: pd.Series, num_buckets: int) -> pd.Series:
    """Stable hash-partition of conv_id (crc32 — cheap, deterministic
    across workers/runs; NOT Python ``hash`` which is salted). Vectorized
    table-driven CRC (same values as ``zlib.crc32``)."""
    return pd.Series(
        crc32_bucket(conv_ids.to_numpy(), num_buckets), index=conv_ids.index
    )


class ExactlyOnceSink:
    def __init__(self, out_dir: str, num_buckets: int = 16):
        # out_dir may be a plain path, file://, or any fsspec URI
        # (memory:// in tests; s3://, gcs:// on a real cluster) — the
        # commit protocol runs unchanged through the storage layer
        # (state/storage.py documents per-backend rename semantics)
        self._st, out_dir = storage_for(out_dir)
        self.out_dir = out_dir
        self.num_buckets = num_buckets
        self.manifest_dir = self._st.join(out_dir, "_manifest")

    # -- lineage -----------------------------------------------------------

    def committed_buckets(self) -> set[int]:
        if not self._st.isdir(self.manifest_dir):
            return set()
        out = set()
        for name in self._st.listdir(self.manifest_dir):
            if name.startswith("bucket-") and name.endswith(".json"):
                out.add(int(name[7:-5]))
        return out

    def read_manifest(self) -> list[dict]:
        entries = []
        for b in sorted(self.committed_buckets()):
            with self._st.open(
                self._st.join(self.manifest_dir, f"bucket-{b:05d}.json"), "r"
            ) as f:
                entries.append(json.load(f))
        return entries

    # -- write -------------------------------------------------------------

    def write(
        self,
        ds: rd.Dataset,
        sort_extra: tuple[str, ...] = (),
        check_freshness: bool = False,
    ) -> dict:
        """Write the dataset exactly-once. Returns a summary dict.

        The input must carry the key columns. Rows of already-committed
        buckets are dropped before the shuffle (partition-level anti-join
        — the replay probe, analogue of ``loadResult`` imagor.go:600-664).

        ``check_freshness=True`` adds the per-key staleness semantics of
        ``loadResult``'s modified-time comparison (imagor.go:605-652):
        committed buckets are NOT dropped up front; each bucket's content
        fingerprint is recomputed and compared with the manifest — an
        unchanged bucket skips (byte-identical replay), a changed one is
        atomically rewritten, so an updated source row invalidates
        exactly its own bucket.
        """
        self._st.makedirs(self.manifest_dir)
        done = self.committed_buckets()
        nb = self.num_buckets

        def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
            b["_bucket"] = conv_bucket(b["conv_id"], nb).astype("int32")
            if done and not check_freshness:
                b = b[~b["_bucket"].isin(done)]
            return b

        def write_partition(g: pd.DataFrame) -> pd.DataFrame:
            return self.write_partition_df(
                g, sort_extra=sort_extra, check_freshness=check_freshness
            )

        result = (
            ds.map_batches(add_bucket, batch_format="pandas")
            .groupby("_bucket")
            .map_groups(write_partition, batch_format="pandas")
        )
        stats = result.to_pandas()
        return {
            "buckets_written": int((~stats["skipped"]).sum()) if len(stats) else 0,
            "buckets_skipped": len(done) + (int(stats["skipped"].sum()) if len(stats) else 0),
            "rows_written": int(stats["rows"].sum()) if len(stats) else 0,
        }

    def write_partition_df(
        self,
        g: pd.DataFrame,
        sort_extra: tuple[str, ...] = (),
        check_freshness: bool = False,
        stage_metrics: dict | None = None,
    ) -> pd.DataFrame:
        """Atomic exactly-once write of ONE hash-bucket partition: dedup on
        key (keep-first) → stable sort (conv_id, turn_idx) → temp write →
        fsync → atomic rename → lineage manifest commit. Callable from any
        grouped stage whose groups carry a ``_bucket`` column — the fused
        flagship pipeline calls this directly inside its one shuffle.

        Retry-safe: the manifest existence check makes a re-executed task
        an idempotent skip; a failed write deletes its partials
        (delete-on-error, imagor.go:795-808)."""
        import time as _time

        t0 = _time.perf_counter()
        st = self._st
        bucket = int(g["_bucket"].iloc[0])
        final = st.join(self.out_dir, f"part-{bucket:05d}.parquet")
        mpath = st.join(self.manifest_dir, f"bucket-{bucket:05d}.json")
        if st.exists(mpath) and not check_freshness:
            return pd.DataFrame({"bucket": [bucket], "rows": [0], "skipped": [True]})
        if "preview" in g.columns:
            # preview() rows bypass result storage (imagor.go:328-329,
            # 389): they flow through the processed stream but are never
            # persisted
            g = g[~g["preview"].astype(bool)].drop(columns=["preview"])
        # deterministic keyed dedup: "first" must not depend on shuffle
        # arrival order, or a replay whose blocks arrive differently could
        # keep a different row when duplicate keys carry different
        # payloads (cannot happen for legitimate flagship data — equal
        # key ⇒ identical row — but the exactly-once contract holds for
        # adversarial input too). Ties break on a content hash of the
        # full row, so the kept row is a pure function of the data. The
        # hash is gated behind a cheap key-duplicate probe, so the
        # unique-key fast path (every flagship bucket) pays nothing.
        if g.duplicated(subset=list(KEY_COLS)).any():
            row_fp = pd.util.hash_pandas_object(
                g.drop(columns=["_bucket"]), index=False
            ).to_numpy()
            g = (
                g.assign(_row_fp=row_fp)
                .sort_values([*KEY_COLS, "_row_fp"], kind="mergesort")
                .drop_duplicates(subset=list(KEY_COLS), keep="first")
                .drop(columns=["_row_fp"])
            )
        # total order over surviving rows: keys are unique after dedup,
        # so appending the remaining key column makes the sort
        # shuffle-order-independent (two rows sharing (conv, turn) but
        # differing in signature previously kept arrival order); for
        # flagship data (conv, turn) is already unique — bytes unchanged.
        # The Arrow table is built once and sorted in Arrow: a stable
        # sort, nulls last per key, strings in UTF-8 byte (== code
        # point) order — the order of a pandas mergesort of these keys
        table = pa.Table.from_pandas(g.drop(columns=["_bucket"]),
                                     preserve_index=False)
        table = table.take(pc.sort_indices(table, sort_keys=[
            (c, "ascending")
            for c in ("conv_id", "turn_idx", *sort_extra, "signature")]))
        # per-key freshness probe (loadResult modified-time check,
        # imagor.go:605-652): the committed sha1 IS the content
        # fingerprint — parquet bytes are deterministic for identical
        # rows (the replay byte-equality contract), so no extra hashing
        # burdens the normal write path. The probe writes the tmp file,
        # compares digests, and discards it when the bucket is fresh.
        committed_sha = None
        if check_freshness and st.exists(mpath):
            with st.open(mpath, "r") as f:
                committed_sha = json.load(f).get("sha1")
        tmp = final + ".tmp"
        # inside the try block a COMMITTED data file pre-exists at `final`
        # iff committed_sha is not None (without check_freshness a
        # committed bucket returned early above; a data file without a
        # manifest is an uncommitted leftover). `replaced` tracks whether
        # THIS call swapped the new bytes in — the error handler must
        # never delete previously committed data it didn't touch.
        replaced = False
        try:
            if st.is_local:
                pq.write_table(table, tmp, compression="snappy")
            else:
                with st.open(tmp, "wb") as f:
                    pq.write_table(table, f, compression="snappy")
            with st.open(tmp, "rb") as f:
                digest = hashlib.sha1(f.read()).hexdigest()
                # durability before visibility: on power loss the manifest
                # must never survive a truncated data file (the manifest
                # commit below is already fsynced)
                st.fsync_file(f)
            if committed_sha is not None and digest == committed_sha:
                # freshness probe: bucket unchanged → keep committed bytes
                st.remove(tmp)
                return pd.DataFrame(
                    {"bucket": [bucket], "rows": [0], "skipped": [True]}
                )
            st.replace(tmp, final)  # atomic commit of the data file
            replaced = True
            rows = table.num_rows
            conv, turn = table["conv_id"], table["turn_idx"]
            entry = {
                "partition_id": bucket,
                "rows": rows,
                "key_min": [str(conv[0].as_py()), int(turn[0].as_py())] if rows else None,
                "key_max": [str(conv[-1].as_py()), int(turn[-1].as_py())] if rows else None,
                "sha1": digest,  # doubles as the freshness fingerprint
                "file": final.rsplit("/", 1)[-1],
                # per-partition metrics (lineage + metrics, north rule);
                # not part of the replay-compared data bytes
                "bytes": st.getsize(final),
                "write_ms": int((_time.perf_counter() - t0) * 1000),
            }
            if stage_metrics:
                # per-stage wall-ms / counters recorded by the producing
                # grouped task (fused flagship) — the durable tier of the
                # unified metrics surface (state/metrics.py)
                entry["stage_metrics"] = {
                    k: int(v) for k, v in stage_metrics.items()
                }
            mtmp = mpath + ".tmp"
            with st.open(mtmp, "w") as f:
                json.dump(entry, f)
                st.fsync_file(f)
            st.replace(mtmp, mpath)  # atomic lineage commit
            # fsync both directories so the renames themselves are durable
            for d in (self.out_dir, self.manifest_dir):
                st.fsync_dir(d)
        except BaseException:
            # delete-on-error like saveWithErrorHandling (imagor.go:795-808)
            # — but only for files THIS call created. A failed freshness
            # rewrite of a committed bucket must not destroy the committed
            # data: before os.replace the old (final, manifest) pair is
            # untouched and stays committed; after os.replace the new
            # bytes are in place but unrecorded, so the manifest comes
            # off too and the bucket reverts to uncommitted (a replay
            # rewrites it) rather than being skipped with its data gone.
            try:
                st.remove(tmp)
            except OSError:
                pass
            if replaced:
                # THIS call swapped the data file in; drop the swap and
                # any manifest this call may have just written (e.g. the
                # directory fsync failed after the manifest rename) — a
                # manifest must never outlive its data file. The bucket
                # reverts to uncommitted and a replay rewrites it.
                # EXCEPT: if the on-disk (data, manifest) pair VERIFIES
                # (manifest sha1 == current data bytes), someone owns a
                # consistent commit — this call's swap may have been
                # superseded by a concurrent replay whose commit we must
                # not destroy (tests/test_storage_race.py); deleting a
                # verified pair is never required for safety, only the
                # inconsistent halves are.
                keep = False
                try:
                    with st.open(mpath, "r") as f:
                        m_sha = json.load(f).get("sha1")
                    with st.open(final, "rb") as f:
                        keep = hashlib.sha1(
                            f.read()).hexdigest() == m_sha
                except Exception:
                    keep = False
                paths = ((mpath + ".tmp",) if keep
                         else (final, mpath, mpath + ".tmp"))
                for path in paths:
                    try:
                        st.remove(path)
                    except OSError:
                        pass
            else:
                # never swapped ⇒ this call cannot have committed a
                # manifest either: clean only its own staging file.
                # Deleting final/mpath here would destroy a CONCURRENT
                # replay's committed bucket (two replays share the tmp
                # name, so the slower one can fail exactly here —
                # tests/test_storage_race.py pins this).
                try:
                    st.remove(mpath + ".tmp")
                except OSError:
                    pass
            raise
        return pd.DataFrame({"bucket": [bucket], "rows": [table.num_rows], "skipped": [False]})

    # -- read back ---------------------------------------------------------

    def read(self) -> rd.Dataset:
        if self._st.is_local:
            return rd.read_parquet(self.out_dir)
        # non-local fsspec backends (memory:// is per-process): stage
        # through the driver — the backend is inherently driver-visible
        frames = [
            pd.read_parquet(self._st.open(p, "rb"))
            for p in self.output_files()
        ]
        return rd.from_pandas(frames) if frames else rd.from_items([])

    def output_files(self) -> list[str]:
        return sorted(
            self._st.join(self.out_dir, n)
            for n in self._st.listdir(self.out_dir)
            if n.endswith(".parquet")
        )

    def metrics(self) -> dict:
        """Aggregate per-partition lineage metrics (north rule: resumable
        from checkpoint with per-partition lineage + metrics): rows,
        bytes, write latencies, partition count — read straight from the
        committed manifests."""
        entries = self.read_manifest()
        if not entries:
            return {"partitions": 0, "rows": 0, "bytes": 0,
                    "write_ms_p50": 0, "write_ms_max": 0}
        ms = sorted(e.get("write_ms", 0) for e in entries)
        return {
            "partitions": len(entries),
            "rows": int(sum(e["rows"] for e in entries)),
            "bytes": int(sum(e.get("bytes", 0) for e in entries)),
            "write_ms_p50": int(ms[len(ms) // 2]),
            "write_ms_max": int(ms[-1]),
        }

    def reshard_to(self, out_dir: str, num_buckets: int) -> "ExactlyOnceSink":
        """Compaction / expansion of the committed layout: rewrite every
        committed partition into a NEW sink with a different bucket
        count — the small-file maintenance op a long-lived resumable
        output needs (merge a too-fine layout, or split buckets that
        outgrew a reducer). Goes through the standard exactly-once
        write, so the destination inherits all commit/replay/lineage
        semantics and the op is safely re-runnable (committed
        destination buckets skip). Row content is preserved exactly;
        only the partition layout (and hence file bytes) changes."""
        dest = ExactlyOnceSink(out_dir, num_buckets=num_buckets)
        dest.write(self.read())
        return dest

    def content_sha1(self) -> str:
        """Digest over all committed part files — replay equality probe."""
        h = hashlib.sha1()
        for path in self.output_files():
            with self._st.open(path, "rb") as f:
                h.update(f.read())
        return h.hexdigest()
