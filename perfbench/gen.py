"""Seeded input generator for the engine benchmark.

Two tiers, both under the run's work directory inside the checkout:

- **base tables** (``base/events.parquet`` + ``base/documents.parquet``):
  an sf0.1-shaped events/documents pair built from a FIXED seed with
  numpy — 100k events over 1,500 users and 30 days, five event types,
  5,000 word-soup documents. Built once per checkout and reused; the
  engine reads them exactly as it reads any ``sf_dir``.
- **per-seed workload inputs**: the run's ``--seed`` picks the replica
  range, the cycle-file split and the late-row sample. Transcript rows come from the engine's own
  ``derive_transcripts(replicas=(r, r + 1))`` (cached per replica index,
  because a replica's rows never depend on the seed); join events come
  from the events table with the same disjoint-replica shift the
  engine's replica reader applies.

Nothing here is timed as part of a workload; the caller records the
wall time of these calls as the ``gen_s`` diagnostic. Every file is
written to a temporary name and renamed, so an interrupted run never
leaves a half-written input that a later run would reuse.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BASE_SEED = 20240101
BASE_EVENTS = 100_000
BASE_USERS = 1_500
BASE_DOCS = 5_000
SPAN_S = 30 * 86_400
EVENT_TYPES = ["signup", "click", "view", "purchase", "error"]
_WORDS = (
    "a the row key data scan sort hash join merge group query table line "
    "part order value batch stream window filter column vector spark agg "
    "fast slow big small customer"
).split()
_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z

#: replica indices a seed may draw from; every derived replica is cached
REPLICA_POOL = 24


def _write_atomic(table: pa.Table, path: str) -> None:
    tmp = path + ".tmp"
    pq.write_table(table, tmp, compression="snappy")
    os.replace(tmp, path)


def make_base(base_dir: str) -> str:
    """Build (once) the fixed-seed sf0.1-shaped base tables; returns the
    directory to pass to the engine as ``sf_dir``."""
    ev_path = os.path.join(base_dir, "events.parquet")
    doc_path = os.path.join(base_dir, "documents.parquet")
    if os.path.exists(ev_path) and os.path.exists(doc_path):
        return base_dir
    os.makedirs(base_dir, exist_ok=True)
    rng = np.random.default_rng(BASE_SEED)

    n_words = rng.integers(8, 96, BASE_DOCS)
    words = np.array(_WORDS, dtype=object)
    texts = [" ".join(words[rng.integers(0, len(_WORDS), int(k))])
             for k in n_words]
    docs = pa.table({
        "doc_id": pa.array(np.arange(BASE_DOCS, dtype=np.int64)),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(np.array(["en", "de", "fr", "es", "zh"], dtype=object)
                         [rng.integers(0, 5, BASE_DOCS)], pa.string()),
        "source": pa.array([f"src{i % 20}" for i in range(BASE_DOCS)],
                           pa.string()),
        "n_chars": pa.array(np.array([len(t) for t in texts], np.int64)),
    })

    ts = np.sort(rng.integers(0, SPAN_S * 1_000_000, BASE_EVENTS)) + _EPOCH_US
    events = pa.table({
        "event_id": pa.array(np.arange(BASE_EVENTS, dtype=np.int64)),
        "ts": pa.array(ts.astype("datetime64[us]")),
        "user_id": pa.array(rng.integers(0, BASE_USERS, BASE_EVENTS)
                            .astype(np.int64)),
        "event_type": pa.array(np.array(EVENT_TYPES, dtype=object)
                               [rng.integers(0, 5, BASE_EVENTS)], pa.string()),
        "value": pa.array(np.round(rng.exponential(50.0, BASE_EVENTS), 2)),
        "props": pa.array([f'{{"k": {k}}}' for k in
                           rng.integers(0, 100, BASE_EVENTS)], pa.string()),
    })
    _write_atomic(docs, doc_path)
    _write_atomic(events, ev_path)
    return base_dir


def tiny_sf(base_dir: str, tiny_dir: str, n_events: int = 2_000) -> str:
    """A small prefix of the base tables for warm-up executions."""
    ev_path = os.path.join(tiny_dir, "events.parquet")
    if not os.path.exists(ev_path):
        os.makedirs(tiny_dir, exist_ok=True)
        _write_atomic(pq.read_table(os.path.join(base_dir, "documents.parquet")),
                      os.path.join(tiny_dir, "documents.parquet"))
        _write_atomic(pq.read_table(os.path.join(base_dir, "events.parquet"))
                      .slice(0, n_events), ev_path)
    return tiny_dir


def derived_replica(base_dir: str, cache_dir: str, r: int) -> pa.Table:
    """Transcript rows of replica ``r`` via the engine's
    ``derive_transcripts(replicas=(r, r + 1))``, cached on disk. Needs a
    live Ray session the first time a replica is asked for."""
    path = os.path.join(cache_dir, f"rep-{r:03d}.parquet")
    if not os.path.exists(path):
        from imagor_ray.sources.transcripts import derive_transcripts

        os.makedirs(cache_dir, exist_ok=True)
        df = derive_transcripts(base_dir, with_turn_idx=True,
                                replicas=(r, r + 1)).to_pandas()
        df = df.sort_values(["ts", "conv_id", "turn_idx"],
                            kind="mergesort").reset_index(drop=True)
        _write_atomic(pa.Table.from_pandas(df, preserve_index=False), path)
    return pq.read_table(path)


def replica_events(base_dir: str, r: int) -> pa.Table:
    """Events of replica ``r`` with the engine's disjoint-replica shift
    (ids +r·1e9 / users +r·1e6, event time one span + 1 day later)."""
    tbl = pq.read_table(os.path.join(base_dir, "events.parquet"),
                        columns=["event_id", "ts", "user_id", "event_type"])
    ts_i = pc.cast(tbl["ts"], pa.timestamp("us")).cast(pa.int64())
    stride = pc.max(ts_i).as_py() - pc.min(ts_i).as_py() + 86_400_000_000
    return pa.table({
        "event_id": pc.add(tbl["event_id"], r * 1_000_000_000),
        "ts": pc.add(ts_i, r * stride).cast(pa.timestamp("us")),
        "user_id": pc.add(tbl["user_id"], r * 1_000_000),
        "event_type": tbl["event_type"],
    })


def _late_shuffle(table: pa.Table, n_files: int, late_frac: float,
                  rng: np.random.Generator) -> list[pa.Table]:
    """Split a ts-ordered table into ``n_files`` contiguous chunks and
    move a seeded ``late_frac`` sample of each chunk's rows into the
    NEXT chunk: those rows arrive after the watermark has passed them,
    so the job must route them to its late output."""
    n = table.num_rows
    cuts = np.linspace(0, n, n_files + 1).astype(int)
    chunks = [np.arange(cuts[i], cuts[i + 1]) for i in range(n_files)]
    carry = np.array([], dtype=np.int64)
    out = []
    for i, idx in enumerate(chunks):
        if i < n_files - 1 and late_frac > 0:
            k = int(len(idx) * late_frac)
            moved = np.sort(rng.choice(idx[: len(idx) // 2], k, replace=False))
            keep = np.setdiff1d(idx, moved)
        else:
            moved, keep = np.array([], dtype=np.int64), idx
        out.append(table.take(pa.array(np.concatenate([keep, carry]))))
        carry = moved
    return out


def stage_files(tables: list[pa.Table], in_dir: str) -> list[str]:
    """One parquet file per table, named in arrival order."""
    os.makedirs(in_dir, exist_ok=True)
    names = []
    for i, t in enumerate(tables):
        name = f"batch-{i:05d}.parquet"
        _write_atomic(t, os.path.join(in_dir, name))
        names.append(name)
    return names


def transcripts_range(base_dir: str, cache_dir: str, a: int, b: int
                      ) -> pa.Table:
    """Transcript rows of replicas ``[a, b)`` in arrival (ts) order."""
    return pa.concat_tables([derived_replica(base_dir, cache_dir, r)
                             for r in range(a, b)])


def pick_replicas(seed: int, n: int, salt: int) -> tuple[int, int]:
    """Seeded replica range ``[a, a + n)`` inside the cached pool."""
    rng = np.random.default_rng([seed, salt])
    a = int(rng.integers(0, REPLICA_POOL - n + 1))
    return a, a + n


def drain_inputs(base_dir: str, cache_dir: str, in_dir: str, seed: int,
                 rows: int, n_files: int, late_frac: float
                 ) -> tuple[int, list[str]]:
    """Backlog of ``n_files`` large cycle files holding the first
    ``rows`` turns of a seeded replica range, for ``stream_drain``.
    Returns (rows, file names)."""
    n_rep = -(-rows // BASE_EVENTS)
    a, b = pick_replicas(seed, n_rep, 1)
    rng = np.random.default_rng([seed, 2])
    table = transcripts_range(base_dir, cache_dir, a, b).slice(0, rows)
    files = _late_shuffle(table, n_files, late_frac, rng)
    return table.num_rows, stage_files(files, in_dir)


def join_inputs(base_dir: str, in_dir: str, seed: int, n_replicas: int,
                n_files: int, late_frac: float) -> tuple[int, list[str]]:
    """Replicated events in cycle files above the join's 150k-row
    threshold for ``stream_join``. Returns (rows, file names)."""
    a, b = pick_replicas(seed, n_replicas, 6)
    rng = np.random.default_rng([seed, 7])
    table = pa.concat_tables([replica_events(base_dir, r) for r in range(a, b)])
    files = _late_shuffle(table, n_files, late_frac, rng)
    return table.num_rows, stage_files(files, in_dir)

