"""Keyed-watermark cycle runtime — the ONE driver loop behind the
micro-batch stream operators (stream-stream and temporal joins,
broadcast rules, dedup, CEP, SCD2, the update-mode session changelog
and the windowed and top-k changelogs). A job declares only what is
specific to it:

- its state: a packed, bucket-agnostic snapshot frame
  (``_empty_state``/``_load_state``, and pack/unpack helpers where the
  frame holds several row kinds);
- a map-side ``_tag(batch, wm)`` turning input rows into keyed rows
  that carry ``ts_us``;
- ONE pure cycle kernel
  ``_cycle_kernel(state, on_time_new, wm, new_wm, cycle) →
  (emissions, next_state, counters)``, every emission frame carrying
  the bucket key column ``KEY``, and optionally the order an emission
  is written in (``EMIT_ORDER``);
- an optional driver-side ``_post_gather`` (eviction, timeouts) and a
  finalize kernel.

The runtime owns everything else: pending-file discovery, the
watermark ``max(wm, file_max_ts − lateness)`` from the ONE zone-map
source (:func:`file_max_ts` — never from rows a tag pruned), the
``finalized`` guard, the late split (rows with ``ts_us < wm`` route to
``late-{cycle}[-{bucket}]`` sorted by ``event_id``), the durable
atomic parquet writer every emission/late/timeout file goes through,
the single commit (output directories fsynced → ``stage_open_sessions``
→ ``save`` → ``gc_open_sessions``),
the ``cycle_metrics`` entry, ``run_all`` totals and output read-back.

One pass, two file layouts. Every cycle tags its inputs, splits off
the late rows and runs the kernel ONCE, in the driver, over
``state ∪ on-time rows``. ``RAY_CYCLE_THRESHOLD`` footer rows pick only
how the outputs are written: at or below it each output is one file
with no bucket suffix; above it each output frame is split by
``KEY % num_buckets`` into one ``-{bucket}`` file per bucket present in
the cycle's tagged ∪ state rows (a present bucket with no rows of that
output still gets its empty file). A job with no bucket key
(``KEY = None``) always writes unsuffixed files. No layout starts Ray
work; the buckets do no work of their own, so the kernel's pandas
fixed cost is paid once per cycle, not once per bucket (BENCH.md, notes
after finding 26), and so is each output's conversion: the frame is
ordered once (``EMIT_ORDER``), stable-partitioned by bucket and
converted to Arrow once, and each bucket's file is a zero-copy slice
of that table — the bytes ``df[ub == b].to_parquet(index=False)``
would write. A frame with an ``object`` (or other non-numpy) column
is still converted per bucket, because pandas infers an object
column's Arrow type from the values it is given. The price is that a
cycle's tagged rows, the state and the cycle's emissions sit in
driver memory together (:meth:`KeyedStreamJob._is_big`).
Crash replay reruns the cycle against the committed pre-cycle state
and overwrites identical bytes: every emission is written in a
deterministic order (the kernel's, or its ``EMIT_ORDER``) and
snapshots are canonically ordered.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..state.checkpoint import Checkpoint
from ..state.storage import LocalStorage

__all__ = ["KeyedStreamJob", "file_max_ts", "fsync_dirs", "pending_inputs",
           "side_counts", "write_parquet_atomic"]


def write_parquet_atomic(data: pd.DataFrame | pa.Table, path: str) -> None:
    """THE single-file writer of the stream jobs: tmp file, fsync, atomic
    rename, so a reader (or a replay) never observes a torn file, a
    rewrite is an overwrite, and once the caller has fsynced the
    directory (:func:`fsync_dirs`, before its checkpoint commit) the file
    survives a power loss. ``data`` is a DataFrame
    (``to_parquet(index=False)``) or an Arrow table, written with the
    same snappy ``pq.write_table`` that call ends in."""
    tmp = path + ".tmp"
    if isinstance(data, pd.DataFrame):
        data.to_parquet(tmp, index=False)
    else:
        pq.write_table(data, tmp, compression="snappy")
    with open(tmp, "rb") as f:
        LocalStorage().fsync_file(f)
    os.replace(tmp, path)


def fsync_dirs(*paths: str) -> None:
    """fsync each existing directory of ``paths`` once, so the renames a
    cycle made into it are durable before the checkpoint commit."""
    st = LocalStorage()
    for d in paths:
        if os.path.isdir(d):
            st.fsync_dir(d)


def pending_inputs(d: str, done) -> list[str]:
    """The ``*.parquet`` files of ``d`` not in ``done``, in name (==
    arrival) order."""
    return [f for f in sorted(os.listdir(d))
            if f.endswith(".parquet") and f not in done]


def file_max_ts(path: str) -> int:
    """Max event time of the whole file: parquet row-group zone maps
    (the session job's exact-footer pattern) with a ts-only column
    scan as the stats-less fallback; -1 for an empty file."""
    from .streaming import StreamingSessionJob

    _, total, max_us = StreamingSessionJob._footer_late_stats(path, 0)
    if max_us is not None:
        return int(max_us)
    import pyarrow.dataset as pads
    t = pads.dataset(path).to_table(columns=["ts"])
    if t.num_rows == 0:
        return -1
    import pyarrow.compute as pc
    v = pc.max(t.column("ts")).as_py()
    return int(pd.Timestamp(v).value // 1000)


class KeyedStreamJob:
    """Base of the keyed-watermark stream operators (module docstring
    has the contract). Subclasses set the class attributes below and
    implement ``_empty_state``, ``_tag`` and ``_cycle_kernel``."""

    #: above this many footer rows a cycle writes per-bucket files
    RAY_CYCLE_THRESHOLD = 150_000
    #: input columns each cycle reads
    READ_COLS = ["event_id", "ts", "user_id", "event_type"]
    #: late-file columns (``ts`` is rebuilt from the tagged ``ts_us``)
    LATE_COLS = ["event_id", "ts"]
    #: emission outputs; each gets ``{name}_dir`` and ``{name}-*`` files
    OUTPUTS: tuple = ("emitted",)
    #: cycle counters, in result order (also the run_all totals)
    COUNTERS: tuple = ("emitted", "late")
    #: bucket key (``key % num_buckets``) of the per-bucket files, a
    #: column of the tagged rows, the state and every emission;
    #: ``None``: no key, so every cycle writes unsuffixed files
    KEY = "user_id"
    #: canonical snapshot row order (byte-stable across layouts)
    STATE_ORDER: list = []
    #: ``{output: columns}``: stable row order an emission is written
    #: in (outputs not named are written in kernel order)
    EMIT_ORDER: dict = {}
    #: also accumulate the checkpoint's ``late_rows`` total
    TRACK_LATE_ROWS = False
    FINALIZED_MSG = "stream already finalized"

    def __init__(self, input_dir: str, state_dir: str,
                 allowed_lateness_s: int = 0, num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None):
        self.input_dir = input_dir
        self.cp = Checkpoint(state_dir)
        self.lateness_us = allowed_lateness_s * 1_000_000
        if num_buckets < 1:
            raise ValueError(f"num_buckets must be >= 1, got {num_buckets}")
        self.num_buckets = num_buckets
        if ray_cycle_threshold is not None:
            self.RAY_CYCLE_THRESHOLD = ray_cycle_threshold
        for name in (*self.OUTPUTS, "late"):
            d = os.path.join(state_dir, name)
            os.makedirs(d, exist_ok=True)
            setattr(self, f"{name}_dir", d)

    # -- declared by the job -------------------------------------------

    def _empty_state(self) -> pd.DataFrame:
        raise NotImplementedError

    def _tag(self, batch: pd.DataFrame, wm: int) -> pd.DataFrame:
        raise NotImplementedError

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        raise NotImplementedError

    def _post_gather(self, state: dict, st: pd.DataFrame, new_wm: int,
                     cycle: int) -> tuple[pd.DataFrame, dict]:
        """Driver-side step after the kernel: returns the canonical
        snapshot and any extra counters."""
        return self._canon(st), {}

    def _canon(self, st: pd.DataFrame) -> pd.DataFrame:
        return (st.sort_values(self.STATE_ORDER, kind="mergesort")
                .reset_index(drop=True))

    def _state_metrics(self, snap: pd.DataFrame) -> dict:
        return {"state_rows": int(len(snap))}

    def _load_state(self, state: dict) -> pd.DataFrame:
        st = self.cp.load_open_sessions(state)
        return self._empty_state() if st is None or not len(st) else st

    # -- plumbing ------------------------------------------------------

    _pending = staticmethod(pending_inputs)

    def pending_files(self) -> list[str]:
        return self._pending(self.input_dir,
                             set(self.cp.load().get("processed", [])))

    _file_max_ts = staticmethod(file_max_ts)

    def _check_open(self, state: dict) -> None:
        if state.get("finalized"):
            raise RuntimeError(self.FINALIZED_MSG)

    def _fsync_outputs(self) -> None:
        fsync_dirs(*(getattr(self, f"{name}_dir")
                     for name in (*self.OUTPUTS, "late")))

    def _read_back(self, name: str, sort: list | None,
                   empty: pd.DataFrame) -> pd.DataFrame:
        d = getattr(self, f"{name}_dir")
        parts = [pd.read_parquet(os.path.join(d, f))
                 for f in sorted(os.listdir(d)) if f.endswith(".parquet")]
        if not parts:
            return empty
        out = pd.concat(parts, ignore_index=True)
        if sort:
            out = out.sort_values(sort, kind="mergesort")
        return out.reset_index(drop=True)

    # -- the cycle -----------------------------------------------------

    def run_cycle(self) -> dict | None:
        pending = self.pending_files()
        if not pending:
            return None
        state = self.cp.load()
        self._check_open(state)
        fname = pending[0]
        wm = int(state.get("watermark_us", 0))
        path = os.path.join(self.input_dir, fname)
        max_ts = self._file_max_ts(path)
        new_wm = max(wm, max_ts - self.lateness_us) if max_ts >= 0 else wm
        state["processed"] = list(state.get("processed", [])) + [fname]
        return self._cycle(state, [(path, self.READ_COLS, self._tag)],
                           wm, new_wm, fname)

    def _cycle(self, state: dict, inputs: list, wm: int, new_wm: int,
               label: str) -> dict:
        """Execute + post-gather + the single commit. ``inputs`` is a
        list of ``(path, columns, tag)``."""
        cycle = int(state.get("cycles", 0))
        nxt, counts = self._execute(inputs, wm, new_wm, cycle,
                                    self._load_state(state))
        snap, more = self._post_gather(state, nxt, new_wm, cycle)
        counts.update(more)

        open_fname = self.cp.stage_open_sessions(snap, cycle)
        state["open_sessions_file"] = open_fname
        state["watermark_us"] = int(new_wm)
        if self.TRACK_LATE_ROWS:
            state["late_rows"] = (int(state.get("late_rows", 0))
                                  + int(counts.get("late", 0)))
        state["cycles"] = cycle + 1
        result = {"file": label, "watermark_us": int(new_wm),
                  **{c: int(counts.get(c, 0)) for c in self.COUNTERS},
                  **self._state_metrics(snap)}
        state["cycle_metrics"] = (list(state.get("cycle_metrics", []))
                                  + [result])
        self._fsync_outputs()
        self.cp.save(state)
        self.cp.gc_open_sessions(keep=open_fname)
        return result

    def run_all(self) -> dict:
        totals = dict.fromkeys(("cycles", *self.COUNTERS), 0)
        while (r := self.run_cycle()) is not None:
            totals["cycles"] += 1
            for c in self.COUNTERS:
                totals[c] += r[c]
        return totals

    def _finalize(self, flush) -> int:
        """End-of-stream: ``flush(committed state)`` writes the
        ``*-final`` files and returns the count; the checkpoint then
        records the stream as finalized (terminal)."""
        state = self.cp.load()
        n = flush(self._load_state(state))
        state["finalized"] = True
        self._fsync_outputs()
        self.cp.save(state)
        return n

    def _final_path(self, name: str) -> str:
        return os.path.join(getattr(self, f"{name}_dir"),
                            f"{name}-final.parquet")

    # -- one kernel pass, two file layouts ------------------------------

    def _is_big(self, inputs: list) -> bool:
        """Layout choice from the parquet footers only (never reads
        data to decide): above ``RAY_CYCLE_THRESHOLD`` rows each output
        is split into per-bucket files at write time. Either layout
        holds the cycle's tagged rows, the state and the cycle's
        emissions in driver memory once, so a cycle file must fit
        there. A job without a bucket key always writes unsuffixed
        files."""
        import pyarrow.dataset as pads

        return self.KEY is not None and (
            sum(pads.dataset(p).count_rows() for p, _, _ in inputs)
            > self.RAY_CYCLE_THRESHOLD)

    def _bucket_of(self, df: pd.DataFrame, what: str) -> np.ndarray:
        """``KEY % num_buckets`` per row of ``df``."""
        if self.KEY not in df.columns:
            raise ValueError(
                f"{what} has no bucket key column {self.KEY!r} (the "
                f"tagged rows, the state and every emission carry it)")
        return df[self.KEY].to_numpy(dtype="int64") % self.num_buckets

    def _execute(self, inputs: list, wm: int, new_wm: int, cycle: int,
                 st: pd.DataFrame, kernel=None):
        """Tag the inputs, split off the late rows and run ``kernel``
        (default :meth:`_cycle_kernel`) ONCE over ``state ∪ on-time
        rows``; returns ``(next state, counters)``. Each output is
        ordered by its ``EMIT_ORDER`` columns, if it has any. Above the
        threshold it is then written as one ``-{bucket}`` file per
        bucket of the tagged ∪ state rows from ONE Arrow conversion
        (:func:`_write_split`; the late rows take their bucket from
        the tagged rows, since ``LATE_COLS`` need not carry the key);
        at or below it as one unsuffixed file."""
        kernel = kernel or self._cycle_kernel
        new = pd.concat([tag(pd.read_parquet(p, columns=cols), wm)
                         for p, cols, tag in inputs], ignore_index=True)
        us = new["ts_us"].to_numpy(dtype="int64")
        late = us < wm
        lrows = pd.DataFrame({
            c: (pd.Series(us[late]).astype("datetime64[us]") if c == "ts"
                else new[c].to_numpy(dtype="int64")[late])
            for c in self.LATE_COLS
        }).sort_values("event_id", kind="mergesort")
        emits, nxt, counts = kernel(st, new[~late], wm, new_wm, cycle)

        buckets = None
        if self._is_big(inputs):
            new_b = self._bucket_of(new, "the tagged rows")
            buckets = np.unique(np.concatenate(
                [new_b, self._bucket_of(st, "the state")]))
            # lrows' index holds each late row's position before the sort
            late_b = new_b[late][lrows.index.to_numpy()]
        for name, df in {"late": lrows, **emits}.items():
            if name in self.EMIT_ORDER:
                df = df.sort_values(self.EMIT_ORDER[name], kind="mergesort")
            stem = os.path.join(getattr(self, f"{name}_dir"),
                                f"{name}-{cycle:05d}")
            if buckets is None:
                write_parquet_atomic(df, stem + ".parquet")
            else:
                _write_split(df, late_b if name == "late" else
                             self._bucket_of(df, f"emission {name!r}"),
                             buckets, stem)
        return nxt, {**counts, "late": int(late.sum())}


def _write_split(df: pd.DataFrame, ub: np.ndarray, buckets: np.ndarray,
                 stem: str) -> None:
    """Write ``df`` as one ``{stem}-{b:02d}.parquet`` per bucket ``b`` of
    ``buckets`` (``ub``: each row's bucket), each file holding that
    bucket's rows in ``df`` order, as ``df[ub == b]`` would. The frame
    is stable-partitioned by bucket and converted to Arrow ONCE; each
    file, that of a present bucket with no rows too, is a zero-copy
    slice of that table. A frame with a non-numpy or ``object`` column
    keeps one conversion per bucket: pandas infers an object column's
    Arrow type from the values it is given (an all-null subset becomes
    ``null``-typed), so a slice of the whole-frame table would not hold
    the same bytes."""
    paths = [f"{stem}-{b:02d}.parquet" for b in buckets]
    if not all(isinstance(dt, np.dtype) and dt.kind in "biufmM"
               for dt in df.dtypes):
        for b, path in zip(buckets, paths):
            write_parquet_atomic(df[ub == b], path)
        return
    perm = np.argsort(ub, kind="stable")
    table = pa.Table.from_pandas(df.take(perm), preserve_index=False)
    ub = ub[perm]
    for path, lo, hi in zip(paths, np.searchsorted(ub, buckets, "left"),
                            np.searchsorted(ub, buckets, "right")):
        write_parquet_atomic(table.slice(lo, hi - lo), path)


def side_counts(snap: pd.DataFrame, **names: int) -> dict:
    """``{metric: rows with side == value}`` for packed multi-kind
    snapshots."""
    side = snap["side"].to_numpy()
    return {k: int((side == v).sum()) for k, v in names.items()}

