"""Keyed-watermark cycle runtime — the ONE driver loop behind the
micro-batch stream operators (stream-stream and temporal joins,
broadcast rules, dedup, CEP, SCD2, the update-mode session changelog,
the windowed and top-k changelogs, and the append-mode session stream
and streaming flagship of :mod:`.streaming`). A job declares only what
is specific to it:

- its state: a packed snapshot frame
  (``_empty_state``/``_load_state``, and pack/unpack helpers where the
  frame holds several row kinds);
- a map-side ``_tag(batch, wm)`` turning input rows into keyed rows
  that carry ``ts_us``;
- ONE pure cycle kernel
  ``_cycle_kernel(state, on_time_new, wm, new_wm, cycle) →
  (emissions, next_state, counters)``, and optionally the order an
  emission is written in (``EMIT_ORDER``);
- an optional driver-side ``_post_gather`` (eviction, timeouts) and a
  finalize kernel.

The runtime owns everything else: pending-file discovery, the
watermark ``max(wm, file_max_ts − lateness)`` from the ONE zone-map
source (:func:`file_max_ts` — never from rows a tag pruned), the
``finalized`` guard, the late split (rows with ``ts_us < wm`` route to
``late-{cycle}`` sorted by ``event_id``), the durable atomic parquet
writer every emission/late/timeout file goes through, the
``cycle_metrics`` entry, ``run_all`` totals, output read-back and ONE
commit (:meth:`KeyedStreamJob._commit`: stage the snapshot → fsync the
output directories → ``save`` → ``gc_open_sessions``) that every cycle
and every end-of-stream flush of every job goes through. The session
stream's cycle is not one driver kernel pass, so it overrides
``_execute`` (two placements, the hash exchange above a row threshold)
and its ``run_all`` (pipelined exchange cycles) and keeps the rest.

One pass, one file layout. Every keyed cycle tags its inputs, splits
off the late rows and runs the kernel ONCE, in the driver, over
``state ∪ on-time rows``, and writes each output (late and every
emission) as ONE ``{name}-{cycle:05d}.parquet`` file, whatever the
cycle's size. No keyed cycle starts Ray work, so the kernel's pandas
fixed cost and each output's conversion and fsync are paid once per
cycle (BENCH.md, notes after finding 26). The price is that a cycle's
tagged rows, the state and the cycle's emissions sit in driver memory
together, so a cycle file must fit there.
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

__all__ = ["KeyedStreamJob", "file_max_ts", "footer_late_stats",
           "side_counts", "write_parquet_atomic"]


def write_parquet_atomic(data: pd.DataFrame | pa.Table, path: str) -> None:
    """THE single-file writer of the stream jobs: tmp file, fsync, atomic
    rename, so a reader (or a replay) never observes a torn file, a
    rewrite is an overwrite, and once the caller has fsynced the
    directory (:meth:`KeyedStreamJob._commit`) the file survives a
    power loss. ``data`` is a DataFrame
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


def _stat_us(v) -> int:
    """A ts zone-map bound as int64 µs."""
    if isinstance(v, (int, np.integer)):
        return int(v)
    return int(pd.Timestamp(v).value // 1000)


def _column_us(col) -> np.ndarray:
    """An Arrow timestamp column as int64 µs (integer division — no
    float precision loss)."""
    unit = col.type.unit
    ts_i = col.cast(pa.int64()).to_numpy()
    if unit == "ns":
        return ts_i // 1000
    if unit == "ms":
        return ts_i * 1000
    if unit == "s":
        return ts_i * 1_000_000
    return ts_i


def footer_late_stats(path: str, wm: int) -> tuple[int, int, int | None]:
    """Exact ``(late_count, total_rows, max_us)`` of a parquet file (or
    directory) against watermark ``wm``, from its row-group zone maps.
    A group with ``min_ts >= wm`` has zero late rows and one with
    ``max_ts < wm`` is entirely late, so neither is read. Only a group
    straddling the watermark, or one without ts statistics, is read on
    the driver (ts column only), and its late count and max come from
    that column — never guessed. ``max_us`` is None for an empty file.
    A footer that cannot be read raises."""
    import pyarrow.dataset as pads

    total = late = 0
    max_us = None
    for frag in pads.dataset(path).get_fragments():
        md = frag.metadata
        ts_idx = [md.schema.column(i).path
                  for i in range(md.num_columns)].index("ts")
        suspects = []
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            total += g.num_rows
            stats = g.column(ts_idx).statistics
            if stats is None or not stats.has_min_max:
                if g.num_rows:
                    suspects.append(rg)
                continue
            lo, hi = _stat_us(stats.min), _stat_us(stats.max)
            max_us = hi if max_us is None else max(max_us, hi)
            if hi < wm:
                late += g.num_rows
            elif lo < wm:
                suspects.append(rg)
        if suspects:
            pf = pq.ParquetFile(frag.path)
            for rg in suspects:
                us = _column_us(pf.read_row_group(rg, columns=["ts"])["ts"])
                late += int((us < wm).sum())
                hi = int(us.max())
                max_us = hi if max_us is None else max(max_us, hi)
    return late, total, max_us


def file_max_ts(path: str) -> int:
    """Max event time of the whole file from :func:`footer_late_stats`
    (row-group zone maps, a ts-only scan of any group without them);
    -1 for an empty file."""
    max_us = footer_late_stats(path, 0)[2]
    return -1 if max_us is None else max_us


class KeyedStreamJob:
    """Base of the keyed-watermark stream operators (module docstring
    has the contract). Subclasses set the class attributes below and
    implement ``_empty_state``, ``_tag`` and ``_cycle_kernel``."""

    #: input columns each cycle reads
    READ_COLS = ["event_id", "ts", "user_id", "event_type"]
    #: late-file columns (``ts`` is rebuilt from the tagged ``ts_us``)
    LATE_COLS = ["event_id", "ts"]
    #: emission outputs; each gets ``{name}_dir`` and ``{name}-*`` files
    OUTPUTS: tuple = ("emitted",)
    #: cycle counters, in result order (also the run_all totals)
    COUNTERS: tuple = ("emitted", "late")
    #: canonical snapshot row order (byte-stable across replays)
    STATE_ORDER: list = []
    #: ``{output: columns}``: stable row order an emission is written
    #: in (outputs not named are written in kernel order)
    EMIT_ORDER: dict = {}
    #: also accumulate the checkpoint's ``late_rows`` total
    TRACK_LATE_ROWS = False
    FINALIZED_MSG = "stream already finalized"

    def __init__(self, input_dir: str, state_dir: str,
                 allowed_lateness_s: int = 0):
        self.input_dir = input_dir
        self.cp = Checkpoint(state_dir)
        self.lateness_us = allowed_lateness_s * 1_000_000
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

    @staticmethod
    def _pending(d: str, done) -> list[str]:
        """The ``*.parquet`` files of ``d`` not in ``done``, in name (==
        arrival) order."""
        return [f for f in sorted(os.listdir(d))
                if f.endswith(".parquet") and f not in done]

    _file_max_ts = staticmethod(file_max_ts)

    def _check_open(self, state: dict) -> None:
        if state.get("finalized"):
            raise RuntimeError(self.FINALIZED_MSG)

    def _fsync_outputs(self) -> None:
        """fsync each output directory once, so the renames a cycle made
        into it are durable before the checkpoint commit."""
        st = LocalStorage()
        for name in (*self.OUTPUTS, "late"):
            d = getattr(self, f"{name}_dir")
            if os.path.isdir(d):
                st.fsync_dir(d)

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
        state = self.cp.load()
        pending = self._pending(self.input_dir,
                                set(state.get("processed", [])))
        if not pending:
            return None
        self._check_open(state)
        return self._run_file(state, pending[0])

    def _run_file(self, state: dict, fname: str) -> dict:
        """The cycle of input file ``fname`` against the loaded
        ``state``."""
        wm = int(state.get("watermark_us", 0))
        path = os.path.join(self.input_dir, fname)
        max_ts = self._file_max_ts(path)
        new_wm = max(wm, max_ts - self.lateness_us) if max_ts >= 0 else wm
        state["processed"] = list(state.get("processed", [])) + [fname]
        return self._cycle(state, [(path, self.READ_COLS, self._tag)],
                           wm, new_wm, fname)

    def _cycle(self, state: dict, inputs, wm: int, new_wm: int,
               label: str) -> dict:
        """Execute + :meth:`_commit_cycle`. ``inputs`` is what the job's
        ``_execute`` reads: for the runtime's kernel pass, a list of
        ``(path, columns, tag)``."""
        nxt, counts = self._execute(inputs, wm, new_wm,
                                    int(state.get("cycles", 0)),
                                    self._load_state(state))
        return self._commit_cycle(state, label, new_wm, nxt, counts)

    def _commit_cycle(self, state: dict, label: str, new_wm: int,
                      nxt: pd.DataFrame, counts: dict) -> dict:
        """A cycle's driver tail once its execution is done:
        post-gather, the state advance, the ``cycle_metrics`` entry and
        :meth:`_commit`. Mutates ``state`` in place, so a pipelined
        caller keeps committing against its own loaded copy; returns
        the cycle's result."""
        cycle = int(state.get("cycles", 0))
        snap, more = self._post_gather(state, nxt, new_wm, cycle)
        counts = {**counts, **more}
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
        self._commit(state, snap, cycle)
        return result

    def _commit(self, state: dict, snap: pd.DataFrame | None = None,
                cycle: int = 0) -> None:
        """THE commit of every stream job, cycle or end of stream:
        stage ``snap`` (the new state, if it changed) as the
        cycle-versioned snapshot ``state`` records, fsync every output
        directory, save ``state`` — the single commit point: a crash
        before it replays against the previous snapshot — and drop the
        snapshots it no longer references."""
        if snap is not None:
            state["open_sessions_file"] = self.cp.stage_open_sessions(
                snap, cycle)
        self._fsync_outputs()
        self.cp.save(state)
        if snap is not None:
            self.cp.gc_open_sessions(keep=state["open_sessions_file"])

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
        self._commit(state)
        return n

    def _final_path(self, name: str) -> str:
        return os.path.join(getattr(self, f"{name}_dir"),
                            f"{name}-final.parquet")

    # -- one kernel pass, one file per output ------------------------

    def _execute(self, inputs: list, wm: int, new_wm: int, cycle: int,
                 st: pd.DataFrame, kernel=None):
        """Tag the inputs, split off the late rows and run ``kernel``
        (default :meth:`_cycle_kernel`) ONCE over ``state ∪ on-time
        rows``; returns ``(next state, counters)``. Each output is
        ordered by its ``EMIT_ORDER`` columns, if it has any, and
        written as one ``{name}-{cycle:05d}.parquet`` file."""
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

        for name, df in {"late": lrows, **emits}.items():
            if name in self.EMIT_ORDER:
                df = df.sort_values(self.EMIT_ORDER[name], kind="mergesort")
            write_parquet_atomic(df, os.path.join(
                getattr(self, f"{name}_dir"), f"{name}-{cycle:05d}.parquet"))
        return nxt, {**counts, "late": int(late.sum())}


def side_counts(snap: pd.DataFrame, **names: int) -> dict:
    """``{metric: rows with side == value}`` for packed multi-kind
    snapshots."""
    side = snap["side"].to_numpy()
    return {k: int((side == v).sum()) for k, v in names.items()}

