"""UPDATE-mode windowed aggregation — the retraction/changelog emission
mode of structured streaming (Spark's ``update`` output mode, Flink's
retract streams): instead of waiting for the watermark to CLOSE a
window (append mode — ``StreamingSessionJob``'s contract), every cycle
emits the windows whose aggregate CHANGED, as a changelog:

- ``op = -1`` retracts the previously emitted value of a (window, key)
  whose aggregate this cycle's arrivals supersede;
- ``op = +1`` inserts the new value.

A consumer folding the changelog (sum of ``op``-weighted rows, or
last-insert-wins per key) holds, after any cycle, exactly the batch
aggregate of all data seen so far — that's the update-mode contract,
and it's what the DuckDB oracle checks end to end: with deterministic
day-file micro-batches, the full changelog itself is a pure function of
the input and mirrors as a ``lag()`` over per-day cumulative sums.

Windows here are TUMBLING WEEKS over day cycles, so a window is
genuinely updated across up to 7 cycles (an hour-window variant would
never retract — every window would complete inside one day file).

State is the open-window aggregate table — O(open windows × keys),
bounded by the window/watermark horizon, never the stream; rows with
``ts < watermark`` at arrival route to the late output (the session
job's contract). Exactly-once rides the house discipline: per-cycle
changelog files are sorted + written BEFORE the single checkpoint
commit, so a crash between write and commit replays the cycle against
the committed pre-cycle state and overwrites identical bytes.

Scale shape: every job here runs on the keyed-stream runtime
(``keyed_stream.py``), which owns the zone-map watermark, the late
split, the atomic writes and the commit. The windowed and top-k jobs
have no bucket key (their state is sized by the aggregate domain, and
a ranking spans every key), so each cycle is ONE in-process kernel
call: it fans sliding windows out, counts the on-time rows, folds the
counts into the state, evicts closed windows and emits. The price is
that a cycle's tagged ``(event_id, ts_us, key)`` rows sit in driver
memory beside the state; the changelog diff itself is a pandas merge
over the open-window state — domain-sized, not stream-sized.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd

from ..stages.windows import ts_us
from .keyed_stream import KeyedStreamJob

__all__ = ["StreamingChangelogJob", "SessionChangelogJob",
           "TopKChangelogJob"]

_WEEK_US = 7 * 86_400 * 1_000_000
# DuckDB's date_trunc('week', ts) snaps to Monday; epoch (1970-01-01)
# was a Thursday, so the Monday grid is offset by 4 days
_MONDAY_OFFSET_US = 4 * 86_400 * 1_000_000


def _week_start(us: np.ndarray) -> np.ndarray:
    return ((us - _MONDAY_OFFSET_US) // _WEEK_US) * _WEEK_US \
        + _MONDAY_OFFSET_US


def _empty_state() -> pd.DataFrame:
    return pd.DataFrame({
        "win_us": pd.Series([], dtype="int64"),
        "key": pd.Series([], dtype=object),
        "n": pd.Series([], dtype="int64"),
    })


class StreamingChangelogJob(KeyedStreamJob):
    """Micro-batch weekly-count changelog with retraction emission
    (module docstring has the full semantics).

    ``output_mode`` selects the structured-streaming emission contract:

    - ``"update"`` (default): per cycle, only the (window, key) rows
      whose aggregate changed, as a retract/insert changelog — the
      module's headline semantics. Closed windows evict.
    - ``"complete"``: per cycle, the ENTIRE aggregate table so far
      (Spark's complete mode). Nothing evicts — state and emission are
      bounded by the AGGREGATE DOMAIN (windows × keys), never the
      stream, which is the only regime complete mode is sane in.
    - ``"append"``: a window emits ONCE, with its FINAL aggregate, in
      the cycle whose watermark closes it (``win + window <= wm`` —
      no on-time arrival can still update it). Emission here is the
      eviction itself, so nothing ever retracts; windows still open at
      end of stream stay unemitted (Spark's append contract). The
      session twin is ``StreamingSessionJob``.

    ``window_s``/``slide_s`` switch the window shape from the default
    tumbling Monday-snapped week to SLIDING epoch-aligned windows of
    length ``window_s`` every ``slide_s`` seconds (``window_s`` must be
    a multiple of ``slide_s``): the kernel fans each on-time event out
    to its ``window_s/slide_s`` covering windows — the bounded fan-out
    the sliding assignment in ``stages/windows.py`` documents — and
    everything downstream (changelog diff, eviction at
    ``win + window > wm``, folding) is window-shape-agnostic.

    Runs on the keyed-stream runtime with no bucket key (``KEY =
    None``): the state is sized by the aggregate domain, not by a key
    space, so every cycle is one in-process unit. A cycle's tagged
    ``(event_id, ts_us, key)`` rows sit in driver memory beside that
    state. Append emissions land in ``changelog/closed-*``, complete
    emissions in ``changelog/complete-*``.
    """

    OUTPUTS = ("changelog",)
    COUNTERS = ("changelog_rows", "retractions", "late")
    STATE_ORDER = ["win_us", "key"]
    KEY = None

    def __init__(self, input_dir: str, state_dir: str,
                 key_col: str = "event_type",
                 allowed_lateness_s: int = 0,
                 output_mode: str = "update",
                 window_s: int | None = None,
                 slide_s: int | None = None):
        if output_mode not in ("update", "complete", "append"):
            raise ValueError(f"unknown output_mode: {output_mode!r}")
        if (window_s is None) != (slide_s is None):
            raise ValueError("window_s and slide_s go together")
        if window_s is None:
            self.win_len_us, self.slide_us = _WEEK_US, None
        else:
            if window_s % slide_s:
                raise ValueError("window_s must be a multiple of slide_s")
            self.win_len_us = window_s * 1_000_000
            self.slide_us = slide_s * 1_000_000
        super().__init__(input_dir, state_dir, allowed_lateness_s)
        self.key_col = key_col
        self.READ_COLS = ["event_id", "ts", key_col]
        self.output_mode = output_mode
        self.closed_dir = self.complete_dir = self.changelog_dir

    def _empty_state(self) -> pd.DataFrame:
        return _empty_state()

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
            "key": b[self.key_col].to_numpy(),
        })

    def _counts(self, new: pd.DataFrame) -> pd.DataFrame:
        """Per-(window, key) counts of the on-time rows; a sliding
        window fans each row out to every covering window start (the
        k = window/slide epoch-aligned grid points at or before the
        event, within one window length)."""
        us = new["ts_us"].to_numpy(dtype="int64")
        keys = new["key"].to_numpy()
        if self.slide_us is None:
            win = _week_start(us)
        else:
            k = self.win_len_us // self.slide_us
            base = (us // self.slide_us) * self.slide_us
            win = (base[:, None]
                   - np.arange(k, dtype=np.int64) * self.slide_us).ravel()
            keys = np.repeat(keys, k)
        s = (pd.DataFrame({"win_us": win, "key": keys})
             .groupby(["win_us", "key"], sort=False)
             .size().reset_index(name="n"))
        s["n"] = s["n"].astype("int64")
        return s

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        counts = self._counts(new)
        upd = (pd.concat([st, counts], ignore_index=True)
               .groupby(["win_us", "key"], sort=False)["n"]
               .sum().reset_index())
        # closed windows (watermark past window end) can get no further
        # on-time update; complete mode keeps them by design
        open_ = upd["win_us"].to_numpy() + self.win_len_us > new_wm
        name, out = self._emit(st, counts, upd, open_)
        out.insert(0, "cycle", np.int64(cycle))
        nxt = upd if self.output_mode == "complete" else upd[open_]
        retractions = int((out["op"] == -1).sum()) if "op" in out else 0
        return ({name: out}, nxt,
                {"changelog_rows": len(out), "retractions": retractions})

    def _emit(self, st: pd.DataFrame, counts: pd.DataFrame,
              upd: pd.DataFrame, open_: np.ndarray
              ) -> tuple[str, pd.DataFrame]:
        """The output mode's emission as ``(output name, frame)``."""
        if self.output_mode == "complete":
            return "complete", self._canon(upd)
        if self.output_mode == "append":
            # the closing windows' aggregate is final: emission IS the
            # eviction
            return "closed", self._canon(upd[~open_])
        # changelog diff against the open-window state (domain-sized)
        merged = counts.merge(st, on=["win_us", "key"], how="left",
                              suffixes=("_new", "_old"))
        prev = merged["n_old"].fillna(0).astype("int64")
        new_n = merged["n_new"].astype("int64") + prev
        retract = merged[prev > 0].assign(op=np.int8(-1), n=prev[prev > 0])
        insert = merged.assign(op=np.int8(1), n=new_n)
        return "changelog", (
            pd.concat([retract[["win_us", "key", "op", "n"]],
                       insert[["win_us", "key", "op", "n"]]],
                      ignore_index=True)
            .sort_values(["win_us", "key", "op"], kind="mergesort")
            .reset_index(drop=True))

    def closed(self) -> pd.DataFrame:
        """Append-mode consumer view: the closed-window emissions
        (cycle, win_us, key, n), one row per window×key ever closed."""
        parts = [pd.read_parquet(os.path.join(self.changelog_dir, f))
                 for f in sorted(os.listdir(self.changelog_dir))
                 if f.startswith("closed-") and f.endswith(".parquet")]
        if not parts:
            return pd.DataFrame({
                "cycle": pd.Series([], dtype="int64"),
                "win_us": pd.Series([], dtype="int64"),
                "key": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        return pd.concat(parts, ignore_index=True)

    def changelog(self) -> pd.DataFrame:
        return self._read_back("changelog", None, pd.DataFrame({
            "cycle": pd.Series([], dtype="int64"),
            "win_us": pd.Series([], dtype="int64"),
            "key": pd.Series([], dtype=object),
            "op": pd.Series([], dtype="int8"),
            "n": pd.Series([], dtype="int64"),
        }))

    def folded(self) -> pd.DataFrame:
        """Materialize the consumer view: last-insert-wins per
        (window, key) — must equal the batch aggregate after the final
        cycle (the update-mode contract the tests pin)."""
        ch = self.changelog()
        ins = ch[ch["op"] == 1]
        last = (ins.sort_values(["cycle"], kind="mergesort")
                .groupby(["win_us", "key"], sort=False).tail(1))
        return (last[["win_us", "key", "n"]]
                .sort_values(["win_us", "key"], kind="mergesort")
                .reset_index(drop=True))


class TopKChangelogJob(StreamingChangelogJob):
    """Continuous TOP-K ranking changelog — the materialized-ranking
    shape of continuous queries (ksqlDB/Flink Top-N): per open window,
    the k highest-count keys are a live ranking, and every cycle emits
    a changelog of the RANK SLOTS whose occupant changed — op=-1
    retracts (win, rank)'s previous (key, n), op=+1 inserts the new
    one. A slot changes only when a cycle's arrivals touch its window,
    so the diff runs over touched windows only; counts are monotone,
    so rank slots never disappear (a retraction is always paired with
    an insert). Ties break (n DESC, key ASC) on both engine and
    oracle. Only the emission step differs from the update-mode
    parent: the state is the same open-window count table
    (domain-sized, watermark-evicted), and a ranking spans every key,
    which is why there is no bucket key to split a cycle by."""

    def __init__(self, input_dir: str, state_dir: str,
                 key_col: str = "event_type",
                 allowed_lateness_s: int = 0, k: int = 3,
                 window_s: int | None = None,
                 slide_s: int | None = None):
        super().__init__(input_dir, state_dir, key_col=key_col,
                         allowed_lateness_s=allowed_lateness_s,
                         output_mode="update", window_s=window_s,
                         slide_s=slide_s)
        self.k = k

    def _topk(self, counts: pd.DataFrame) -> pd.DataFrame:
        """Rank the top-k keys per window: (win_us, rnk, key, n),
        ties (n DESC, key ASC)."""
        if not len(counts):
            return pd.DataFrame({
                "win_us": pd.Series([], dtype="int64"),
                "rnk": pd.Series([], dtype="int64"),
                "key": pd.Series([], dtype=object),
                "n": pd.Series([], dtype="int64"),
            })
        s = counts.sort_values(["win_us", "n", "key"],
                               ascending=[True, False, True],
                               kind="mergesort").reset_index(drop=True)
        s["rnk"] = s.groupby("win_us", sort=False).cumcount() + 1
        return (s[s["rnk"] <= self.k]
                [["win_us", "rnk", "key", "n"]].reset_index(drop=True))

    def _emit(self, st: pd.DataFrame, counts: pd.DataFrame,
              upd: pd.DataFrame, open_: np.ndarray
              ) -> tuple[str, pd.DataFrame]:
        touched = counts["win_us"].unique()
        old_top = self._topk(st[st["win_us"].isin(touched)])
        new_top = self._topk(upd[upd["win_us"].isin(touched)])
        m = new_top.merge(old_top, on=["win_us", "rnk"], how="left",
                          suffixes=("", "_old"))
        changed = (m["key_old"].isna() | (m["key_old"] != m["key"])
                   | (m["n_old"] != m["n"]))
        m = m[changed]
        had_old = m["key_old"].notna()
        retract = pd.DataFrame({
            "win_us": m["win_us"].to_numpy(dtype="int64")[had_old],
            "rnk": m["rnk"].to_numpy(dtype="int64")[had_old],
            "op": np.full(int(had_old.sum()), -1, dtype=np.int8),
            "key": m["key_old"].to_numpy()[had_old],
            "n": m["n_old"].to_numpy()[had_old].astype("int64"),
        })
        insert = pd.DataFrame({
            "win_us": m["win_us"].to_numpy(dtype="int64"),
            "rnk": m["rnk"].to_numpy(dtype="int64"),
            "op": np.full(len(m), 1, dtype=np.int8),
            "key": m["key"].to_numpy(),
            "n": m["n"].to_numpy(dtype="int64"),
        })
        return "changelog", (
            pd.concat([retract, insert], ignore_index=True)
            .sort_values(["win_us", "rnk", "op"], kind="mergesort")
            .reset_index(drop=True))

    def changelog(self) -> pd.DataFrame:
        return self._read_back("changelog", None, pd.DataFrame({
            "cycle": pd.Series([], dtype="int64"),
            "win_us": pd.Series([], dtype="int64"),
            "rnk": pd.Series([], dtype="int64"),
            "op": pd.Series([], dtype="int8"),
            "key": pd.Series([], dtype=object),
            "n": pd.Series([], dtype="int64"),
        }))

    def folded(self) -> pd.DataFrame:
        """Consumer view: last insert per (window, rank) — must equal
        the batch top-k of all data seen, for every window ever
        touched."""
        ch = self.changelog()
        ins = ch[ch["op"] == 1]
        last = (ins.sort_values(["cycle"], kind="mergesort")
                .groupby(["win_us", "rnk"], sort=False).tail(1))
        return (last[["win_us", "rnk", "key", "n"]]
                .sort_values(["win_us", "rnk"], kind="mergesort")
                .reset_index(drop=True))


def _empty_sess_state() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "start_us": pd.Series([], dtype="int64"),
        "end_us": pd.Series([], dtype="int64"),
        "n": pd.Series([], dtype="int64"),
    })


def _sessionize_new(uid: np.ndarray, us: np.ndarray, gap_us: int
                    ) -> pd.DataFrame:
    """Gap-split pre-sorted (user, ts) events → per-session rows
    (user_id, start_us, end_us, n) — flags + cumsum, no per-user loop."""
    if not len(uid):
        return _empty_sess_state()
    new_s = np.ones(len(uid), dtype=np.int64)
    same = uid[1:] == uid[:-1]
    new_s[1:] = (~same | (us[1:] - us[:-1] > gap_us)).astype(np.int64)
    sid = np.cumsum(new_s) - 1
    out = pd.DataFrame({"user_id": uid, "start_us": us, "end_us": us,
                        "n": np.ones(len(uid), dtype="int64"), "sid": sid})
    agg = out.groupby("sid", sort=True).agg(
        user_id=("user_id", "first"), start_us=("start_us", "min"),
        end_us=("end_us", "max"), n=("n", "sum")).reset_index(drop=True)
    return agg


def _empty_sess_chlog() -> pd.DataFrame:
    return pd.DataFrame({
        "user_id": pd.Series([], dtype="int64"),
        "start_us": pd.Series([], dtype="int64"),
        "op": pd.Series([], dtype="int8"),
        "end_us": pd.Series([], dtype="int64"),
        "n": pd.Series([], dtype="int64"),
    })


def _session_cycle_kernel_merge(st: pd.DataFrame, uid: np.ndarray,
                                us: np.ndarray, gap_us: int
                                ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Lateness-capable cycle kernel: state sessions and new on-time
    events gap-merge as INTERVALS, so an in-horizon out-of-order event
    may extend a session BACKWARD or bridge two open sessions (which
    then MERGE: both old versions retract, the merged session
    inserts — its identity is the merged start, so a consumer must
    fold retraction-aware, see :meth:`SessionChangelogJob.folded`).

    Hull merging is exact: gap connectivity between point sets depends
    only on their min/max (an outside point's nearest cluster point is
    always a hull endpoint), so replacing a session's events by its
    (start, end, n) summary loses nothing. The changelog is the
    row-set diff old-state vs new-state on (user, start, end, n) —
    unchanged sessions emit nothing; with event-time-ordered input
    this reduces exactly to the ordered kernel's retract-on-extension
    output."""
    if not len(uid):
        return _empty_sess_chlog(), st.copy()
    items = pd.DataFrame({
        "user_id": np.concatenate([
            st["user_id"].to_numpy(dtype="int64"), uid]),
        "start_us": np.concatenate([
            st["start_us"].to_numpy(dtype="int64"), us]),
        "end_us": np.concatenate([
            st["end_us"].to_numpy(dtype="int64"), us]),
        "n": np.concatenate([
            st["n"].to_numpy(dtype="int64"),
            np.ones(len(uid), dtype="int64")]),
    }).sort_values(["user_id", "start_us", "end_us"], kind="mergesort")
    # per-user running hull end (integer-exact; the garbage value a
    # shift leaks across a user boundary is masked by the ~same flag)
    hull = (items.groupby("user_id", sort=False)["end_us"]
            .cummax().to_numpy(dtype="int64"))
    prev_hull = np.empty_like(hull)
    prev_hull[0] = np.int64(-(1 << 62))
    prev_hull[1:] = hull[:-1]
    # exact int64 comparison — a pandas shift() would upcast to
    # float64 and collapse user_ids differing beyond 2^53
    uidv = items["user_id"].to_numpy(dtype="int64")
    same = np.empty(len(uidv), dtype=bool)
    same[0] = False
    same[1:] = uidv[1:] == uidv[:-1]
    new_s = (~same) | (items["start_us"].to_numpy(dtype="int64")
                       > prev_hull + gap_us)
    sid = np.cumsum(new_s) - 1
    nxt = (items.assign(sid=sid).groupby("sid", sort=True)
           .agg(user_id=("user_id", "first"),
                start_us=("start_us", "min"),
                end_us=("end_us", "max"), n=("n", "sum"))
           .reset_index(drop=True))
    # row-set diff (all four columns are join keys — no NaN upcast)
    m = st.merge(nxt, how="outer", indicator=True,
                 on=["user_id", "start_us", "end_us", "n"])
    cols = ["user_id", "start_us", "end_us", "n"]
    retract = m[m["_merge"] == "left_only"][cols].assign(op=np.int8(-1))
    insert = m[m["_merge"] == "right_only"][cols].assign(op=np.int8(1))
    chlog = (pd.concat([retract, insert], ignore_index=True)
             [["user_id", "start_us", "op", "end_us", "n"]]
             .sort_values(["user_id", "start_us", "op"], kind="mergesort")
             .reset_index(drop=True))
    nxt = (nxt.sort_values(["user_id", "start_us"], kind="mergesort")
           .reset_index(drop=True))
    return chlog, nxt


def _session_cycle_kernel(st: pd.DataFrame, uid: np.ndarray,
                          us: np.ndarray, gap_us: int
                          ) -> tuple[pd.DataFrame, pd.DataFrame]:
    """One cycle's session-update kernel over pre-sorted new events:
    returns (changelog rows, next state rows). New events all carry
    LATER event time than everything in state (event-time-ordered
    micro-batches), so only each user's FIRST new session can extend
    the user's open state session — session identity (user, start)
    is stable and sessions never merge retroactively."""
    new_sess = _sessionize_new(uid, us, gap_us)
    if not len(new_sess):
        return (pd.DataFrame({
            "user_id": pd.Series([], dtype="int64"),
            "start_us": pd.Series([], dtype="int64"),
            "op": pd.Series([], dtype="int8"),
            "end_us": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
        }), st.copy())
    # first new session per user against the user's open state session
    first = new_sess.groupby("user_id", sort=False).head(1)
    joined = first.merge(
        st.rename(columns={"start_us": "st_start", "end_us": "st_end",
                           "n": "st_n"}),
        on="user_id", how="left")
    extends = (joined["st_end"].notna()
               & (joined["start_us"] - joined["st_end"] <= gap_us))
    ext = joined[extends]
    # rewrite the extended sessions (identity keeps the STATE start) —
    # one vectorized merge on (user, cycle-local start), no row loop
    ns = new_sess.merge(
        ext[["user_id", "start_us", "st_start", "st_n", "st_end"]],
        on=["user_id", "start_us"], how="left")
    hit = ns["st_start"].notna().to_numpy()
    prev_end = ns["st_end"].fillna(-1).astype("int64").to_numpy()
    prev_n = ns["st_n"].fillna(-1).astype("int64").to_numpy()
    new_n = ns["n"].to_numpy(dtype="int64") + np.where(hit, prev_n, 0)
    new_start = np.where(hit,
                         ns["st_start"].fillna(-1).astype("int64"),
                         ns["start_us"].astype("int64"))
    # changelog: retract the extended sessions' previous version,
    # insert every new/changed session
    retract = pd.DataFrame({
        "user_id": ns["user_id"].to_numpy(dtype="int64")[hit],
        "start_us": new_start[hit],
        "op": np.full(int(hit.sum()), -1, dtype=np.int8),
        "end_us": prev_end[hit],
        "n": prev_n[hit],
    })
    insert = pd.DataFrame({
        "user_id": ns["user_id"].to_numpy(dtype="int64"),
        "start_us": new_start,
        "op": np.ones(len(ns), dtype=np.int8),
        "end_us": ns["end_us"].to_numpy(dtype="int64"),
        "n": new_n,
    })
    chlog = (pd.concat([retract, insert], ignore_index=True)
             .sort_values(["user_id", "start_us", "op"], kind="mergesort")
             .reset_index(drop=True))
    # next state: untouched state sessions + the rewritten new table
    st_key = pd.MultiIndex.from_arrays(
        [st["user_id"].to_numpy(dtype="int64"),
         st["start_us"].to_numpy(dtype="int64")])
    touched = pd.MultiIndex.from_arrays(
        [ext["user_id"].to_numpy(dtype="int64"),
         ext["st_start"].astype("int64").to_numpy()])
    keep = ~st_key.isin(touched)
    rewritten = pd.DataFrame({
        "user_id": ns["user_id"].to_numpy(dtype="int64"),
        "start_us": new_start,
        "end_us": ns["end_us"].to_numpy(dtype="int64"),
        "n": new_n,
    })
    nxt = (pd.concat([st[np.asarray(keep)] if len(st) else st, rewritten],
                     ignore_index=True)
           .sort_values(["user_id", "start_us"], kind="mergesort")
           .reset_index(drop=True))
    return chlog, nxt


class SessionChangelogJob(KeyedStreamJob):
    """UPDATE-mode SESSION windows — the composition the north rule's
    two headline features meet in: gap sessions (per user, event-time
    gap) emitted as a retract/insert changelog the moment a cycle's
    arrivals extend them, instead of waiting for the watermark to
    close them (the append-mode ``StreamingSessionJob`` contract).
    A session straddling a micro-batch boundary produces
    ``(-1, old end, old n)`` + ``(+1, new end, new n)`` in the later
    cycle; folding the changelog (last insert per (user, start))
    reproduces the batch sessionization after every cycle.

    State is the extendable-session table (``end + gap >= watermark``;
    closed sessions evict silently — their latest version was already
    emitted). With ``allowed_lateness_s == 0`` identity (user, session
    start) is stable — event-time-ordered batches extend sessions at
    the end only (ordered kernel). With lateness > 0 an in-horizon
    out-of-order event may extend a session BACKWARD or bridge two
    open sessions, which then MERGE (merge kernel: both old versions
    retract, the merged session inserts under the merged start;
    ``folded()`` is retraction-aware so merged-away keys die). Events
    older than the watermark still route to the late output in both
    modes. Exactly-once rides the house discipline: sorted per-cycle
    changelog files commit before the checkpoint; crash replay
    overwrites identical bytes.

    Scale shape: the keyed-stream runtime calls the ONE kernel once
    per cycle; above RAY_CYCLE_THRESHOLD footer rows the changelog and
    late rows are split into per-user-bucket files at write time.
    """

    OUTPUTS = ("changelog",)
    COUNTERS = ("changelog_rows", "late")
    READ_COLS = ["event_id", "ts", "user_id"]
    STATE_ORDER = ["user_id", "start_us"]
    TRACK_LATE_ROWS = True

    def __init__(self, input_dir: str, state_dir: str,
                 gap_s: int = 1800, allowed_lateness_s: int = 0,
                 num_buckets: int = 32,
                 ray_cycle_threshold: int | None = None):
        # With lateness 0 every on-time event postdates every state
        # session (wm == max_ts), so the ordered kernel's extend-at-
        # the-end fast path applies. With lateness > 0 an on-time
        # event can land BEFORE a state session's end, so cycles run
        # the merge kernel: sessions may extend backward or MERGE
        # (both retract, the merged session inserts) — never the
        # ordered kernel, which would double-count such an event.
        self._kernel = (_session_cycle_kernel if allowed_lateness_s == 0
                        else _session_cycle_kernel_merge)
        super().__init__(input_dir, state_dir, allowed_lateness_s,
                         num_buckets, ray_cycle_threshold)
        self.gap_us = gap_s * 1_000_000

    def _empty_state(self) -> pd.DataFrame:
        return _empty_sess_state()

    def _tag(self, b: pd.DataFrame, wm: int) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"].to_numpy(dtype="int64"),
            "event_id": b["event_id"].to_numpy(dtype="int64"),
            "ts_us": ts_us(b["ts"]),
        })

    def _cycle_kernel(self, st: pd.DataFrame, new: pd.DataFrame, wm: int,
                      new_wm: int, cycle: int):
        uid = new["user_id"].to_numpy(dtype="int64")
        us = new["ts_us"].to_numpy(dtype="int64")
        order = np.lexsort((new["event_id"].to_numpy(dtype="int64"),
                            us, uid))
        ch, nxt = self._kernel(st.reset_index(drop=True), uid[order],
                               us[order], self.gap_us)
        ch.insert(0, "cycle", np.int64(cycle))
        return {"changelog": ch}, nxt, {"changelog_rows": len(ch)}

    def _post_gather(self, state: dict, nxt: pd.DataFrame, new_wm: int,
                     cycle: int) -> tuple[pd.DataFrame, dict]:
        # closed sessions (end + gap < wm) can never extend: their last
        # emitted version is final — evict silently
        keep = nxt["end_us"].to_numpy(dtype="int64") + self.gap_us >= new_wm
        return self._canon(nxt[keep]), {}

    def changelog(self) -> pd.DataFrame:
        return self._read_back("changelog", None, pd.DataFrame({
            "cycle": pd.Series([], dtype="int64"),
            "user_id": pd.Series([], dtype="int64"),
            "start_us": pd.Series([], dtype="int64"),
            "op": pd.Series([], dtype="int8"),
            "end_us": pd.Series([], dtype="int64"),
            "n": pd.Series([], dtype="int64"),
        }))

    def folded(self) -> pd.DataFrame:
        """Retraction-aware fold: per (user, start), the LAST op in
        (cycle, op) order decides — an insert carries the live
        version, a trailing retract means the key died (its session
        merged into an earlier start under lateness). Must equal the
        batch sessionization after the final cycle; with lateness 0
        keys never die and this reduces to last-insert-wins."""
        ch = self.changelog()
        ordered = ch.sort_values(["cycle", "op"], kind="mergesort")
        last = ordered.groupby(["user_id", "start_us"],
                               sort=False).tail(1)
        alive = last[last["op"] == 1]
        return (alive[["user_id", "start_us", "end_us", "n"]]
                .sort_values(["user_id", "start_us"], kind="mergesort")
                .reset_index(drop=True))
