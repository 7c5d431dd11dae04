"""Checkpoint for the micro-batch streaming driver: watermark, processed
micro-batches, and open-session carry-over state.

Ray Data is a batch engine; event-time progress lives in the driver loop
(SURVEY §7.4.2). The checkpoint is a JSON file written with atomic rename
so a killed run resumes from the last committed micro-batch; open
sessions (conversations whose last turn is within the session gap of the
watermark) are persisted as a small parquet side-file and re-injected as
a dataset at the next cycle.
"""

from __future__ import annotations

import json
import os

import pandas as pd

from .storage import LocalStorage

__all__ = ["Checkpoint"]


class Checkpoint:
    def __init__(self, path: str):
        self.path = path
        self.state_file = os.path.join(path, "checkpoint.json")
        self.open_sessions_file = os.path.join(path, "open_sessions.parquet")
        os.makedirs(path, exist_ok=True)

    def load(self) -> dict:
        if not os.path.exists(self.state_file):
            return {"watermark_us": 0, "processed": [], "late_rows": 0, "cycles": 0}
        with open(self.state_file) as f:
            return json.load(f)

    def save(self, state: dict) -> None:
        """The commit point: fsynced temp file, atomic rename, then an
        fsync of the state directory so the rename (and the snapshot
        rename :meth:`stage_open_sessions` made before it) survives a
        power loss. ``json.dumps`` runs the C encoder, which
        ``json.dump`` skips; the bytes are the same."""
        tmp = self.state_file + ".tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(state))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.state_file)
        LocalStorage().fsync_dir(self.path)

    def load_open_sessions(self, state: dict | None = None) -> pd.DataFrame | None:
        """Open-session snapshot as COMMITTED by checkpoint.json.

        The snapshot file name travels inside the checkpoint state
        (``open_sessions_file``), so a cycle that crashed after staging its
        post-cycle snapshot but before ``save(state)`` replays against the
        pre-cycle snapshot — the checkpoint is the single atomic commit
        point. Falls back to the legacy unversioned side-file for state
        dirs written before this scheme.
        """
        if state is None:
            state = self.load()
        fname = state.get("open_sessions_file")
        path = os.path.join(self.path, fname) if fname else self.open_sessions_file
        if not os.path.exists(path):
            return None
        return pd.read_parquet(path)

    def stage_open_sessions(self, df: pd.DataFrame, cycle: int) -> str:
        """Write the post-cycle open-session snapshot to a cycle-versioned
        side file (``open-{cycle}.parquet``) and return its name. NOT
        visible to replays until the caller records the name in the state
        dict and commits via :meth:`save`."""
        fname = f"open-{cycle:05d}.parquet"
        full = os.path.join(self.path, fname)
        tmp = full + ".tmp"
        df.to_parquet(tmp, index=False)
        with open(tmp, "rb") as f:
            os.fsync(f.fileno())
        os.replace(tmp, full)
        return fname

    def gc_open_sessions(self, keep: str) -> None:
        """Drop superseded open-session snapshots after a successful
        checkpoint commit (safe: the committed checkpoint no longer
        references them)."""
        for f in os.listdir(self.path):
            if f == keep or not f.endswith(".parquet"):
                continue
            if f.startswith("open-") or f == "open_sessions.parquet":
                try:
                    os.remove(os.path.join(self.path, f))
                except OSError:
                    pass
