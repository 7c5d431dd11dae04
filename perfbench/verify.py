"""Output checks, run outside the timed window. Each check returns a
list of failure strings (empty = passed); the caller counts them into
``failed`` and so into the error rate.

The references here are written independently of the engine's
operator code: a plain pandas sessionize, a plain pandas band join. The
per-turn text check re-runs the engine's own per-row kernels
(``parse_sign_batch → filter_chain_batch → enrich_tool_columns``)
in-process on a seeded sample, which pins the distributed pipeline to
its single-process definition.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd

KEY = ["conv_id", "turn_idx", "signature"]


def read_parquets(paths: list[str]) -> pd.DataFrame:
    frames = [pd.read_parquet(p) for p in paths]
    frames = [f for f in frames if len(f)]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


def part_files(d: str) -> list[str]:
    """Sorted data files under a sink/output directory tree."""
    out = []
    for dirpath, _, files in os.walk(d):
        if os.path.basename(dirpath) == "_manifest":
            continue
        out += [os.path.join(dirpath, f) for f in files
                if f.endswith(".parquet")]
    return sorted(out)


def digest(paths: list[str]) -> str:
    h = hashlib.sha1()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def sessions_reference(turns: pd.DataFrame, gap_s: int) -> pd.DataFrame:
    """Gap sessionize of (conv_id, ts) rows: a new session starts at a
    new conversation or after a gap longer than ``gap_s``."""
    df = turns[["conv_id", "ts"]].sort_values(["conv_id", "ts"],
                                              kind="mergesort")
    us = df["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    conv = df["conv_id"].to_numpy()
    new = np.ones(len(df), dtype=bool)
    new[1:] = (conv[1:] != conv[:-1]) | (np.diff(us) > gap_s * 1_000_000)
    g = np.cumsum(new)
    return (df.assign(_g=g).groupby("_g", sort=True)
            .agg(conv_id=("conv_id", "first"), session_start=("ts", "min"),
                 session_end=("ts", "max"), n_turns=("ts", "size"))
            .reset_index(drop=True))


def check_sessions(closed: pd.DataFrame, ontime: pd.DataFrame,
                   gap_s: int) -> list[str]:
    ref = sessions_reference(ontime, gap_s)
    errs = []
    if len(closed) != len(ref):
        errs.append(f"sessions: {len(closed)} closed, reference {len(ref)}")
    got_turns = int(closed["n_turns"].sum()) if len(closed) else 0
    if got_turns != int(ref["n_turns"].sum()):
        errs.append(f"session turns: {got_turns}, reference "
                    f"{int(ref['n_turns'].sum())}")
    if not errs:
        cols = ["conv_id", "session_start", "session_end", "n_turns"]
        a = closed[cols].astype({"session_start": "datetime64[us]",
                                 "session_end": "datetime64[us]",
                                 "n_turns": "int64"})
        b = ref[cols].astype({"session_start": "datetime64[us]",
                              "session_end": "datetime64[us]",
                              "n_turns": "int64"})
        a = a.sort_values(cols).reset_index(drop=True)
        b = b.sort_values(cols).reset_index(drop=True)
        if not a.equals(b):
            errs.append("session summaries differ from the reference")
    return errs


def check_unique_keys(out: pd.DataFrame) -> list[str]:
    dups = int(out.duplicated(subset=KEY).sum())
    return [f"{dups} duplicate (conv_id, turn_idx, signature) keys"] if dups else []


def check_turn_sample(out: pd.DataFrame, inputs: pd.DataFrame, seed: int,
                      n: int = 256) -> list[str]:
    """Recompute a seeded sample of turns in-process and compare the
    processed text, signature and tool enrichment with the sink rows."""
    from imagor_ray.pipelines.flagship import snippet_dim
    from imagor_ray.sources.transcripts import (enrich_tool_columns,
                                                tool_kind_cost_maps)
    from imagor_ray.stages.chain import filter_chain_batch
    from imagor_ray.stages.parse_sign import parse_sign_batch

    rng = np.random.default_rng([seed, 99])
    idx = np.sort(rng.choice(len(inputs), min(n, len(inputs)), replace=False))
    sample = inputs.iloc[idx][["conv_id", "turn_idx", "role", "text", "tool",
                               "ts"]].reset_index(drop=True)
    kind_map, cost_map = tool_kind_cost_maps()
    exp = parse_sign_batch(sample.copy())
    exp = filter_chain_batch(exp, dim_ref=snippet_dim(), path_col="chain_path")
    exp = enrich_tool_columns(exp, kind_map, cost_map)
    cols = ["text", "signature", "tool_kind", "tool_cost"]
    got = sample[["conv_id", "turn_idx"]].merge(
        out[["conv_id", "turn_idx", *cols]], on=["conv_id", "turn_idx"],
        how="left")
    if got[cols].isna().any().any():
        return [f"{int(got['text'].isna().sum())} sampled turns missing "
                "from the sink"]
    bad = 0
    for c in cols:
        bad += int((got[c].to_numpy() != exp[c].to_numpy()).sum())
    return [f"{bad} sampled turn fields differ from the in-process "
            "kernels"] if bad else []


def band_join_reference(ontime: pd.DataFrame, left: str, right: str,
                        window_us: int) -> dict:
    """Counts of the inner pairs and of the unmatched rows on each side
    for ``left.ts < right.ts <= left.ts + window`` on the same user."""
    us = ontime["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
    ev = ontime.assign(ts_us=us)
    lft = ev[ev["event_type"] == left][["event_id", "user_id", "ts_us"]]
    rgt = ev[ev["event_type"] == right][["event_id", "user_id", "ts_us"]]
    m = lft.merge(rgt, on="user_id", suffixes=("_l", "_r"))
    m = m[(m["ts_us_l"] < m["ts_us_r"])
          & (m["ts_us_r"] <= m["ts_us_l"] + window_us)]
    return {
        "matched": len(m),
        "timeout": int((~lft["event_id"].isin(m["event_id_l"])).sum()),
        "rtimeout": int((~rgt["event_id"].isin(m["event_id_r"])).sum()),
    }
