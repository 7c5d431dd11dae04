"""Unified per-stage metrics — the engine analogue of the reference's
Prometheus middleware (``metrics/prometheusmetrics/prometheus.go:51-80``),
re-shaped for a distributed engine:

- **process-local counters** (:func:`inc` / :func:`snapshot`): stages
  increment named counters in whatever process runs them, batched (one
  add per map_batches call, never per row). The reference's metrics are
  per-replica in exactly this way — each imagor process exports its own
  histograms.
- **durable per-partition stage metrics**: the fused flagship records
  parse/chain/enrich wall-ms and chain-cache counters into the sink's
  lineage manifest (one atomic JSON per partition), so cross-process
  stage timings survive restarts and need no metrics actor in the hot
  path — a pull model over artifacts the engine already commits.
- :class:`EngineMetrics` folds both tiers plus the streaming
  checkpoint's ``cycle_metrics`` into ONE queryable summary; the CLI
  exposes it as ``python -m imagor_ray metrics --sink DIR [--state DIR]``.
"""

from __future__ import annotations

from collections import defaultdict

__all__ = ["inc", "get", "snapshot", "reset", "EngineMetrics"]

_COUNTERS: dict[str, int] = defaultdict(int)


def inc(name: str, n: int = 1) -> None:
    """Add ``n`` to the process-local counter ``name`` (cheap; call once
    per batch, not per row)."""
    _COUNTERS[name] += n


def get(name: str) -> int:
    return _COUNTERS[name]


def snapshot() -> dict[str, int]:
    """This process's counters (sorted for stable output)."""
    return {k: _COUNTERS[k] for k in sorted(_COUNTERS)}


def reset() -> None:
    _COUNTERS.clear()


class EngineMetrics:
    """Driver-side unified report over all metric tiers."""

    @staticmethod
    def collect(
        sink=None,
        state_dir: str | None = None,
        include_local: bool = True,
    ) -> dict:
        """One queryable summary:

        - ``sink``: partitions/rows/bytes/write-latency percentiles from
          the lineage manifests plus the summed per-partition
          ``stage_metrics`` (parse/chain/enrich ms, chain cache
          hit/miss, dead-letter counts) the flagship records;
        - ``streaming``: per-cycle metrics from ``state_dir``'s
          checkpoint (rows, late, closed, open, watermark) aggregated;
        - ``local``: this process's counter snapshot (dead-letter codes,
          chain cache counters for driver-side runs).
        """
        out: dict = {}
        if sink is not None:
            from .sink import ExactlyOnceSink

            if isinstance(sink, str):
                sink = ExactlyOnceSink(sink)
            out["sink"] = sink.metrics()
            stage_totals: dict[str, int] = defaultdict(int)
            for entry in sink.read_manifest():
                for k, v in (entry.get("stage_metrics") or {}).items():
                    stage_totals[k] += int(v)
            if stage_totals:
                out["stages"] = {k: stage_totals[k] for k in sorted(stage_totals)}
        if state_dir is not None:
            from .checkpoint import Checkpoint

            state = Checkpoint(state_dir).load()
            cycles = state.get("cycle_metrics", [])
            out["streaming"] = {
                "cycles": len(cycles),
                "rows": int(sum(c.get("rows", 0) for c in cycles)),
                "late_rows": int(sum(c.get("late", 0) for c in cycles)),
                "closed_sessions": int(sum(c.get("closed", 0) for c in cycles)),
                "open_sessions": int(cycles[-1].get("open", 0)) if cycles else 0,
                "watermark_us": int(state.get("watermark_us", 0)),
            }
        if include_local:
            out["local"] = snapshot()
        return out
