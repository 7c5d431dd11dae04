"""Unified engine configuration — the mapping of the reference's
flag/env config binding (``config/config.go:33-133``: every flag
``--some-name`` also binds the env var ``SOME_NAME``; CLI beats env
beats default) onto one typed surface all entry points share.

Resolution order per knob: explicit CLI value → ``IMAGOR_RAY_<NAME>``
env var → dataclass default. The CLI (``__main__.py``), bench harness
and tests all construct pipelines through :class:`EngineConfig`, so a
deployment can steer every stage (secret, buckets, chain limits,
detector, loader guards, freshness) without touching code — the
reference's functional-options + config-binding surface (SURVEY §2.8).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields

__all__ = ["EngineConfig", "ENV_PREFIX"]

ENV_PREFIX = "IMAGOR_RAY_"


def _parse(value: str, typ):
    if typ is bool:
        return value.strip().lower() in ("1", "true", "yes", "on")
    if typ is int:
        return int(value)
    if typ is float:
        return float(value)
    if typ is tuple:
        return tuple(v.strip() for v in value.split(",") if v.strip())
    return value


@dataclass
class EngineConfig:
    # signing / sink (imagor.go secret + result-storage options)
    secret: str = "imagor-ray-secret"
    num_buckets: int = 64
    check_freshness: bool = False
    source_write_through: str = ""      # raw-input checkpoint dir ('' = off)

    # windows / streaming (north rule)
    gap_s: int = 1800
    window_s: int = 3600
    allowed_lateness_s: int = 0
    salt_bucket_s: int = 0              # 0 = unsalted

    # filter chain (vipsconfig: disabled filters, MaxFilterOps, caches)
    max_filter_ops: int = 64
    disabled_filters: tuple = field(default_factory=tuple)
    chain_cache_size: int = 4096
    result_cache_bytes: int = 0
    detector: str = "digit-run"

    # guarded loader (httploader options)
    loader_allowed_sources: tuple = field(default_factory=tuple)
    loader_max_allowed_size: int = 0
    loader_max_retries: int = 2

    # dedup: 'md5' = DuckDB-oracle-parity signatures; 'fast' = vectorized
    # crc32/splitmix production kernel (same LSH topology + exact-Jaccard
    # verification; only candidate probing differs — see BENCH.md)
    minhash_mode: str = "md5"

    # workload
    replicas: int = 1

    @classmethod
    def from_env(cls, env=None) -> "EngineConfig":
        """Defaults overlaid with ``IMAGOR_RAY_<FIELD>`` env vars."""
        env = os.environ if env is None else env
        kwargs = {}
        for f in fields(cls):
            raw = env.get(ENV_PREFIX + f.name.upper())
            if raw is not None:
                typ = f.type if isinstance(f.type, type) else (
                    tuple if "tuple" in str(f.type) else
                    bool if "bool" in str(f.type) else
                    int if "int" in str(f.type) else
                    float if "float" in str(f.type) else str
                )
                kwargs[f.name] = _parse(raw, typ)
        return cls(**kwargs)

    def with_overrides(self, **overrides) -> "EngineConfig":
        """CLI layer: explicit (non-None) values beat env/defaults —
        config.go's flag-over-env precedence."""
        kwargs = {f.name: getattr(self, f.name) for f in fields(self)}
        for k, v in overrides.items():
            if v is not None:
                if k not in kwargs:
                    raise KeyError(f"unknown config knob: {k}")
                kwargs[k] = v
        return EngineConfig(**kwargs)

    def describe(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}
