"""Raw two-stage hash exchange — the engine's one hand-rolled
counterpart of ``ds.groupby(key).map_groups(fn)`` for a
small-cardinality integer bucket key.

Why it exists (BENCH.md finding 20): Ray Data's sort-based shuffle pays
a per-execution fixed cost (quantile sampling, boundary exchange,
executor planning) that dominates short executions — measured 1.57×
end-to-end on 1M-row streaming cycles. The exchange moves the same
bytes through the same object store, but as plain tasks:

- ONE split task per Arrow block runs a map-side key
  ``key(tbl) → (rows, buckets)`` and splits ``rows`` into ``nb`` bucket
  shards with one argsort+slice (``num_returns=nb`` — only
  O(blocks × buckets) object refs ever cross the driver, never rows);
- ONE reduce task per bucket concatenates its column of shards and
  calls ``fn(*bucket_args, rows)``, ``rows`` None for an empty bucket.
  A bucket's args are top-level task arguments, so Ray resolves an
  ObjectRef among them (the session stream chains the previous cycle's
  reducer output into the next cycle's this way) before the call.

Callers: the flagship's ``engine='tasks'`` (:func:`hash_exchange`; key:
its ``_bucket`` column; byte-identical to the groupby engine in tests)
and the session stream's large cycles (key: the on-time rows by
``crc32(conv_id) % nb``). The keyed-stream runtime uses no exchange:
its cycles run in a driver loop, which beat this exchange on its
workload at 1 and 4 Ray CPUs.
"""

from __future__ import annotations

import functools

import numpy as np
import pandas as pd

__all__ = ["hash_exchange", "exchange_refs"]

_FNS = None


def _fns():
    global _FNS
    if _FNS is not None:
        return _FNS
    import ray

    @ray.remote
    def split_block(tbl, key, nb: int):
        rows, b = key(tbl)
        return bucket_split(rows, b, nb)

    @ray.remote
    def reduce_bucket(fn, nargs: int, *args):
        import pyarrow as pa

        parts = [p for p in args[nargs:] if p.num_rows]
        rows = pa.concat_tables(parts).to_pandas() if parts else None
        return fn(*args[:nargs], rows)

    _FNS = (split_block, reduce_bucket)
    return _FNS


def bucket_split(t, b: np.ndarray, nb: int):
    """A split task's return value: the rows of Arrow table ``t`` by
    bucket ``b`` (ints in ``[0, nb)``) as ``nb`` slices — or the lone
    slice when ``nb == 1``, because Ray stores a ``num_returns=1``
    result as ONE object (a one-element list would reach the reducer
    as a list)."""
    import pyarrow as pa

    order = np.argsort(b, kind="stable")
    t = t.take(pa.array(order))
    bounds = np.searchsorted(b[order], np.arange(nb + 1))
    shards = [t.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
              for i in range(nb)]
    return shards if nb > 1 else shards[0]


def exchange_refs(blocks, nb: int, key, fn, bucket_args,
                  num_returns: int = 1) -> list:
    """Launch the exchange without waiting: one split task per Arrow
    block ref of ``blocks`` (map-side ``key``), then one reduce task per
    bucket calling ``fn(*bucket_args[b], rows)``. Returns the ``nb``
    reduce refs — each a list of ``num_returns`` refs when ``fn``
    returns that many values, so a caller can fetch one and chain
    another."""
    split_block, reduce_bucket = _fns()
    split = split_block.options(num_returns=nb)
    shards = [split.remote(r, key, nb) for r in blocks]
    if nb == 1:  # Ray hands back a bare ref, not a list, for one return
        shards = [[s] for s in shards]
    reduce = reduce_bucket.options(num_returns=num_returns)
    return [reduce.remote(fn, len(a), *a, *[s[b] for s in shards])
            for b, a in enumerate(bucket_args)]


def _column_key(col: str, tbl):
    """Map-side key of a table whose rows carry their bucket in ``col``.
    Fully-filtered blocks arrive schema-less; they split into empty
    shards."""
    b = (tbl[col].to_numpy(zero_copy_only=False).astype(np.int64)
         if tbl.num_rows else np.zeros(0, np.int64))
    return tbl, b


def _grouped(grouped_fn, rows):
    # an empty bucket is no group, as under groupby
    return None if rows is None else grouped_fn(rows)


def hash_exchange(ds, nb: int, grouped_fn, bucket_col: str = "_bucket"
                  ) -> pd.DataFrame:
    """Run ``grouped_fn`` once per non-empty bucket of ``ds`` (a Ray
    Dataset whose rows carry ``bucket_col`` ints in ``[0, nb)``) and
    return the concatenated pandas outputs. Triggers execution of
    ``ds`` (block refs are taken as Arrow tables)."""
    import ray

    outs = ray.get(exchange_refs(
        ds.to_arrow_refs(), nb, functools.partial(_column_key, bucket_col),
        _grouped, [(grouped_fn,)] * nb))
    outs = [o for o in outs if o is not None]
    return (pd.concat(outs, ignore_index=True) if outs
            else pd.DataFrame())
