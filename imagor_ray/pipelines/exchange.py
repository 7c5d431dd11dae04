"""Raw two-stage hash exchange — the hand-rolled counterpart of
``ds.groupby(bucket_col).map_groups(fn)`` for a small-cardinality
integer bucket key already present on every row.

Why it exists (BENCH.md finding 20): Ray Data's sort-based shuffle pays
a per-execution fixed cost (quantile sampling, boundary exchange,
executor planning) that dominates short executions — measured 1.57×
end-to-end on 1M-row streaming cycles. The exchange moves the same
bytes through the same object store, but as plain tasks: map tasks
split each block into ``nb`` bucket shards with one argsort+slice
(``num_returns=nb`` — only O(blocks × buckets) object refs ever cross
the driver, never rows), reduce tasks concat their column of shards and
run the grouped function. Byte-identical outputs are asserted in tests
wherever a pipeline offers both engines.

Partitioning assumption: ``bucket_col`` holds ints in ``[0, nb)`` and a
group's rows are exactly the rows sharing its bucket value — identical
to what the groupby engine guarantees. The flagship offers it beside
Ray Data's groupby as ``engine='tasks'``; the session stream runs its
large cycles on a private copy of the same split/reduce. The
keyed-stream runtime uses no exchange: its buckets run in a driver
loop, which beat this exchange on its workload at 1 and 4 Ray CPUs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = ["hash_exchange", "bucket_split", "shard_refs"]

_FNS = None


def _fns():
    global _FNS
    if _FNS is not None:
        return _FNS
    import ray

    @ray.remote
    def split_block(tbl, nb: int, bucket_col: str):
        # fully-filtered blocks arrive schema-less; they split into
        # empty shards the reducer's num_rows guard drops
        b = (tbl[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
             if tbl.num_rows else np.zeros(0, np.int64))
        return bucket_split(tbl, b, nb)

    @ray.remote
    def reduce_bucket(fn, *parts):
        import pyarrow as pa

        parts = [p for p in parts if p.num_rows]
        if not parts:
            return None          # empty bucket → no group, like groupby
        return fn(pa.concat_tables(parts).to_pandas())

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


def shard_refs(split_task, nb: int, *args) -> list:
    """Launch ``split_task`` with ``num_returns=nb`` and return its
    ``nb`` shard refs as a list (Ray hands back a bare ref for 1)."""
    refs = split_task.options(num_returns=nb).remote(*args)
    return refs if nb > 1 else [refs]


def hash_exchange(ds, nb: int, grouped_fn, bucket_col: str = "_bucket"
                  ) -> pd.DataFrame:
    """Run ``grouped_fn`` once per non-empty bucket of ``ds`` (a Ray
    Dataset whose rows carry ``bucket_col`` ints in ``[0, nb)``) and
    return the concatenated pandas outputs. Triggers execution of
    ``ds`` (block refs are taken as Arrow tables)."""
    import ray

    split_block, reduce_bucket = _fns()
    refs = ds.to_arrow_refs()
    shards = [shard_refs(split_block, nb, r, nb, bucket_col) for r in refs]
    outs = ray.get([
        reduce_bucket.remote(grouped_fn, *[s[b] for s in shards])
        for b in range(nb)
    ])
    outs = [o for o in outs if o is not None]
    return (pd.concat(outs, ignore_index=True) if outs
            else pd.DataFrame())
