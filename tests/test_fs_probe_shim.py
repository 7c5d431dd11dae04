"""Regression tests for the Ray `_is_http_filesystem` ImportError shim.

Environment fact (round-3 verdict): `aiohttp` is absent here, so
`fsspec.implementations.http` cannot import. Ray guards the probe with
`except ModuleNotFoundError`, but a *racing concurrent* import leaves a
partially-initialised module in `sys.modules`, and the next
`from fsspec.implementations.http import HTTPFileSystem` raises plain
`ImportError` ("cannot import name ..."), which escaped out of
`read_parquet` (the large-cycle read, imagor_ray/pipelines/streaming.py
`_cycle_prelude`) and flaked `tests/test_streaming.py` ~50% of
full-suite runs.

`imagor_ray/__init__._harden_ray_http_fs_probe` rebinds the probe to treat
any ImportError as "not an HTTP filesystem". These tests pin (a) the shim is
installed on package import, (b) it swallows the exact racy ImportError
shape, and (c) the large-cycle streaming path survives repeated runs in
one session even with the race deterministically forced.
"""

from __future__ import annotations

import sys
import types

import pandas as pd
import pytest

import imagor_ray  # noqa: F401  - applies the shim on import
from ray.data.datasource import path_util as _pu


def test_shim_installed_on_package_import():
    assert getattr(_pu._is_http_filesystem, "_imagor_ray_hardened", False)
    # idempotent: re-applying must not double-wrap
    before = _pu._is_http_filesystem
    imagor_ray._harden_ray_http_fs_probe()
    assert _pu._is_http_filesystem is before


def _poison_http_module(monkeypatch):
    """Install a partially-initialised fsspec.implementations.http module —
    exactly what a racing thread observes mid-import: the module object is
    in sys.modules but HTTPFileSystem is not yet bound, so
    `from ... import HTTPFileSystem` raises ImportError (NOT
    ModuleNotFoundError)."""
    mod = types.ModuleType("fsspec.implementations.http")
    monkeypatch.setitem(sys.modules, "fsspec.implementations.http", mod)


def test_probe_swallows_racy_import_error(monkeypatch):
    import pyarrow.fs as pafs

    _poison_http_module(monkeypatch)
    # sanity: the poisoned module really raises the racy shape
    with pytest.raises(ImportError) as ei:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401
    assert not isinstance(ei.value, ModuleNotFoundError)

    # the shimmed probe must return False instead of propagating
    assert _pu._is_http_filesystem(pafs.LocalFileSystem()) is False

    # and the unshimmed original must reproduce the escape (guards against
    # this test passing vacuously if ray ever fixes it upstream — then the
    # shim and this file can be retired together)
    orig = _pu._is_http_filesystem._imagor_ray_orig
    try:
        orig(pafs.LocalFileSystem())
    except ImportError:
        pass  # expected on current ray; shim still required
    else:
        pytest.skip("upstream ray now tolerates ImportError; shim redundant")


def test_read_parquet_survives_poisoned_http_module(
    ray_session, tmp_path, monkeypatch
):
    """End-to-end: a local parquet read goes through Ray's path resolution
    (which calls the probe) and must succeed with the race forced."""
    import ray.data as rd

    p = tmp_path / "t.parquet"
    pd.DataFrame({"a": [1, 2, 3]}).to_parquet(p)
    _poison_http_module(monkeypatch)
    out = rd.read_parquet(str(p)).to_pandas()
    assert out["a"].tolist() == [1, 2, 3]


class TestDatasetCycleStress:
    """Flake repro: the large-cycle streaming path (pinned
    ``read_parquet`` + hash exchange) run several times in one session
    (the failure was intermittent under concurrent executor-thread
    imports). With the shim this must be deterministic."""

    def test_dataset_cycle_repeated(self, ray_session, tmp_path, monkeypatch):
        from imagor_ray.pipelines.streaming import (
            StreamingFlagshipJob,
            StreamingSessionJob,
        )
        from tests.test_streaming import write_stream

        _poison_http_module(monkeypatch)

        batches = [
            [("a", "2024-01-01 00:00:00"), ("b", "2024-01-01 00:05:00")],
            [("a", "2024-01-01 02:00:00"), ("c", "2024-01-01 03:00:00")],
            [("d", "2024-01-02 00:00:00")],
        ]
        old = StreamingSessionJob.RAY_CYCLE_THRESHOLD
        try:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = 0  # force the exchange
            sha = None
            for i in range(5):
                root = tmp_path / f"run{i}"
                root.mkdir()
                s = write_stream(root, batches)
                job = StreamingFlagshipJob(
                    s, str(root / "out"), gap_s=1800, num_buckets=2
                )
                job.run_all()
                job.flush()
                got = job.processed_sha1()
                if sha is None:
                    sha = got
                assert got == sha, f"run {i} diverged"
        finally:
            StreamingSessionJob.RAY_CYCLE_THRESHOLD = old
