"""The traced benchmark run wraps engine callables by name
(``perfbench/trace.py`` ``TARGETS`` and ``install_driver_hooks``): every
name it looks up must resolve the way it looks it up, so a refactor
cannot silently break ``perfbench/run.py --trace 1``."""

from __future__ import annotations

import importlib

import pytest

from perfbench.trace import TARGETS


@pytest.mark.parametrize("mod_name,path,span", TARGETS,
                         ids=[t[1] for t in TARGETS])
def test_trace_target_resolves(mod_name, path, span):
    mod = importlib.import_module(mod_name)
    if "." in path:
        cls_name, attr = path.split(".")
        # install() reads the class's own __dict__, not an inherited one
        raw = getattr(mod, cls_name).__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    else:
        fn = getattr(mod, path)
    assert callable(fn)


def test_exchange_remote_functions_resolve():
    from imagor_ray.pipelines import exchange, streaming

    assert callable(exchange._fns)
    assert callable(streaming._exchange_fns)
