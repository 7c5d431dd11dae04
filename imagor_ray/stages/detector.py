"""Pluggable Detector interface + actor-pool stage — the engine mirror of
the reference's detector plugin surface (``detector.go:26-36``:
``Startup/Detect/Shutdown`` with normalised regions, wired into a
processor via ``AddDetector``).

A Detector is the model slot: loaded ONCE per actor/worker-process
(``startup``), invoked per text (``detect``) or vectorized over a Series
(``replace_spans``), released on teardown (``shutdown``). The default
:class:`DigitRunDetector` reproduces round 1's deterministic digit-run
regions bit-for-bit (the ``redact``/``draw_detections`` oracles stay
green through this interface); a deployment swaps in a model detector
with :func:`register_detector` — exactly the reference's plugin path.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np
import pandas as pd

__all__ = [
    "Detector",
    "DigitRunDetector",
    "DetectorStage",
    "register_detector",
    "make_detector",
    "DETECTORS",
]

#: (start, end, name, confidence) — the text-domain DetectorRegion
Region = tuple


class Detector:
    """Base detector (detector.go:26-36). Subclass and override
    ``startup``/``detect``; optionally override ``replace_spans`` with a
    vectorized form and ``focal`` to drive smart crops."""

    name = "detector"
    startup_count = 0  # class-level: asserts one-time init per actor

    def startup(self) -> None:
        type(self).startup_count += 1

    def shutdown(self) -> None:
        pass

    def detect(self, text: str) -> list[Region]:
        raise NotImplementedError

    def focal(self, text: str) -> float | None:
        """Normalised [0,1] focal centre for smart crops, or None to let
        the chain fall back to its inline heuristic
        (process.go:577-587)."""
        return None

    def replace_spans(self, s: pd.Series, repl: Callable[[str], str]) -> pd.Series:
        """Replace every detected span via ``repl`` — generic per-row
        form; override when the detector can vectorize."""

        def one(t: str) -> str:
            spans = self.detect(t)
            if not spans:
                return t
            out, prev = [], 0
            for span in spans:
                start, end = span[0], span[1]
                out.append(t[prev:start])
                out.append(repl(t[start:end]))
                prev = end
            out.append(t[prev:])
            return "".join(out)

        return s.map(one)


def _may_hold_digit(t: str) -> bool:
    # ``str.isascii`` raises TypeError on a non-str row
    return (not str.isascii(t) or "0" in t or "1" in t or "2" in t
            or "3" in t or "4" in t or "5" in t or "6" in t or "7" in t
            or "8" in t or "9" in t)


class DigitRunDetector(Detector):
    """Round-1 deterministic detector: digit runs as regions, confidence
    1.0 (SQL-parity: ``\\d+``). The vectorized ``replace_spans`` is the
    exact code path the redact/draw kernels used before the interface
    existed — outputs are bit-identical."""

    name = "digit-run"
    startup_count = 0

    def startup(self) -> None:
        super().startup()
        self._re = re.compile(r"\d+")

    def detect(self, text: str) -> list[Region]:
        return [(m.start(), m.end(), "digit-run", 1.0) for m in self._re.finditer(text)]

    def replace_spans(self, s: pd.Series, repl: Callable[[str], str]) -> pd.Series:
        def sub(x: pd.Series) -> pd.Series:
            return x.str.replace(self._re, lambda m: repl(m.group(0)), regex=True)

        if s.dtype != object:
            return sub(s)
        # the per-row regex runs only on the rows it can change: ASCII
        # rows holding an ASCII digit (ten memchr scans) and non-ASCII
        # rows (``\d`` also matches Unicode Nd digits). A series with a
        # non-str row takes it whole, as pandas' ``.str`` decides what
        # such a row becomes from the whole series
        try:
            hit = np.fromiter(map(_may_hold_digit, s), bool, len(s))
        except TypeError:
            return sub(s)
        out = s.copy()
        out[hit] = sub(s[hit]).to_numpy()
        return out


DETECTORS: dict[str, Callable[[], Detector]] = {}


def register_detector(name: str, factory: Callable[[], Detector]) -> None:
    """Plugin hook (DetectorAdder, detector.go:33-36)."""
    DETECTORS[name] = factory


register_detector("digit-run", DigitRunDetector)


def make_detector(spec: "str | Detector | Callable[[], Detector] | None") -> Detector:
    """Resolve a detector spec (registry name / instance / factory /
    None→default), run ``startup`` exactly once, return the live
    instance."""
    if spec is None:
        spec = "digit-run"
    if isinstance(spec, str):
        det = DETECTORS[spec]()
    elif isinstance(spec, Detector):
        det = spec
    else:
        det = spec()
    det.startup()
    return det


class DetectorStage:
    """Actor-pool ``map_batches`` callable producing a ``detections``
    column (list of (start, end, name, confidence) tuples per row) —
    the standalone detector stage shape: model loaded once per actor in
    ``__init__``, batch work in ``__call__``, released in ``__del__``
    (detector.go lifecycle; SURVEY §2.4).

    Use::

        ds.map_batches(DetectorStage, fn_constructor_kwargs={
            "detector": "digit-run"}, batch_format="pandas",
            concurrency=N, batch_size=B)
    """

    def __init__(self, detector: "str | Callable[[], Detector] | None" = None,
                 text_col: str = "text"):
        self._det = make_detector(detector)
        self._text_col = text_col

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        det = self._det
        batch["detections"] = [det.detect(t) for t in batch[self._text_col].astype(str)]
        batch["n_detections"] = (
            batch["detections"].map(len).astype("int64")
        )
        return batch

    def __del__(self):
        try:
            self._det.shutdown()
        except Exception:
            pass
