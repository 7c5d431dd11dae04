"""Typed error model + dead-letter routing — the engine mapping of the
reference's error system (``errors.go:15-114``: typed ``Error{Message,
Code}``, sentinel errors, ``ErrForward`` processor chaining) onto error
columns and a dead-letter dataset, plus the request-side checks of
``Imagor.Do``:

- signature verification (recompute + compare, ``ErrSignatureMismatch``,
  ``imagor.go:283-302``);
- ``expire()`` event-time validity vs the watermark
  (``imagor.go:314-322, 991-1003``);
- unsupported/unparseable paths (``ErrInvalidParam``);
- auto-format negotiation (Accept-header driven conditional filter
  append + Vary marking, ``imagor.go:339-376``) — in the text domain the
  "accept" value names an export encoding and appends ``format(...)``
  when the chain doesn't already set one.

Routing model: a vectorized ``map_batches`` adds ``error_code`` (empty =
ok); ``route()`` returns the (ok, dead_letter) pair of filtered datasets.
``ErrForward`` becomes the empty code with a rewritten path column — the
row continues to the next stage like the reference's processor chain
fallthrough (``imagor.go:477-508``).
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from ..functions import imagorpath as ip
from ..functions import kernels as K

__all__ = [
    "ERR_SIGNATURE_MISMATCH",
    "ERR_EXPIRED",
    "ERR_INVALID_PARAM",
    "ERR_UNSUPPORTED_FORMAT",
    "ERR_MAX_RESOLUTION",
    "verify_batch",
    "route",
    "auto_format_path",
]

# sentinel codes mirror errors.go:15-114 (subset that applies off-HTTP)
ERR_SIGNATURE_MISMATCH = "ERR_SIGNATURE_MISMATCH"   # errors.go / imagor.go:294-302
ERR_EXPIRED = "ERR_EXPIRED"                          # imagor.go:314-322
ERR_INVALID_PARAM = "ERR_INVALID_PARAM"
ERR_UNSUPPORTED_FORMAT = "ERR_UNSUPPORTED_FORMAT"
ERR_MAX_RESOLUTION = "ERR_MAX_RESOLUTION"            # errors.go:34-35

_KNOWN_FORMATS = {"", "utf8", "txt", "text", "hex", "b64", "base64", "upper", "lower"}


def verify_batch(
    batch: pd.DataFrame,
    secret: str,
    watermark_ms: int = 0,
    path_col: str = "path",
    hash_col: str = "hash",
) -> pd.DataFrame:
    """Add ``error_code`` ('' = ok) per row:

    - recompute HMAC-SHA256 over the canonical path and compare with the
      supplied hash (unsafe rows — hash == 'unsafe' — bypass, like the
      reference's unsafe mode);
    - parse the path; unparseable → ERR_INVALID_PARAM;
    - ``expire(ts)`` filter with watermark_ms > ts → ERR_EXPIRED;
    - ``format(f)`` with unknown f → ERR_UNSUPPORTED_FORMAT;
    - requested W×H beyond the processor's resolution budget →
      ERR_MAX_RESOLUTION (``ErrMaxResolutionExceeded`` errors.go:34-35,
      checked before processing at process.go:286-288).
    """
    signer = ip.HMACSigner("sha256", 0, secret)
    codes = []
    for path, supplied in zip(batch[path_col].tolist(), batch[hash_col].tolist()):
        code = ""
        p = ip.parse(path)
        if p.image == "" and not p.filters:
            code = ERR_INVALID_PARAM
        elif supplied != "unsafe" and signer.sign(path) != supplied:
            code = ERR_SIGNATURE_MISMATCH
        elif abs(p.width) * abs(p.height) > K.MAX_RESOLUTION:
            code = ERR_MAX_RESOLUTION
        elif not _prescans(p):
            code = ERR_INVALID_PARAM
        else:
            for f in p.filters:
                if f.name == "expire":
                    try:
                        if watermark_ms > int(f.args):
                            code = ERR_EXPIRED
                            break
                    except (TypeError, ValueError):
                        code = ERR_INVALID_PARAM
                        break
                if f.name == "format" and f.args.strip().lower() not in _KNOWN_FORMATS:
                    code = ERR_UNSUPPORTED_FORMAT
                    break
        codes.append(code)
    batch["error_code"] = codes
    return batch


def _prescans(p: ip.Params) -> bool:
    """True when the utility-filter pre-scan (and the result-path
    regeneration it does) accepts ``p``; hostile paths it cannot handle
    are dead-lettered instead of crashing the chain stage."""
    from .chain import prescan_utility_filters

    try:
        prescan_utility_filters(p)
    except ValueError:          # incl. UnicodeError from path regeneration
        return False
    return True


def route(
    ds: rd.Dataset, secret: str, watermark_ms: int = 0, **cols
) -> tuple[rd.Dataset, rd.Dataset]:
    """(ok, dead_letter) split after verification. The dead-letter side
    keeps the error_code column for triage — the engine's typed-error
    surface in place of HTTP status codes."""
    verified = ds.map_batches(
        verify_batch,
        fn_kwargs={"secret": secret, "watermark_ms": watermark_ms, **cols},
        batch_format="pandas",
    )
    ok = verified.map_batches(
        lambda b: b[b["error_code"] == ""], batch_format="pandas"
    )

    def dead_split(b: pd.DataFrame) -> pd.DataFrame:
        from ..state import metrics as _metrics

        d = b[b["error_code"] != ""]
        if len(d):
            for code, n in d["error_code"].value_counts().items():
                _metrics.inc(f"dead_letter.{code}", int(n))
        return d

    dead = verified.map_batches(dead_split, batch_format="pandas")
    return ok, dead


def auto_format_path(path: str, accept: str) -> tuple[str, bool]:
    """Accept-driven conditional format append (imagor.go:339-376):
    if the chain sets no ``format(...)`` and ``accept`` names a known
    encoding, append ``format(accept)`` and mark Vary (the bool).
    Returns (possibly rewritten canonical path, vary)."""
    accept = (accept or "").strip().lower()
    if accept in ("", "utf8", "txt", "text") or accept not in _KNOWN_FORMATS:
        return path, False
    p = ip.parse(path)
    if ip.has_filter(p, "format"):
        return path, False
    p.filters = list(p.filters) + [ip.Filter("format", accept)]
    return ip.generate_path(p), True
