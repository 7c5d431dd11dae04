"""Parse → authenticate → rewrite → key stage: the engine analogue of the
request-side steps of ``Imagor.Do`` (``imagor.go:275-398``):

1. assign each turn its imagor request path (deterministic template per
   tool — the flagship workload's request generator);
2. parse the path to ``Params`` (``imagor.go:198``);
3. utility-filter pre-scan + canonical path regeneration
   (``imagor.go:308-338, 377-379``);
4. HMAC sign the canonical path (SHA-256, per the north star) — the
   signature is both the auth hash (``imagor.go:283-302``) and part of
   the exactly-once sink key ``(conv_id, turn_idx, signature)``
   (``imagor.go:388-398``);
5. signature verification with dead-letter routing for mismatches
   (``ErrSignatureMismatch``, ``imagor.go:294-302``; error model
   ``errors.go:15-114`` → error-column routing).

Vectorization: each tool maps to one of five path *templates*; the
template prefix is parsed and canonicalized ONCE per stage instance and
the per-row canonical path is a vectorized string concat (the image key
``conv_id/turn_idx`` needs no escaping). ``tests/test_pipeline_ray.py``
asserts the fast path equals the full per-row parse→generate round trip.
Only the HMAC itself is per-row (a ~1µs C call).
"""

from __future__ import annotations

import pandas as pd

from ..functions import imagorpath as ip
from ..stages.chain import prescan_utility_filters

__all__ = ["PATH_TEMPLATES", "ParseSignStage", "DEFAULT_SECRET"]

DEFAULT_SECRET = "imagor-ray-secret"

#: tool → imagor path template; ``{img}`` is the image key. These exercise
#: trim/resize/fit-in/stretch/align plus grayscale, redact, brightness,
#: max_bytes, label, watermark — each template is SQL-expressible so the
#: DuckDB oracle can recompute the full chain output.
PATH_TEMPLATES = {
    "signup": "trim/200x0/left/filters:grayscale():max_bytes(160)/{img}",
    "click": "fit-in/160x0/left/filters:redact():brightness(20)/{img}",
    "view": "filters:grayscale():label(VIEW,right)/{img}",
    "purchase": "stretch/120x0/left/filters:watermark(purchase,right)/{img}",
    "error": "trim/filters:redact():format(hex)/{img}",
}


class ParseSignStage:
    """``map_batches`` callable (stateless tasks are fine; template
    compilation is module-level cheap work re-done per worker once via
    instance reuse).

    Auto-format negotiation (imagor.go:339-376): when the batch carries
    an ``accept`` column, rows whose template sets no ``format(...)``
    get ``format(accept)`` appended to their canonical path (so the
    signature and chain output change with it) and are Vary-marked.
    ``preview()`` templates flag their rows for sink bypass
    (imagor.go:328-329, 389)."""

    def __init__(self, secret: str = DEFAULT_SECRET, verify: bool = True,
                 templates: dict[str, str] | None = None):
        self.signer = ip.HMACSigner("sha256", 0, secret)
        self.verify = verify
        self.templates = templates or PATH_TEMPLATES
        # canonical prefix per tool: parse the template once with a
        # placeholder, regenerate, and strip the placeholder suffix.
        self._prefix: dict[str, str] = {}
        self._chain_path: dict[str, str] = {}
        self._preview: dict[str, bool] = {}
        self._has_format: dict[str, bool] = {}
        self._default_tool = "view" if "view" in self.templates else next(iter(self.templates))
        for tool, tpl in self.templates.items():
            placeholder = "IMGKEY"
            p = ip.parse(tpl.format(img=placeholder))
            q, util = prescan_utility_filters(p)
            canonical = q.path
            assert canonical.endswith("/" + placeholder)
            self._prefix[tool] = canonical[: -len(placeholder)]
            # chain key: canonical path with the image stripped — groups
            # rows of the same template for vectorized chain execution
            self._chain_path[tool] = self._prefix[tool].rstrip("/")
            self._preview[tool] = bool(util["preview"])
            self._has_format[tool] = bool(util["format"])
        self._any_preview = any(self._preview.values())
        # per-(tool, accept) auto-format prefix cache (imagor.go:339-376)
        self._af_prefix: dict[tuple[str, str], tuple[str, str, bool]] = {}

    def _accept_prefix(self, tool: str, accept: str) -> tuple[str, str, bool]:
        """(path_prefix, chain_path, vary) for one (tool, accept) pair —
        computed once, reused for every row of the pair."""
        key = (tool, accept)
        hit = self._af_prefix.get(key)
        if hit is not None:
            return hit
        from .errors import auto_format_path

        base_chain = self._chain_path.get(tool, self._chain_path[self._default_tool])
        new_chain, vary = auto_format_path(base_chain, accept)
        if vary:
            prefix = new_chain + "/"
            out = (prefix, new_chain, True)
        else:
            out = (
                self._prefix.get(tool, self._prefix[self._default_tool]),
                base_chain, False,
            )
        self._af_prefix[key] = out
        return out

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        img = batch["conv_id"].str.cat(batch["turn_idx"].astype(str), sep="/")
        default = self._default_tool
        if "accept" in batch.columns:
            pairs = pd.Series(
                list(zip(batch["tool"], batch["accept"].fillna(""))),
                index=batch.index,
            )
            resolved = pairs.map(lambda ta: self._accept_prefix(ta[0], ta[1]))
            batch["path"] = resolved.map(lambda r: r[0]).str.cat(img)
            batch["chain_path"] = resolved.map(lambda r: r[1])
            batch["vary"] = resolved.map(lambda r: r[2]).astype(bool)
        else:
            prefix = batch["tool"].map(self._prefix).fillna(self._prefix[default])
            batch["path"] = prefix.str.cat(img)
            batch["chain_path"] = batch["tool"].map(self._chain_path).fillna(
                self._chain_path[default]
            )
        if self._any_preview:
            batch["preview"] = (
                batch["tool"].map(self._preview).fillna(False).astype(bool)
            )
        sign = self.signer.sign
        batch["signature"] = [sign(p) for p in batch["path"].tolist()]
        if self.verify:
            # recompute+compare (imagor.go:294-302). Externally-supplied
            # requests carry their claimed signature in a ``hash`` column;
            # a mismatch marks the row for dead-letter routing
            # (ErrSignatureMismatch, errors.go → stages/errors.route).
            # Paths generated-and-signed in this stage (no ``hash``
            # column) are self-signed and trivially valid.
            if "hash" in batch.columns:
                claimed = batch["hash"]
                batch["sig_ok"] = (claimed.isna() | (claimed == batch["signature"])).to_numpy()
            else:
                batch["sig_ok"] = True
        return batch


# per-worker-process singleton so parse/sign can run as stateless map
# tasks (templates compile once per process, not per batch)
_STAGE_CACHE: dict[tuple, ParseSignStage] = {}


def parse_sign_batch(
    batch: pd.DataFrame, secret: str = DEFAULT_SECRET, verify: bool = True,
    templates: dict[str, str] | None = None,
) -> pd.DataFrame:
    key = (secret, verify,
           tuple(sorted(templates.items())) if templates else None)
    stage = _STAGE_CACHE.get(key)
    if stage is None:
        stage = _STAGE_CACHE.setdefault(
            key, ParseSignStage(secret, verify, templates=templates)
        )
    return stage(batch)
