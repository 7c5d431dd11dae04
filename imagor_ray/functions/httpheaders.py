"""HTTP response-layer semantics — exact behavioral ports of the
reference's cache-header and conditional-request helpers, the one
reference API surface (``imagor.go:886-1030``) that previously had no
analogue here:

- :func:`get_cache_control` ← ``getCacheControl`` (imagor.go:1015-1030):
  the Cache-Control value grammar (public s-maxage / private / the
  no-store form at ttl 0, the ``swr < ttl`` inclusion rule);
- :func:`get_ttl` ← ``getTtl`` (imagor.go:989-1003): ``expire(ms)``
  filter → ceil-to-second TTL, adopted only when ≤ the default;
- :func:`set_cache_headers` ← ``setCacheHeaders`` (imagor.go:1005-1013):
  request ``Cache-Control: no-cache`` zeroes the TTL; ``Expires`` is
  RFC 1123 with the UTC→GMT replace; request ``private`` propagates;
- :func:`prescan_expire` ← the serve-path filter pre-scan
  (imagor.go:313-322): a parseable ``expire`` whose instant is already
  past is ERR_EXPIRED (410); a still-valid one OVERWRITES the request
  Cache-Control to exactly ``private`` (Header.Set semantics — a
  client ``no-cache`` is deliberately replaced, reference quirk kept);
- :func:`check_stat_not_modified` ← ``checkStatNotModified``
  (imagor.go:957-987): ETag / If-None-Match, Last-Modified /
  If-Modified-Since (304 iff mtime strictly before IMS), the
  If-Unmodified-Since quirk (304 when mtime is AFTER IUS — ported
  as-is, pinned by the reference's own test table), the
  ``{mtime:x}-{size:x}`` fallback ETag, and the request
  ``no-cache`` bypass.

Ported expectations live in ``tests/test_httpheaders.py`` (the
reference's ``TestWithCacheHeaderTTL`` / ``TestExpire`` /
``TestSuppression``-adjacent 304 table, imagor_test.go:500-617 and
:950-1025). Dates are formatted/parsed with Go's fixed English
``http.TimeFormat`` — locale-independent by construction.

Engine integration: the client-side mirror of these semantics is
``sources/loader.py``'s :class:`CachingTransport`; the server-side
response grammar here feeds the ``response_cache_headers`` catalog
entry (oracle-verified against DuckDB string/interval arithmetic).
"""

from __future__ import annotations

import re
from datetime import datetime, timedelta, timezone

__all__ = [
    "DEFAULT_TTL_S", "DEFAULT_SWR_S",
    "get_cache_control", "get_ttl", "set_cache_headers",
    "prescan_expire", "check_stat_not_modified",
    "format_http_time", "parse_http_time",
]

# Reference defaults (imagor.go New(): CacheHeaderTTL 7d, SWR 1d —
# asserted by TestWithCacheHeaderTTL's "default" arm).
DEFAULT_TTL_S = 7 * 24 * 3600       # 604800
DEFAULT_SWR_S = 24 * 3600           # 86400

_INT_RE = re.compile(r"[+-]?[0-9]+")


def _parse_int64(args) -> int | None:
    """``strconv.ParseInt(args, 10, 64)``: optional sign + ASCII digits,
    int64 range — no underscores, whitespace or overflow (which
    Python's ``int()`` would accept). None when unparseable."""
    if not isinstance(args, str) or not _INT_RE.fullmatch(args):
        return None
    v = int(args)
    return v if -(1 << 63) <= v < (1 << 63) else None


_DAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]
_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_MONTH_NO = {m: i + 1 for i, m in enumerate(_MONTHS)}


def format_http_time(dt: datetime) -> str:
    """Go ``http.TimeFormat`` (``Mon, 02 Jan 2006 15:04:05 GMT``) with
    hardcoded English names — also what ``time.RFC1123`` prints for a
    UTC instant after the reference's UTC→GMT replace."""
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return (f"{_DAYS[dt.weekday()]}, {dt.day:02d} {_MONTHS[dt.month - 1]} "
            f"{dt.year:04d} {dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} GMT")


def parse_http_time(s: str) -> "datetime | None":
    """Parse ``http.TimeFormat``; None on mismatch (the reference
    silently ignores unparseable conditional headers). Handles year
    0001 (Go's zero time) which strptime-based parses also accept but
    locale-dependent ones would not."""
    try:
        parts = s.strip().split()
        if len(parts) != 6 or parts[5] != "GMT":
            return None
        day = int(parts[1])
        month = _MONTH_NO[parts[2]]
        year = int(parts[3])
        hh, mm, ss = (int(x) for x in parts[4].split(":"))
        return datetime(year, month, day, hh, mm, ss)
    except (ValueError, KeyError, IndexError):
        return None


def get_cache_control(is_private: bool, ttl_s: int, swr_s: int) -> str:
    """Port of ``getCacheControl`` (imagor.go:1015-1030)."""
    if ttl_s == 0:
        return "private, no-cache, no-store, must-revalidate"
    val = "private" if is_private else f"public, s-maxage={ttl_s}"
    val += f", max-age={ttl_s}, no-transform"
    if 0 < swr_s < ttl_s:
        val += f", stale-while-revalidate={swr_s}"
    return val


def get_ttl(filters, default_ttl_s: int, now_ms: int) -> int:
    """Port of ``getTtl`` (imagor.go:989-1003): the first parseable
    ``expire(ms)`` filter yields ``(expire-now)`` rounded up to a whole
    second for future instants and toward zero for past ones; adopted
    only when ≤ the default (the reference compares the computed ttl,
    which may be ≤ 0, against defaultTtl). ``filters`` is any iterable
    with ``.name`` / ``.args`` (imagorpath.Filter)."""
    for f in filters:
        if f.name == "expire":
            exp_ms = _parse_int64(f.args)
            if exp_ms is None:
                continue
            # (sub + time.Second - 1).Truncate(time.Second) in ns:
            # Truncate rounds TOWARD ZERO, so it is a ceiling only for
            # sub >= 0 (exp 1 s in the past gives 0, not -1)
            x = (exp_ms - now_ms) * 1_000_000 + 999_999_999
            ttl = x // 1_000_000_000 if x >= 0 else -(-x // 1_000_000_000)
            if ttl <= default_ttl_s:
                return ttl
    return default_ttl_s


def prescan_expire(request_headers: dict, filters, now_ms: int) -> bool:
    """The serve-path expire pre-scan (imagor.go:313-322). Returns True
    when the path is EXPIRED (→ ERR_EXPIRED / 410); otherwise a
    parseable expire OVERWRITES the request Cache-Control with exactly
    ``private`` (Go ``Header.Set`` — replaces, reference quirk kept).
    Mutates ``request_headers`` in place like the reference mutates
    the request."""
    for f in filters:
        if f.name == "expire":
            exp_ms = _parse_int64(f.args)
            if exp_ms is None:
                continue
            if now_ms > exp_ms:          # time.Now().After(exp)
                return True
            request_headers["Cache-Control"] = "private"
    return False


def set_cache_headers(request_headers: dict, ttl_s: int, swr_s: int,
                      now_ms: int) -> dict:
    """Port of ``setCacheHeaders`` (imagor.go:1005-1013): returns the
    response headers {'Expires', 'Cache-Control'}. Request
    ``no-cache`` zeroes the TTL; ``private`` propagates; Expires is
    now+ttl in RFC 1123 (GMT)."""
    req_cc = request_headers.get("Cache-Control") or ""
    if "no-cache" in req_cc:
        ttl_s = 0
    expires = (datetime(1970, 1, 1) + timedelta(milliseconds=now_ms)
               + timedelta(seconds=ttl_s))
    return {
        "Expires": format_http_time(expires),
        "Cache-Control": get_cache_control("private" in req_cc, ttl_s, swr_s),
    }


def check_stat_not_modified(request_headers: dict, stat) -> tuple[bool, dict]:
    """Port of ``checkStatNotModified`` (imagor.go:957-987).

    ``stat`` carries ``etag: str`` (may be empty), ``size: int`` and
    ``mtime: datetime | None`` (naive UTC). Returns
    ``(not_modified, response_headers)`` — response headers (ETag /
    Last-Modified) are set even on the 200 path, exactly like the
    reference writes them before deciding.
    """
    headers: dict = {}
    if stat is None or "no-cache" in (request_headers.get("Cache-Control") or ""):
        return False, headers
    etag = getattr(stat, "etag", "") or ""
    size = getattr(stat, "size", 0) or 0
    mtime = getattr(stat, "mtime", None)
    if not etag and size > 0 and mtime is not None:
        # fmt.Sprintf("%x-%x", mtime.Unix(), size)
        unix = int((mtime - datetime(1970, 1, 1)).total_seconds())
        etag = f"{unix:x}-{size:x}"
    is_etag_match = False
    if etag:
        headers["ETag"] = etag
        if request_headers.get("If-None-Match") == etag:
            is_etag_match = True
    is_not_modified = False
    if mtime is not None:
        headers["Last-Modified"] = format_http_time(mtime)
        ims = request_headers.get("If-Modified-Since")
        if ims:
            ims_t = parse_http_time(ims)
            if ims_t is not None:
                is_not_modified = mtime < ims_t      # mTime.Before(ims)
        if not is_not_modified:
            ius = request_headers.get("If-Unmodified-Since")
            if ius:
                ius_t = parse_http_time(ius)
                if ius_t is not None:
                    is_not_modified = mtime > ius_t  # mTime.After(ius)
    return is_etag_match or is_not_modified, headers
