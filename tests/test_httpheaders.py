"""Ported reference expectations for the HTTP response-layer helpers.

Sources: ``imagor_test.go`` — ``TestWithCacheHeaderTTL`` (:500-568),
``TestExpire`` (:570-617) and the ETag/If-None-Match/IMS/IUS table in
the result-storage test (:950-1025). These are the reference's own
asserted strings; like the imagorpath tables, never "fix" them.
"""

from __future__ import annotations

from datetime import datetime, timedelta
from types import SimpleNamespace

import pytest

from imagor_ray.functions.httpheaders import (
    DEFAULT_SWR_S,
    DEFAULT_TTL_S,
    check_stat_not_modified,
    format_http_time,
    get_cache_control,
    get_ttl,
    parse_http_time,
    prescan_expire,
    set_cache_headers,
)
from imagor_ray.functions.imagorpath import Filter

NOW_MS = 1_700_000_000_000        # 2023-11-14 22:13:20 UTC
GO_ZERO = "Mon, 01 Jan 0001 00:00:00 GMT"   # time.Time{}.Format(http.TimeFormat)


def _headers(ttl, swr, req=None):
    return set_cache_headers(dict(req or {}), ttl, swr, NOW_MS)


class TestCacheHeaderTTL:
    """imagor_test.go:500-568 — the five asserted Cache-Control strings."""

    def test_default(self):
        cc = _headers(DEFAULT_TTL_S, DEFAULT_SWR_S)["Cache-Control"]
        assert cc == ("public, s-maxage=604800, max-age=604800, "
                      "no-transform, stale-while-revalidate=86400")

    def test_custom_ttl_swr(self):
        cc = _headers(169, 167)["Cache-Control"]
        assert cc == ("public, s-maxage=169, max-age=169, no-transform, "
                      "stale-while-revalidate=167")

    def test_custom_ttl_swr_private(self):
        cc = _headers(169, 167, req={"Cache-Control": "private"})["Cache-Control"]
        assert cc == "private, max-age=169, no-transform, stale-while-revalidate=167"

    def test_swr_equal_ttl_dropped(self):
        cc = _headers(169, 169)["Cache-Control"]
        assert cc == "public, s-maxage=169, max-age=169, no-transform"

    def test_no_cache(self):
        h = _headers(0, DEFAULT_SWR_S)
        assert h["Cache-Control"] == "private, no-cache, no-store, must-revalidate"
        assert h["Expires"]        # NotEmpty in the reference test

    def test_request_no_cache_zeroes_ttl(self):
        cc = _headers(169, 167, req={"Cache-Control": "no-cache"})["Cache-Control"]
        assert cc == "private, no-cache, no-store, must-revalidate"

    def test_expires_is_now_plus_ttl_gmt(self):
        h = _headers(169, 0)
        want = datetime(1970, 1, 1) + timedelta(milliseconds=NOW_MS, seconds=169)
        assert h["Expires"] == format_http_time(want)
        assert h["Expires"].endswith(" GMT")


class TestExpireFilter:
    """imagor_test.go:570-617 — getTtl + the pre-scan private overwrite."""

    def _serve(self, filters, req=None):
        req = dict(req or {})
        expired = prescan_expire(req, filters, NOW_MS)
        if expired:
            return 410, {}
        ttl = get_ttl(filters, 169, NOW_MS)
        return 200, set_cache_headers(req, ttl, 169, NOW_MS)

    def test_no_expire_default_public(self):
        code, h = self._serve([Filter("foo", "bar")])
        assert code == 200
        assert h["Cache-Control"] == "public, s-maxage=169, max-age=169, no-transform"

    def test_expire_one_second(self):
        code, h = self._serve([Filter("expire", str(NOW_MS + 1000)),
                               Filter("foo", "bar")])
        assert code == 200
        assert h["Cache-Control"] == "private, max-age=1, no-transform"

    def test_expire_beyond_default_clamps(self):
        code, h = self._serve([Filter("expire", str(NOW_MS + 170_000)),
                               Filter("foo", "bar")])
        assert code == 200
        assert h["Cache-Control"] == "private, max-age=169, no-transform"

    def test_expire_in_past_is_410(self):
        code, _ = self._serve([Filter("expire", str(NOW_MS - 1))])
        assert code == 410

    def test_expire_exactly_now_serves_no_store(self):
        # time.Now().After(exp) is false at equality → not expired;
        # getTtl then yields 0 → the no-store Cache-Control form.
        code, h = self._serve([Filter("expire", str(NOW_MS))])
        assert code == 200
        assert h["Cache-Control"] == "private, no-cache, no-store, must-revalidate"

    def test_expire_ceil_to_second(self):
        code, h = self._serve([Filter("expire", str(NOW_MS + 1))])
        assert code == 200
        assert h["Cache-Control"] == "private, max-age=1, no-transform"

    def test_unparseable_expire_ignored(self):
        code, h = self._serve([Filter("expire", "never")])
        assert code == 200
        assert h["Cache-Control"] == "public, s-maxage=169, max-age=169, no-transform"

    @pytest.mark.parametrize("delta_ms, want", [
        (-1, 0), (-1000, 0), (-1999, 0), (-2000, -1), (-2001, -1),
        (-5000, -4), (1, 1), (1000, 1), (1001, 2)])
    def test_get_ttl_truncates_toward_zero(self, delta_ms, want):
        # (sub + time.Second - 1).Truncate(time.Second): Go's Truncate
        # rounds toward zero, so past instants do not floor
        flt = [Filter("expire", str(NOW_MS + delta_ms))]
        assert get_ttl(flt, 169, NOW_MS) == want

    @pytest.mark.parametrize("args", [
        "1_700000001000", " 1700000001000", "1700000001000 ", "+", "",
        "9223372036854775808", "-9223372036854775809", "\u0661\u0667"])
    def test_non_parseint_expire_ignored(self, args):
        # strconv.ParseInt(args, 10, 64) rejects these, so the reference
        # neither 410s nor marks the request private
        req = {}
        assert prescan_expire(req, [Filter("expire", args)], NOW_MS) is False
        assert req == {}
        assert get_ttl([Filter("expire", args)], 169, NOW_MS) == 169

    def test_signed_expire_parses(self):
        code, h = self._serve([Filter("expire", "+" + str(NOW_MS + 1000))])
        assert code == 200
        assert h["Cache-Control"] == "private, max-age=1, no-transform"

    def test_valid_expire_overwrites_request_no_cache(self):
        # Header.Set semantics: the pre-scan REPLACES a client
        # no-cache with private — reference quirk, kept verbatim.
        code, h = self._serve([Filter("expire", str(NOW_MS + 5000))],
                              req={"Cache-Control": "no-cache"})
        assert code == 200
        assert h["Cache-Control"] == "private, max-age=5, no-transform"


class TestStatNotModified:
    """imagor_test.go:950-1025 — the conditional-request decision table."""

    MTIME = datetime(2023, 11, 14, 22, 13, 20)

    def _stat(self, etag=""):
        return SimpleNamespace(etag=etag, size=3, mtime=self.MTIME)

    def test_etag_match_304(self):
        stat = self._stat()
        _, h = check_stat_not_modified({}, stat)
        etag = h["ETag"]
        nm, h2 = check_stat_not_modified({"If-None-Match": etag}, stat)
        assert nm and h2["ETag"] == etag

    def test_etag_match_with_no_cache_bypasses(self):
        stat = self._stat()
        _, h = check_stat_not_modified({}, stat)
        nm, h2 = check_stat_not_modified(
            {"If-None-Match": h["ETag"], "Cache-Control": "no-cache"}, stat)
        assert not nm and h2 == {}

    def test_wrong_etag_200(self):
        nm, _ = check_stat_not_modified({"If-None-Match": "abcd"}, self._stat())
        assert not nm

    def test_ims_future_304(self):
        ims = format_http_time(self.MTIME + timedelta(hours=1))
        nm, _ = check_stat_not_modified({"If-Modified-Since": ims}, self._stat())
        assert nm

    def test_ims_zero_time_200(self):
        nm, _ = check_stat_not_modified({"If-Modified-Since": GO_ZERO}, self._stat())
        assert not nm

    def test_ius_zero_time_304(self):
        # the reference's If-Unmodified-Since quirk: mtime AFTER the
        # instant → treated as not-modified (its own test pins this)
        nm, _ = check_stat_not_modified({"If-Unmodified-Since": GO_ZERO}, self._stat())
        assert nm

    def test_fallback_etag_format(self):
        # fmt.Sprintf("%x-%x", mtime.Unix(), size)
        _, h = check_stat_not_modified({}, self._stat())
        assert h["ETag"] == f"{1_700_000_000:x}-{3:x}"

    def test_explicit_etag_preferred(self):
        nm, h = check_stat_not_modified({"If-None-Match": 'W/"x"'},
                                        self._stat(etag='W/"x"'))
        assert nm and h["ETag"] == 'W/"x"'

    def test_none_stat_never_304(self):
        nm, h = check_stat_not_modified({"If-None-Match": "x"}, None)
        assert not nm and h == {}

    def test_last_modified_header_set(self):
        _, h = check_stat_not_modified({}, self._stat())
        assert h["Last-Modified"] == format_http_time(self.MTIME)


class TestHttpTime:
    def test_round_trip(self):
        dt = datetime(2026, 8, 20, 7, 5, 9)
        assert parse_http_time(format_http_time(dt)) == dt

    def test_known_vector(self):
        assert format_http_time(datetime(1994, 11, 6, 8, 49, 37)) == \
            "Sun, 06 Nov 1994 08:49:37 GMT"   # RFC 9110 §5.6.7 example

    def test_zero_time_round_trip(self):
        assert parse_http_time(GO_ZERO) == datetime(1, 1, 1)

    def test_garbage_is_none(self):
        assert parse_http_time("not a date") is None
        assert parse_http_time("Sun, 06 Nov 1994 08:49:37 UTC") is None
