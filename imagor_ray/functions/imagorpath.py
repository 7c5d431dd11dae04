"""imagor URL-path grammar: parse / generate / sign / normalize / hash.

Pure-Python re-implementation of the reference's ``imagorpath`` package
(cshum/imagor), behaviour-parity asserted by the ported test tables in
``tests/test_imagorpath.py``:

- ``parse`` / ``apply``       → reference ``imagorpath/parse.go:48-180``
- ``split_args``              → reference ``imagorpath/parse.go:185-222``
- ``parse_filters``           → reference ``imagorpath/parse.go:224-281``
- ``generate_path``           → reference ``imagorpath/generate.go:12-119``
- ``generate`` / ``generate_unsafe`` → ``imagorpath/generate.go:122-133``
- ``HMACSigner``              → reference ``imagorpath/signer.go:11-43``
- ``normalize`` / ``SafeChars`` → reference ``imagorpath/normalize.go:16-143``
- hashers                     → reference ``imagorpath/hasher.go:36-104``
- predicates                  → reference ``imagorpath/params.go:65-106``

These are scalar helper functions; the Ray Data engine applies them
vectorized inside ``map_batches`` stages (see ``imagor_ray.stages``).
No Ray imports here — this module is the zero-dependency contract layer.
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import posixpath
import re
import urllib.parse
from dataclasses import dataclass, field, replace

__all__ = [
    "Filter",
    "Params",
    "parse",
    "apply",
    "split_args",
    "parse_filters",
    "generate_path",
    "generate",
    "generate_unsafe",
    "HMACSigner",
    "new_default_signer",
    "SafeChars",
    "NOOP_SAFE_CHARS",
    "normalize",
    "digest_storage_hasher",
    "digest_result_storage_hasher",
    "suffix_result_storage_hasher",
    "size_suffix_result_storage_hasher",
    "has_crop",
    "has_filter",
    "has_cache_bypass",
    "TRIM_BY_TOP_LEFT",
    "TRIM_BY_BOTTOM_RIGHT",
]

TRIM_BY_TOP_LEFT = "top-left"
TRIM_BY_BOTTOM_RIGHT = "bottom-right"
H_ALIGN_LEFT = "left"
H_ALIGN_RIGHT = "right"
V_ALIGN_TOP = "top"
V_ALIGN_BOTTOM = "bottom"


@dataclass(frozen=True)
class Filter:
    """One named filter invocation (reference ``imagorpath/params.go:58-61``)."""

    name: str = ""
    args: str = ""


@dataclass
class Params:
    """Fully-typed parse result of an imagor URL path.

    Field-for-field equivalent of reference ``imagorpath/params.go:24-55``.
    """

    params: bool = False
    path: str = ""
    image: str = ""
    base64_image: bool = False
    unsafe: bool = False
    hash: str = ""
    meta: bool = False
    trim: bool = False
    trim_by: str = ""
    trim_tolerance: int = 0
    crop_left: float = 0.0
    crop_top: float = 0.0
    crop_right: float = 0.0
    crop_bottom: float = 0.0
    fit_in: bool = False
    adaptive_fit_in: bool = False
    full_fit_in: bool = False
    stretch: bool = False
    width: int = 0
    height: int = 0
    padding_left: int = 0
    padding_top: int = 0
    padding_right: int = 0
    padding_bottom: int = 0
    h_flip: bool = False
    v_flip: bool = False
    h_align: str = ""
    v_align: str = ""
    smart: bool = False
    filters: list[Filter] = field(default_factory=list)


# Reference ``imagorpath/parse.go:11-19`` — verbatim pattern (the char
# class `[A-Za-z0-9-_=]` contains the range 9-_ in both RE2 and Python).
_PATH_RE = re.compile(
    "/*"
    "(params/)?"
    "((unsafe/)|([A-Za-z0-9-_=]{17,})/)?"
    "(.+)?",
    re.DOTALL,
)

# Reference ``imagorpath/parse.go:21-45`` — verbatim pattern.
_PARAMS_RE = re.compile(
    "/*"
    "(meta/)?"
    "(trim(:(top-left|bottom-right))?(:(\\d+))?/)?"
    "(((0?\\.)?\\d+)x((0?\\.)?\\d+):(([0-1]?\\.)?\\d+)x(([0-1]?\\.)?\\d+)/)?"
    "((adaptive-full-fit-in|adaptive-fit-in|full-fit-in|fit-in)/)?"
    "(stretch/)?"
    "((\\-?)(\\d*)x(\\-?)(\\d*)/)?"
    "((\\d+)x(\\d+)(:(\\d+)x(\\d+))?/)?"
    "((left|right|center)/)?"
    "((top|bottom|middle)/)?"
    "(smart/)?"
    "(.+)?",
    re.DOTALL,
)

# Reference ``imagorpath/normalize.go:122-131`` — line-break stripping,
# applied in the same replacement order as Go's strings.NewReplacer.
_BREAKS = ("\r\n", "\r", "\n", "\v", "\f", "", " ", " ")


def _clean_breaks(s: str) -> str:
    for b in _BREAKS:
        s = s.replace(b, "")
    return s


def _atoi(s: str) -> int:
    """strconv.Atoi with the error ignored → 0 (reference parse.go:100 etc.)."""
    try:
        return int(s)
    except (TypeError, ValueError):
        return 0


def _atof(s: str) -> float:
    try:
        return float(s)
    except (TypeError, ValueError):
        return 0.0


_PCT_OK = re.compile(r"%[0-9A-Fa-f]{2}")


def _query_unescape(s: str) -> str:
    """Go ``url.QueryUnescape``: %XX + '+'→space; raises on a malformed
    escape so the caller keeps the original (reference parse.go:163-165).

    Go operates on byte strings, so well-formed but non-UTF-8 escapes
    (e.g. ``%FF``) succeed and yield raw bytes — mirrored here by
    decoding with ``surrogateescape`` (consistent with the byte-string
    handling elsewhere in this module) instead of raising."""
    i = 0
    while True:
        i = s.find("%", i)
        if i < 0:
            break
        if not _PCT_OK.match(s, i):
            raise ValueError("invalid URL escape")
        i += 3
    raw = urllib.parse.unquote_to_bytes(s.replace("+", " "))
    return raw.decode("utf-8", errors="surrogateescape")


def parse(path: str) -> Params:
    """Parse ``Params`` from an imagor endpoint URI (parse.go:48-51)."""
    return apply(Params(), path)


def apply(p: Params, path: str) -> Params:
    """Apply URI path fields on top of existing ``Params`` (parse.go:54-180)."""
    m = _PATH_RE.match(_clean_breaks(path))
    if m is None:
        return p
    g = lambda i: m.group(i) or ""
    if g(1):
        p.params = True
    if g(3) == "unsafe/":
        p.unsafe = True
        p.path = g(5)
    elif g(4) and len(g(4)) >= 17:
        h = g(4)
        if h != "adaptive-full-fit-in":
            p.hash = h
            p.path = g(5)
        else:
            # fit-in keyword long enough to look like a hash (parse.go:70-79)
            p.path = h + "/" + g(5)
    else:
        p.path = g(5)

    m = _PARAMS_RE.match(p.path)
    if m is None:
        return p
    g = lambda i: m.group(i) or ""
    if g(1):
        p.meta = True
    if g(2):
        p.trim = True
        p.trim_by = g(4) or TRIM_BY_TOP_LEFT
        p.trim_tolerance = _atoi(g(6))
    if g(7):
        p.crop_left = _atof(g(8))
        p.crop_top = _atof(g(10))
        p.crop_right = _atof(g(12))
        p.crop_bottom = _atof(g(14))
    if g(16):
        p.fit_in = True
        kw = g(17)
        if kw == "adaptive-full-fit-in":
            p.adaptive_fit_in = True
            p.full_fit_in = True
        elif kw == "adaptive-fit-in":
            p.adaptive_fit_in = True
        elif kw == "full-fit-in":
            p.full_fit_in = True
    if g(18):
        p.stretch = True
    if g(19):
        p.h_flip = g(20) != ""
        p.width = _atoi(g(21))
        p.v_flip = g(22) != ""
        p.height = _atoi(g(23))
    if g(24):
        p.padding_left = _atoi(g(25))
        p.padding_top = _atoi(g(26))
        if g(27):
            p.padding_right = _atoi(g(28))
            p.padding_bottom = _atoi(g(29))
        else:
            p.padding_right = p.padding_left
            p.padding_bottom = p.padding_top
    if g(30):
        p.h_align = g(31)
    if g(32):
        p.v_align = g(33)
    if g(34):
        p.smart = True
    if g(35):
        filters, img = parse_filters(g(35))
        p.filters = list(p.filters) + filters
        if img:
            try:
                img = _query_unescape(img)
            except Exception:
                pass
            if img.startswith("b64:"):
                # base64url (RFC 4648 §5, unpadded); on failure keep the
                # original name (parse.go:167-175)
                raw = img[4:]
                if "=" not in raw and len(raw) % 4 != 1:
                    try:
                        pad = "=" * (-len(raw) % 4)
                        decoded = base64.b64decode(
                            raw + pad, altchars=b"-_", validate=True
                        )
                        img = decoded.decode("utf-8", errors="surrogateescape")
                        p.base64_image = True
                    except (binascii.Error, ValueError):
                        pass
            p.image = img
    return p


def split_args(args: str) -> list[str]:
    """Comma-split respecting paren nesting (parse.go:185-222)."""
    if args == "":
        return []
    result: list[str] = []
    buf: list[str] = []
    depth = 0
    for ch in args:
        if ch == "(":
            depth += 1
            buf.append(ch)
        elif ch == ")":
            depth -= 1
            buf.append(ch)
        elif ch == "," and depth == 0:
            result.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    if buf:
        result.append("".join(buf))
    return result


def parse_filters(s: str) -> tuple[list[Filter], str]:
    """State-machine split of ``filters:a(x):b(y)/image`` respecting paren
    depth (parse.go:224-281)."""
    filters: list[Filter] = []
    path = ""
    if not s.startswith("filters:"):
        return filters, s
    s = s[8:]
    buf: list[str] = []
    depth = 0
    name = ""
    args = ""
    for idx, ch in enumerate(s):
        if ch == "(":
            if depth == 0:
                name = "".join(buf)
                buf = []
            else:
                buf.append(ch)
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                args = "".join(buf)
                buf = []
            else:
                buf.append(ch)
        elif ch == "/":
            if depth == 0:
                path = s[idx + 1 :]
            else:
                buf.append(ch)
        elif ch == ":":
            if depth == 0:
                filters.append(Filter(name=name, args=args))
                name = ""
                args = ""
                buf = []
            else:
                buf.append(ch)
        else:
            buf.append(ch)
        if path != "":
            break
    if name != "":
        filters.append(Filter(name=name, args=args))
    return filters, path


def _format_float(f: float) -> str:
    """Go ``strconv.FormatFloat(f,'f',-1,64)``: shortest round-trip decimal,
    never exponent, integral floats without the trailing ``.0``."""
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    s = repr(f)
    if "e" in s or "E" in s:
        s = f"{f:.17f}".rstrip("0")
    return s


# Go url.PathEscape keeps alnum, ``-_.~`` and ``$&+:=@`` unescaped in a
# path segment (net/url shouldEscape, encodePathSegment mode).
_PATH_SEGMENT_SAFE = "$&+:=@-_.~"

_GEN_ESCAPE_PREFIXES = (
    "trim/", "meta/", "fit-in/", "stretch/", "top/", "left/", "right/",
    "bottom/", "center/", "smart/",
)


def generate_path(p: Params) -> str:
    """``Params`` → canonical imagor path (generate.go:12-119).

    The canonical path is the signature input and the result key; negative
    dimensions fold into flips (generate.go:51-58).
    """
    parts: list[str] = []
    if p.meta:
        parts.append("meta")
    if p.trim or p.trim_by in (TRIM_BY_TOP_LEFT, TRIM_BY_BOTTOM_RIGHT):
        trims = ["trim"]
        if p.trim_by == TRIM_BY_BOTTOM_RIGHT:
            trims.append("bottom-right")
        if p.trim_tolerance > 0:
            trims.append(str(p.trim_tolerance))
        parts.append(":".join(trims))
    if p.crop_top > 0 or p.crop_right > 0 or p.crop_left > 0 or p.crop_bottom > 0:
        parts.append(
            "%sx%s:%sx%s"
            % (
                _format_float(p.crop_left),
                _format_float(p.crop_top),
                _format_float(p.crop_right),
                _format_float(p.crop_bottom),
            )
        )
    if p.fit_in:
        fit = ""
        if p.adaptive_fit_in:
            fit += "adaptive-"
        if p.full_fit_in:
            fit += "full-"
        parts.append(fit + "fit-in")
    if p.stretch:
        parts.append("stretch")
    width, height, h_flip, v_flip = p.width, p.height, p.h_flip, p.v_flip
    if h_flip or width != 0 or v_flip or height != 0 or p.padding_left > 0 or p.padding_top > 0:
        if width < 0:
            h_flip = not h_flip
            width = -width
        if height < 0:
            v_flip = not v_flip
            height = -height
        parts.append(
            "%s%dx%s%d" % ("-" if h_flip else "", width, "-" if v_flip else "", height)
        )
    if p.padding_left > 0 or p.padding_top > 0 or p.padding_right > 0 or p.padding_bottom > 0:
        if p.padding_left == p.padding_right and p.padding_top == p.padding_bottom:
            parts.append("%dx%d" % (p.padding_left, p.padding_top))
        else:
            parts.append(
                "%dx%d:%dx%d"
                % (p.padding_left, p.padding_top, p.padding_right, p.padding_bottom)
            )
    if p.h_align in (H_ALIGN_LEFT, H_ALIGN_RIGHT):
        parts.append(p.h_align)
    if p.v_align in (V_ALIGN_TOP, V_ALIGN_BOTTOM):
        parts.append(p.v_align)
    if p.smart:
        parts.append("smart")
    if p.filters:
        parts.append(
            "filters:" + ":".join("%s(%s)" % (f.name, f.args) for f in p.filters)
        )
    if p.base64_image:
        encoded = base64.urlsafe_b64encode(
            p.image.encode("utf-8", errors="surrogateescape")
        ).rstrip(b"=")
        parts.append("b64:" + encoded.decode("ascii"))
    else:
        image = p.image
        if (
            "?" in image
            or "(" in image
            or ")" in image
            or "," in image
            or image.startswith(_GEN_ESCAPE_PREFIXES)
        ):
            # quote the raw bytes: %XX escapes of non-UTF-8 bytes parse
            # to surrogate-escaped code points (the b64 branch's rule)
            image = urllib.parse.quote(
                image.encode("utf-8", errors="surrogateescape"),
                safe=_PATH_SEGMENT_SAFE)
        parts.append(image)
    return "/".join(parts)


def generate_unsafe(p: Params) -> str:
    """generate.go:122-124."""
    return generate(p, None)


def generate(p: Params, signer: "HMACSigner | None") -> str:
    """generate.go:127-133."""
    img_path = generate_path(p)
    if signer is not None:
        return signer.sign(img_path) + "/" + img_path
    return "unsafe/" + img_path


class HMACSigner:
    """HMAC path signer with base64url output and optional truncation
    (signer.go:11-43). Default algorithm is SHA-1; the engine's flagship
    pipeline uses SHA-256 per the north star.

    Test vector (params_test.go:634-637):
    ``HMACSigner('sha256', 28, 'abcd').sign('assfasf')
    == 'zb6uWXQxwJDOe_zOgxkuj96Etrsz'``
    """

    __slots__ = ("alg", "truncate", "secret", "_inner", "_outer")

    def __init__(self, alg: str = "sha1", truncate: int = 0, secret: str = ""):
        self.alg = alg
        self.truncate = truncate
        self.secret = secret.encode("utf-8")
        self._prekey()

    def _prekey(self) -> None:
        """Hash states already keyed with ``K ^ ipad`` and ``K ^ opad``
        (RFC 2104, the construction ``hmac.new`` runs on every call), so
        each ``sign`` only copies them instead of re-padding and
        re-hashing the key."""
        key = self.secret
        block = hashlib.new(self.alg).block_size
        if len(key) > block:
            key = hashlib.new(self.alg, key).digest()
        key = key.ljust(block, b"\0")
        self._inner = hashlib.new(self.alg, key.translate(_IPAD))
        self._outer = hashlib.new(self.alg, key.translate(_OPAD))

    def __getstate__(self):
        # hash states do not pickle; Ray ships signers inside closures
        return self.alg, self.truncate, self.secret

    def __setstate__(self, state) -> None:
        self.alg, self.truncate, self.secret = state
        self._prekey()

    def sign(self, path: str) -> str:
        inner = self._inner.copy()
        inner.update(path.encode("utf-8", errors="surrogateescape"))
        outer = self._outer.copy()
        outer.update(inner.digest())
        sig = (binascii.b2a_base64(outer.digest(), newline=False)
               .translate(_URLSAFE).decode("ascii"))
        if 0 < self.truncate < len(sig):
            return sig[: self.truncate]
        return sig


_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))
_URLSAFE = bytes.maketrans(b"+/", b"-_")


def new_default_signer(secret: str) -> HMACSigner:
    """signer.go:16-18 — SHA-1, no truncation."""
    return HMACSigner("sha1", 0, secret)


_UPPER_HEX = "0123456789ABCDEF"


class SafeChars:
    """Which bytes stay unescaped in storage keys (normalize.go:11-63)."""

    __slots__ = ("noop", "chars")

    def __init__(self, safechars: str = "", noop: bool = False):
        if safechars == "--":
            noop = True
            safechars = ""
        self.noop = noop
        self.chars = set(safechars.encode("utf-8"))

    def should_escape(self, c: int) -> bool:
        if self.noop:
            return False
        if 0x61 <= c <= 0x7A or 0x41 <= c <= 0x5A or 0x30 <= c <= 0x39:
            return False
        if c in (0x2F, 0x2D, 0x5F, 0x2E, 0x7E):  # / - _ . ~
            return False
        if c in self.chars:
            return False
        return True


NOOP_SAFE_CHARS = SafeChars(noop=True)
_DEFAULT_SAFE_CHARS = SafeChars()


def _escape(s: str, safe: SafeChars) -> str:
    """Byte-wise percent-escape with space→'+' (normalize.go:66-120)."""
    out: list[str] = []
    changed = False
    for c in s.encode("utf-8", errors="surrogateescape"):
        if c == 0x20 and safe.should_escape(0x20):
            out.append("+")
            changed = True
        elif safe.should_escape(c):
            out.append("%" + _UPPER_HEX[c >> 4] + _UPPER_HEX[c & 15])
            changed = True
        else:
            out.append(chr(c))
    return "".join(out) if changed else s


def normalize(image: str, safe_chars: SafeChars | None = None) -> str:
    """Path-clean + line-break strip + custom percent-escape for storage
    keys (normalize.go:135-143)."""
    image = posixpath.normpath(image) if image else "."
    image = _clean_breaks(image)
    image = image.strip("/")
    return _escape(image, safe_chars if safe_chars is not None else _DEFAULT_SAFE_CHARS)


def _hex_digest_path(path: str) -> str:
    """SHA-1 → ``ab/cd/rest`` fan-out layout (hasher.go:36-40)."""
    h = hashlib.sha1(path.encode("utf-8", errors="surrogateescape")).hexdigest()
    return h[:2] + "/" + h[2:4] + "/" + h[4:]


def digest_storage_hasher(image: str) -> str:
    """hasher.go:43."""
    return _hex_digest_path(image)


def digest_result_storage_hasher(p: Params) -> str:
    """hasher.go:46-51."""
    path = p.path or generate_path(p)
    return _hex_digest_path(path)


def _result_ext(p: Params) -> str | None:
    dot = p.image.rfind(".")
    slash = p.image.rfind("/")
    if dot > -1 and slash < dot:
        ext = p.image[dot:]
        if p.meta:
            ext = ".json"
        else:
            for f in p.filters:
                if f.name == "format":
                    ext = "." + f.args
        return ext
    return None


def suffix_result_storage_hasher(p: Params) -> str:
    """Storage path with 20-hex-digit digest suffix (hasher.go:54-76)."""
    path = p.path or generate_path(p)
    h = "." + hashlib.sha1(path.encode("utf-8", errors="surrogateescape")).hexdigest()[:20]
    ext = _result_ext(p)
    if ext is not None:
        dot = p.image.rfind(".")
        return p.image[:dot] + h + ext
    return p.image + h


def size_suffix_result_storage_hasher(p: Params) -> str:
    """Digest + ``_WxH`` suffix (hasher.go:79-104)."""
    path = p.path or generate_path(p)
    h = "." + hashlib.sha1(path.encode("utf-8", errors="surrogateescape")).hexdigest()[:20]
    if p.width != 0 or p.height != 0:
        h += "_%dx%d" % (p.width, p.height)
    ext = _result_ext(p)
    if ext is not None:
        dot = p.image.rfind(".")
        return p.image[:dot] + h + ext
    return p.image + h


def has_crop(p: Params) -> bool:
    """params.go:65-67."""
    return p.crop_left > 0 or p.crop_top > 0 or p.crop_right > 0 or p.crop_bottom > 0


def has_filter(p: Params, name: str) -> bool:
    """params.go:70-77."""
    return any(f.name == name for f in p.filters)


def has_cache_bypass(p: Params) -> bool:
    """params.go:87-106 — crop / focal / page>1 / dpi>0 bypass the cache."""
    if has_crop(p):
        return True
    for f in p.filters:
        if f.name == "focal":
            return True
        if f.name == "page" and _atoi(f.args) > 1:
            return True
        if f.name == "dpi" and _atoi(f.args) > 0:
            return True
    return False


def params_copy(p: Params) -> Params:
    """Value-copy like Go struct assignment (filters list shallow-copied)."""
    return replace(p, filters=list(p.filters))
