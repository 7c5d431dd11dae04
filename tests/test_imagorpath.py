"""Ported parse/generate/sign/normalize/hasher test tables.

Source test tables: reference ``imagorpath/params_test.go:13-813`` and
``imagorpath/hasher_test.go:1-58``. Pure-Python oracles — no Ray.
"""

from __future__ import annotations

import pytest

from imagor_ray.functions.imagorpath import (
    Filter,
    HMACSigner,
    NOOP_SAFE_CHARS,
    Params,
    SafeChars,
    digest_result_storage_hasher,
    generate,
    generate_path,
    generate_unsafe,
    has_cache_bypass,
    has_crop,
    has_filter,
    new_default_signer,
    normalize,
    parse,
    parse_filters,
    size_suffix_result_storage_hasher,
    split_args,
    suffix_result_storage_hasher,
)

SIGNER_1234 = new_default_signer("1234")
SIGNER_SHA256_40 = HMACSigner("sha256", 40, "1234")

# (name, uri, params, signer) — reference params_test.go:13-605
PARSE_GENERATE_CASES = [
    (
        "non url image",
        "meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/img",
        Params(
            path="meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/img",
            image="img", trim=True, trim_by="top-left",
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            filters=[Filter("some_filter")],
        ),
        None,
    ),
    (
        "url image",
        "meta/trim:bottom-right:100/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg",
        Params(
            path="meta/trim:bottom-right:100/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg",
            image="s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg",
            trim=True, trim_by="bottom-right", trim_tolerance=100,
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            filters=[Filter("some_filter")],
        ),
        None,
    ),
    (
        "non url image base64url encoded",
        "meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/b64:bXkgaW1hZ2UgKHNwZWNpYWwpPy5qcGc",
        Params(
            path="meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/b64:bXkgaW1hZ2UgKHNwZWNpYWwpPy5qcGc",
            image="my image (special)?.jpg", base64_image=True,
            trim=True, trim_by="top-left",
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            filters=[Filter("some_filter")],
        ),
        None,
    ),
    (
        "non url image with b64 prefix, but no base64 encoding",
        "meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/b64:some-file.jpg",
        Params(
            path="meta/trim/10x11:12x13/fit-in/-300x-200/left/top/smart/filters:some_filter()/b64:some-file.jpg",
            image="b64:some-file.jpg", base64_image=False,
            trim=True, trim_by="top-left",
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            filters=[Filter("some_filter")],
        ),
        None,
    ),
    (
        "url in filter",
        "filters:watermark(s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0)/img",
        Params(
            path="filters:watermark(s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0)/img",
            image="img",
            filters=[Filter("watermark", "s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0")],
        ),
        None,
    ),
    (
        "multiple filters",
        "filters:watermark(s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0):brightness(-50):grayscale()/img",
        Params(
            path="filters:watermark(s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0):brightness(-50):grayscale()/img",
            image="img",
            filters=[
                Filter("watermark", "s.glbimg.com/es/ge/f/original/2011/03/29/orlandosilva_60.jpg,0,0,0"),
                Filter("brightness", "-50"),
                Filter("grayscale"),
            ],
        ),
        None,
    ),
    (
        "nested filters",
        "filters:watermark(s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0):brightness(-50):grayscale()/img",
        Params(
            path="filters:watermark(s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0):brightness(-50):grayscale()/img",
            image="img",
            filters=[
                Filter("watermark", "s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0"),
                Filter("brightness", "-50"),
                Filter("grayscale"),
            ],
        ),
        None,
    ),
    (
        "filters with unicode",
        "filters:label(哈哈,1,2,3):brightness(-50):grayscale()/img",
        Params(
            path="filters:label(哈哈,1,2,3):brightness(-50):grayscale()/img",
            image="img",
            filters=[
                Filter("label", "哈哈,1,2,3"),
                Filter("brightness", "-50"),
                Filter("grayscale"),
            ],
        ),
        None,
    ),
    (
        "no params",
        "unsafe/https://foobar/en/latest/_images/man_before_sharpen.png",
        Params(
            path="https://foobar/en/latest/_images/man_before_sharpen.png",
            image="https://foobar/en/latest/_images/man_before_sharpen.png",
            unsafe=True,
        ),
        None,
    ),
    (
        "contains query",
        "unsafe/https:%2F%2Ffoobar%2Fen%2Flatest%2F_images%2Fman_before_sharpen.png%3Ffoo=bar",
        Params(
            path="https:%2F%2Ffoobar%2Fen%2Flatest%2F_images%2Fman_before_sharpen.png%3Ffoo=bar",
            image="https://foobar/en/latest/_images/man_before_sharpen.png?foo=bar",
            unsafe=True,
        ),
        None,
    ),
    (
        "image contains keyword trim",
        "unsafe/trim%2Fimg",
        Params(path="trim%2Fimg", image="trim/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword meta",
        "unsafe/meta%2Fimg",
        Params(path="meta%2Fimg", image="meta/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword center",
        "unsafe/center%2Fimg",
        Params(path="center%2Fimg", image="center/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword smart",
        "unsafe/smart%2Fimg",
        Params(path="smart%2Fimg", image="smart/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword fit-in",
        "unsafe/fit-in%2Fimg",
        Params(path="fit-in%2Fimg", image="fit-in/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword stretch",
        "unsafe/stretch%2Fimg",
        Params(path="stretch%2Fimg", image="stretch/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword top",
        "unsafe/top%2Fimg",
        Params(path="top%2Fimg", image="top/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword left",
        "unsafe/left%2Fimg",
        Params(path="left%2Fimg", image="left/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword right",
        "unsafe/right%2Fimg",
        Params(path="right%2Fimg", image="right/img", unsafe=True),
        None,
    ),
    (
        "image contains keyword bottom",
        "unsafe/bottom%2Fimg",
        Params(path="bottom%2Fimg", image="bottom/img", unsafe=True),
        None,
    ),
    (
        "image contains parentheses",
        "unsafe/photo%281%29.jpg",
        Params(path="photo%281%29.jpg", image="photo(1).jpg", unsafe=True),
        None,
    ),
    (
        "image contains comma",
        "unsafe/photo%2Cversion2.jpg",
        Params(path="photo%2Cversion2.jpg", image="photo,version2.jpg", unsafe=True),
        None,
    ),
    (
        "image contains parentheses and comma",
        "unsafe/my%20image%20%28special%2C%20v2%29.jpg",
        Params(
            path="my%20image%20%28special%2C%20v2%29.jpg",
            image="my image (special, v2).jpg", unsafe=True,
        ),
        None,
    ),
    (
        "image with filters and parentheses in filename",
        "unsafe/filters:blur(5)/photo%281%29.jpg",
        Params(
            path="filters:blur(5)/photo%281%29.jpg",
            image="photo(1).jpg", unsafe=True,
            filters=[Filter("blur", "5")],
        ),
        None,
    ),
    (
        "padding without dimensions",
        "unsafe/fit-in/0x0/5x6:7x8/https://foobar/en/latest/_images/man_before_sharpen.png",
        Params(
            path="fit-in/0x0/5x6:7x8/https://foobar/en/latest/_images/man_before_sharpen.png",
            image="https://foobar/en/latest/_images/man_before_sharpen.png",
            unsafe=True, fit_in=True,
            padding_left=5, padding_top=6, padding_right=7, padding_bottom=8,
        ),
        None,
    ),
    (
        "url in filters",
        "unsafe/stretch/500x350/filters:watermark(http://thumborize.me/static/img/beach.jpg,100,100,50)/http://thumborize.me/static/img/beach.jpg",
        Params(
            path="stretch/500x350/filters:watermark(http://thumborize.me/static/img/beach.jpg,100,100,50)/http://thumborize.me/static/img/beach.jpg",
            image="http://thumborize.me/static/img/beach.jpg",
            width=500, height=350, unsafe=True, stretch=True,
            filters=[Filter("watermark", "http://thumborize.me/static/img/beach.jpg,100,100,50")],
        ),
        None,
    ),
    (
        "non url image with hash",
        "VTAq7YIRbEXgtwAcsTMhAjvBuT8=/meta/10x11:12x13/fit-in/-300x-200/5x6/left/top/smart/filters:some_filter()/img",
        Params(
            path="meta/10x11:12x13/fit-in/-300x-200/5x6/left/top/smart/filters:some_filter()/img",
            hash="VTAq7YIRbEXgtwAcsTMhAjvBuT8=", image="img",
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            padding_left=5, padding_top=6, padding_right=5, padding_bottom=6,
            filters=[Filter("some_filter")],
        ),
        SIGNER_1234,
    ),
    (
        "non url image with hash and custom signer",
        "XBCO7esuLsNQuSF2v9ie36pESRGx2rzLjhUxXWnV/meta/10x11:12x13/fit-in/-300x-200/5x6/left/top/smart/filters:some_filter()/img",
        Params(
            path="meta/10x11:12x13/fit-in/-300x-200/5x6/left/top/smart/filters:some_filter()/img",
            hash="XBCO7esuLsNQuSF2v9ie36pESRGx2rzLjhUxXWnV", image="img",
            crop_left=10, crop_top=11, crop_right=12, crop_bottom=13,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            padding_left=5, padding_top=6, padding_right=5, padding_bottom=6,
            filters=[Filter("some_filter")],
        ),
        SIGNER_SHA256_40,
    ),
    (
        "non url image with crop by percentage",
        "meta/trim/0.2x0.15:0.45x0.67/fit-in/-300x-200/left/top/smart/filters:some_filter()/img",
        Params(
            path="meta/trim/0.2x0.15:0.45x0.67/fit-in/-300x-200/left/top/smart/filters:some_filter()/img",
            image="img", trim=True, trim_by="top-left",
            crop_left=0.2, crop_top=0.15, crop_right=0.45, crop_bottom=0.67,
            width=300, height=200, meta=True, h_flip=True, v_flip=True,
            h_align="left", v_align="top", smart=True, fit_in=True,
            filters=[Filter("some_filter")],
        ),
        None,
    ),
    (
        "adaptive fit-in",
        "adaptive-fit-in/300x200/img",
        Params(
            path="adaptive-fit-in/300x200/img", image="img",
            fit_in=True, adaptive_fit_in=True, width=300, height=200,
        ),
        None,
    ),
    (
        "full fit-in",
        "full-fit-in/300x200/img",
        Params(
            path="full-fit-in/300x200/img", image="img",
            fit_in=True, full_fit_in=True, width=300, height=200,
        ),
        None,
    ),
    (
        "adaptive full fit-in",
        "adaptive-full-fit-in/300x200/img",
        Params(
            path="adaptive-full-fit-in/300x200/img", image="img",
            fit_in=True, adaptive_fit_in=True, full_fit_in=True,
            width=300, height=200,
        ),
        None,
    ),
    (
        "adaptive fit-in with filters",
        "adaptive-fit-in/300x200/filters:blur(5)/img",
        Params(
            path="adaptive-fit-in/300x200/filters:blur(5)/img", image="img",
            fit_in=True, adaptive_fit_in=True, width=300, height=200,
            filters=[Filter("blur", "5")],
        ),
        None,
    ),
    (
        "full fit-in with smart crop",
        "full-fit-in/300x200/smart/img",
        Params(
            path="full-fit-in/300x200/smart/img", image="img",
            fit_in=True, full_fit_in=True, width=300, height=200, smart=True,
        ),
        None,
    ),
    (
        "dimensions 949x1000 (8 chars, should not be treated as hash)",
        "949x1000/img.jpg",
        Params(path="949x1000/img.jpg", image="img.jpg", width=949, height=1000),
        None,
    ),
    (
        "dimensions 1000x1000 (9 chars, should not be treated as hash)",
        "1000x1000/img.jpg",
        Params(path="1000x1000/img.jpg", image="img.jpg", width=1000, height=1000),
        None,
    ),
    (
        "dimensions 1920x1080 (9 chars, should not be treated as hash)",
        "1920x1080/img.jpg",
        Params(path="1920x1080/img.jpg", image="img.jpg", width=1920, height=1080),
        None,
    ),
    (
        "dimensions with flip -1920x-1080 (11 chars, should not be treated as hash)",
        "-1920x-1080/img.jpg",
        Params(
            path="-1920x-1080/img.jpg", image="img.jpg",
            width=1920, height=1080, h_flip=True, v_flip=True,
        ),
        None,
    ),
    (
        "dimensions in nested path (layer use case)",
        "unsafe/949x1000/Google Photos/IMG_20180519_191530.jpg",
        Params(
            path="949x1000/Google Photos/IMG_20180519_191530.jpg",
            image="Google Photos/IMG_20180519_191530.jpg",
            width=949, height=1000, unsafe=True,
        ),
        None,
    ),
    (
        "max valid dimensions 99999x99999 (5 digits each)",
        "99999x99999/img.jpg",
        Params(path="99999x99999/img.jpg", image="img.jpg", width=99999, height=99999),
        None,
    ),
]


@pytest.mark.parametrize(
    "name,uri,params,signer",
    PARSE_GENERATE_CASES,
    ids=[c[0] for c in PARSE_GENERATE_CASES],
)
def test_parse_generate(name, uri, params, signer):
    resp = parse(uri)
    assert resp == params, f"{resp!r} != {params!r}"
    if signer is not None:
        assert signer.sign(resp.path) == resp.hash
    if params.hash and signer is not None:
        assert generate(params, signer) == uri
    elif params.unsafe:
        assert generate_unsafe(params) == uri
    else:
        assert generate_path(params) == uri


def test_params_negative_dimension_flip():
    # params_test.go:607-613
    assert generate_unsafe(Params(width=-167, height=-169, image="foobar")) == "unsafe/-167x-169/foobar"


def test_normalize():
    # params_test.go:615-632
    assert normalize(
        "/unsafe/fit-in/800x800/filters:fill(white):watermark(raw.githubusercontent.com/cshum/imagor/master/testdata/gopher.png,repeat,bottom,10):format(jpeg)/https://raw.githubusercontent.com/golang-samples/gopher-vector/master/gopher .png///",
        None,
    ) == (
        "unsafe/fit-in/800x800/filters%3Afill%28white%29%3Awatermark%28raw.githubusercontent.com/cshum/imagor/master/testdata/gopher.png%2Crepeat%2Cbottom%2C10%29%3Aformat%28jpeg%29/https%3A/raw.githubusercontent.com/golang-samples/gopher-vector/master/gopher+.png"
    )
    assert normalize(
        "/unsafe/fit-in/800x800/filters:fill(white):watermark(raw.githubusercontent.com/cshum/imagor/master/testdata/gopher.png,repeat,bottom,10):format(jpeg)/https://raw.githubusercontent.com/golang-samples/gopher-vector/master/gopher .png///",
        SafeChars(" "),
    ) == (
        "unsafe/fit-in/800x800/filters%3Afill%28white%29%3Awatermark%28raw.githubusercontent.com/cshum/imagor/master/testdata/gopher.png%2Crepeat%2Cbottom%2C10%29%3Aformat%28jpeg%29/https%3A/raw.githubusercontent.com/golang-samples/gopher-vector/master/gopher .png"
    )
    assert normalize("a ", None) == "a+"
    assert normalize("a-+", SafeChars("-")) == "a-%2B"
    assert normalize("a-+", NOOP_SAFE_CHARS) == "a-+"
    assert normalize("a-+", SafeChars("--")) == "a-+"


def test_hmac_signer():
    # params_test.go:634-637
    signer = HMACSigner("sha256", 28, "abcd")
    assert signer.sign("assfasf") == "zb6uWXQxwJDOe_zOgxkuj96Etrsz"


@pytest.mark.parametrize("alg", ["sha1", "sha256", "sha512"])
@pytest.mark.parametrize("secret", ["", "abcd", "k" * 200],
                         ids=["empty_key", "short_key", "key_over_block"])
def test_hmac_signer_matches_stdlib_hmac(alg, secret):
    """The pre-keyed signer equals ``hmac.new`` + base64url for every
    algorithm, an empty key and a key longer than the hash block (which
    RFC 2104 hashes first), also after a pickle round trip."""
    import base64
    import hmac
    import pickle

    paths = ["", "assfasf", "fit-in/100x0/filters:blur(2)/a b.png",
             "caf\udce9/\U0001f600.png"]   # surrogate-escaped byte
    for signer in (HMACSigner(alg, 0, secret),
                   pickle.loads(pickle.dumps(HMACSigner(alg, 0, secret)))):
        for p in paths:
            want = base64.urlsafe_b64encode(hmac.new(
                secret.encode(), p.encode("utf-8", "surrogateescape"),
                alg).digest()).decode()
            assert signer.sign(p) == want
            assert HMACSigner(alg, 10, secret).sign(p) == want[:10]
            assert HMACSigner(alg, 999, secret).sign(p) == want


SPLIT_ARGS_CASES = [
    ("empty", "", []),
    ("single arg", "arg1", ["arg1"]),
    ("simple comma split", "arg1,arg2,arg3", ["arg1", "arg2", "arg3"]),
    ("nested parentheses", "path(a,b),x,y", ["path(a,b)", "x", "y"]),
    (
        "nested imagor path",
        "/150x150/filters:image(/50x50/gopher-front.png,center,center)/gopher.png,10,10",
        ["/150x150/filters:image(/50x50/gopher-front.png,center,center)/gopher.png", "10", "10"],
    ),
    (
        "double nested",
        "/200x200/filters:image(/100x100/filters:image(/50x50/gopher.png,center,center)/demo.jpg,center,center)/base.jpg,center,center",
        ["/200x200/filters:image(/100x100/filters:image(/50x50/gopher.png,center,center)/demo.jpg,center,center)/base.jpg", "center", "center"],
    ),
    (
        "watermark style",
        "s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0",
        ["s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg", "0", "0", "0"],
    ),
]


@pytest.mark.parametrize("name,args,want", SPLIT_ARGS_CASES, ids=[c[0] for c in SPLIT_ARGS_CASES])
def test_split_args(name, args, want):
    assert split_args(args) == want


def test_parse_filters():
    # params_test.go:689-726
    nested = "filters:watermark(s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0):brightness(-50):grayscale()"
    want = [
        Filter("watermark", "s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0"),
        Filter("brightness", "-50"),
        Filter("grayscale", ""),
    ]
    filters, img = parse_filters(nested + "/some/example/img")
    assert filters == want
    assert img == "some/example/img"

    filters, img = parse_filters(nested)
    assert filters == want
    assert img == ""

    filters, img = parse_filters(nested + "/")
    assert filters == want
    assert img == ""

    filters, img = parse_filters("some/example/img")
    assert filters == []
    assert img == "some/example/img"

    filters, img = parse_filters(
        "filters:watermark(s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0):format()jpg:brightness(-50):grayscale()"
    )
    assert filters == [
        Filter("watermark", "s.glbimg.com/filters:label(abc):watermark(aaa.com/fit-in/filters:aaa(bbb))/aaa.jpg,0,0,0"),
        Filter("format", ""),
        Filter("brightness", "-50"),
        Filter("grayscale", ""),
    ]
    assert img == ""


HAS_CROP_CASES = [
    ("no crop", Params(), False),
    ("crop left", Params(crop_left=10), True),
    ("crop top", Params(crop_top=5), True),
    ("crop right", Params(crop_right=100), True),
    ("crop bottom", Params(crop_bottom=200), True),
    ("all four", Params(crop_left=10, crop_top=20, crop_right=100, crop_bottom=200), True),
    ("percentage crop", Params(crop_left=0.1, crop_top=0.2, crop_right=0.9, crop_bottom=0.8), True),
    ("zero values", Params(), False),
]


@pytest.mark.parametrize("name,p,want", HAS_CROP_CASES, ids=[c[0] for c in HAS_CROP_CASES])
def test_has_crop(name, p, want):
    assert has_crop(p) == want


HAS_FILTER_CASES = [
    ("empty filters", Params(), "focal", False),
    ("focal present", Params(filters=[Filter("focal", "0.5x0.5")]), "focal", True),
    ("focal absent", Params(filters=[Filter("format", "webp")]), "focal", False),
    ("strip_exif present", Params(filters=[Filter("strip_exif", "")]), "strip_exif", True),
    ("strip_exif absent", Params(filters=[Filter("focal", "0.5x0.5")]), "strip_exif", False),
    ("multiple filters, target present",
     Params(filters=[Filter("format", "webp"), Filter("focal", "0.3x0.7"), Filter("quality", "80")]),
     "focal", True),
    ("multiple filters, target absent",
     Params(filters=[Filter("format", "webp"), Filter("quality", "80")]), "focal", False),
]


@pytest.mark.parametrize("name,p,fname,want", HAS_FILTER_CASES, ids=[c[0] for c in HAS_FILTER_CASES])
def test_has_filter(name, p, fname, want):
    assert has_filter(p, fname) == want


HAS_CACHE_BYPASS_CASES = [
    ("no bypass plain resize", Params(width=800, height=600), False),
    ("no bypass preview and format", Params(filters=[Filter("preview", ""), Filter("format", "webp")]), False),
    ("no bypass page 1 explicit", Params(filters=[Filter("page", "1")]), False),
    ("no bypass page 0", Params(filters=[Filter("page", "0")]), False),
    ("no bypass dpi 0", Params(filters=[Filter("dpi", "0")]), False),
    ("bypass crop left", Params(crop_left=10), True),
    ("bypass crop top", Params(crop_top=5), True),
    ("bypass crop right", Params(crop_right=100), True),
    ("bypass crop bottom", Params(crop_bottom=200), True),
    ("bypass percentage crop", Params(crop_left=0.1, crop_top=0.2, crop_right=0.9, crop_bottom=0.8), True),
    ("bypass focal filter", Params(filters=[Filter("focal", "0.5x0.5")]), True),
    ("bypass focal with other filters", Params(filters=[Filter("format", "webp"), Filter("focal", "100x200:300x400")]), True),
    ("bypass page 2", Params(filters=[Filter("page", "2")]), True),
    ("bypass page 10", Params(filters=[Filter("page", "10")]), True),
    ("bypass dpi 72", Params(filters=[Filter("dpi", "72")]), True),
    ("bypass dpi 150", Params(filters=[Filter("dpi", "150")]), True),
    ("bypass crop + focal", Params(crop_left=10, filters=[Filter("focal", "0.5x0.5")]), True),
    ("bypass page 3 + format", Params(filters=[Filter("page", "3"), Filter("format", "webp")]), True),
]


@pytest.mark.parametrize("name,p,want", HAS_CACHE_BYPASS_CASES, ids=[c[0] for c in HAS_CACHE_BYPASS_CASES])
def test_has_cache_bypass(name, p, want):
    assert has_cache_bypass(p) == want


def test_hasher():
    # hasher_test.go:10-31
    p = parse("fit-in/16x17/foobar")
    assert digest_result_storage_hasher(p) == "d5/c2/804e5d81c475bee50f731db17ee613f43262"
    p.path = ""
    assert digest_result_storage_hasher(p) == "d5/c2/804e5d81c475bee50f731db17ee613f43262"
    p = parse("fit-in/16x17/foobar")
    assert suffix_result_storage_hasher(p) == "foobar.d5c2804e5d81c475bee5"
    assert size_suffix_result_storage_hasher(p) == "foobar.d5c2804e5d81c475bee5_16x17"
    p.path = ""
    assert suffix_result_storage_hasher(p) == "foobar.d5c2804e5d81c475bee5"
    p = parse("17x19/smart/example.com/foobar")
    assert suffix_result_storage_hasher(p) == "example.com/foobar.ddd349e092cda6d9c729"
    assert size_suffix_result_storage_hasher(p) == "example.com/foobar.ddd349e092cda6d9c729_17x19"
    p = parse("smart/example.com/foobar")
    assert size_suffix_result_storage_hasher(p) == "example.com/foobar.afa3503c0d76bc49eccd"
    assert suffix_result_storage_hasher(p) == "example.com/foobar.afa3503c0d76bc49eccd"
    p = parse("166x169/top/foobar.jpg")
    assert suffix_result_storage_hasher(p) == "foobar.45d8ebb31bd4ed80c26e.jpg"
    assert size_suffix_result_storage_hasher(p) == "foobar.45d8ebb31bd4ed80c26e_166x169.jpg"
    p.path = ""
    assert suffix_result_storage_hasher(p) == "foobar.45d8ebb31bd4ed80c26e.jpg"


def test_suffix_result_storage_hasher():
    # hasher_test.go:33-58
    p = Params(smart=True, width=17, height=19, image="example.com/foobar.jpg",
               filters=[Filter("format", "webp")])
    assert suffix_result_storage_hasher(p) == "example.com/foobar.8aade9060badfcb289f9.webp"
    assert size_suffix_result_storage_hasher(p) == "example.com/foobar.8aade9060badfcb289f9_17x19.webp"

    p = Params(meta=True, smart=True, width=17, height=19, image="example.com/foobar.jpg")
    assert suffix_result_storage_hasher(p) == "example.com/foobar.d72ff6ef20ba41fa570c.json"
    assert size_suffix_result_storage_hasher(p) == "example.com/foobar.d72ff6ef20ba41fa570c_17x19.json"

    p = Params(meta=True, smart=True, width=17, height=19, image="example.com/foobar.jpg",
               filters=[Filter("format", "webp")])
    assert suffix_result_storage_hasher(p) == "example.com/foobar.c80ab0faf85b35a140a8.json"
    assert size_suffix_result_storage_hasher(p) == "example.com/foobar.c80ab0faf85b35a140a8_17x19.json"


def test_query_unescape_non_utf8_bytes():
    # Go's url.QueryUnescape is byte-oriented: a well-formed but non-UTF-8
    # escape like %FF succeeds and yields the raw byte. Mirrored via
    # surrogateescape decoding (round-1 ADVICE) so p.image, generate_path
    # and the result-storage hashes track the reference for such paths.
    from imagor_ray.functions.imagorpath import parse

    p = parse("unsafe/img%FFname")
    assert p.image == "img\udcffname"  # surrogate-escaped raw 0xFF
    # round-trips back to the original byte via surrogateescape encode
    assert p.image.encode("utf-8", errors="surrogateescape") == b"img\xffname"
    # malformed escapes still keep the original escaped form
    p2 = parse("unsafe/img%ZZname")
    assert p2.image == "img%ZZname"
