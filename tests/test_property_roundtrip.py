"""Property-based round-trip tests (hypothesis): generate_path ∘ parse is
a fixed point for canonical Params — the invariant behind result keying
(reference round-trips are table-driven, params_test.go:13-606; the
engine adds generative coverage on top)."""

from __future__ import annotations

import string

import pandas as pd
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imagor_ray.functions import imagorpath as ip
from imagor_ray.stages.chain import FilterChainStage, compile_chain

_IMG = st.text(
    alphabet=string.ascii_letters + string.digits + "-_./", min_size=1, max_size=40
).filter(
    lambda s: not s.startswith("/")
    and "//" not in s
    and ".." not in s.split("/")
    and "." not in (s.split("/")[0],)
)

_FILTER_NAMES = st.sampled_from(
    ["grayscale", "brightness", "trim", "max_bytes", "label", "redact", "fill"]
)


@st.composite
def params_strategy(draw):
    p = ip.Params()
    p.meta = draw(st.booleans())
    if draw(st.booleans()):
        p.trim = True
        p.trim_by = draw(st.sampled_from(["top-left", "bottom-right"]))
        p.trim_tolerance = draw(st.integers(0, 200))
    if draw(st.booleans()):
        p.crop_left = draw(st.integers(1, 50))
        p.crop_top = draw(st.integers(1, 50))
        p.crop_right = draw(st.integers(51, 99))
        p.crop_bottom = draw(st.integers(51, 99))
    p.fit_in = draw(st.booleans())
    if p.fit_in:
        p.adaptive_fit_in = draw(st.booleans())
        p.full_fit_in = draw(st.booleans())
    else:
        p.stretch = draw(st.booleans())
    if draw(st.booleans()):
        p.width = draw(st.integers(0, 99999))
        p.height = draw(st.integers(0, 99999))
        p.h_flip = draw(st.booleans())
        p.v_flip = draw(st.booleans())
    if draw(st.booleans()):
        p.padding_left = draw(st.integers(1, 99))
        p.padding_top = draw(st.integers(1, 99))
        p.padding_right = p.padding_left
        p.padding_bottom = p.padding_top
    p.h_align = draw(st.sampled_from(["", "left", "right"]))
    p.v_align = draw(st.sampled_from(["", "top", "bottom"]))
    p.smart = draw(st.booleans())
    n_filters = draw(st.integers(0, 3))
    filters = []
    for _ in range(n_filters):
        name = draw(_FILTER_NAMES)
        args = draw(st.sampled_from(["", "5", "50", "x", "hi,left"]))
        filters.append(ip.Filter(name, args))
    p.filters = filters
    p.image = draw(_IMG)
    return p


@settings(max_examples=300, deadline=None)
@given(params_strategy())
def test_generate_parse_fixed_point(p):
    path = ip.generate_path(p)
    q = ip.parse(path)
    assert ip.generate_path(q) == path
    # idempotence of a second round
    assert ip.parse(ip.generate_path(q)) == q


@settings(max_examples=100, deadline=None)
@given(params_strategy(), st.text(min_size=0, max_size=80))
def test_chain_is_deterministic_and_total(p, text):
    """Every generated chain runs without error and deterministically."""
    path = ip.generate_path(p)
    chain = compile_chain(path)
    a = chain.run(pd.Series([text])).iloc[0]
    b = chain.run(pd.Series([text])).iloc[0]
    assert a == b


class TestResultCacheAndSuppression:
    def test_cache_hits_on_repeat(self):
        stage = FilterChainStage(result_cache_bytes=1 << 20)
        df = pd.DataFrame({
            "path": ["filters:grayscale()/img"] * 4,
            "text": ["AB", "AB", "CD", "AB"],
        })
        out = stage(df.copy())
        assert out["text"].tolist() == ["ab", "ab", "cd", "ab"]
        assert stage.cache_misses == 2  # AB and CD computed once each
        stage(df.copy())
        # second batch fully cached (hits counted per unique text)
        assert stage.cache_hits == 2 and stage.cache_misses == 2

    def test_suppression_computes_unique_once(self):
        stage = FilterChainStage(suppress_duplicates=True)
        df = pd.DataFrame({
            "path": ["filters:grayscale()/img"] * 3,
            "text": ["AB", "AB", "AB"],
        })
        out = stage(df.copy())
        assert out["text"].tolist() == ["ab"] * 3

    def test_cache_evicts_within_budget(self):
        stage = FilterChainStage(result_cache_bytes=300)
        df = pd.DataFrame({
            "path": ["filters:grayscale()/img"] * 3,
            "text": ["X" * 100, "Y" * 100, "Z" * 100],
        })
        stage(df.copy())
        assert stage._result_cache_used <= 300


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 100_000)),  # (conv, ts_s)
        min_size=1, max_size=60,
    ),
    st.integers(10, 5000),
)
def test_sessionize_matches_bruteforce(rows, gap_s):
    """Bucketed vectorized sessionize ≡ an obvious per-conversation loop."""
    import pandas as pd

    from imagor_ray.stages.windows import _session_summaries_bucket

    df = pd.DataFrame({
        "conv_id": [f"c{c}" for c, _ in rows],
        "ts": pd.to_datetime([t for _, t in rows], unit="s").astype("datetime64[us]"),
        "text_len": 1,
    })
    got = _session_summaries_bucket(df.copy(), gap_s)

    # brute force: per conv, sorted, walk and split on gap
    expect = []
    for conv, g in df.groupby("conv_id"):
        ts = sorted(g["ts"])
        sid, start, prev, n = 0, ts[0], ts[0], 0
        for t in ts:
            if (t - prev).total_seconds() > gap_s:
                expect.append((conv, sid, start, prev, n))
                sid, start, n = sid + 1, t, 0
            n += 1
            prev = t
        expect.append((conv, sid, start, prev, n))
    exp = pd.DataFrame(expect, columns=[
        "conv_id", "session_id", "session_start", "session_end", "n_turns"])
    exp["session_id"] = exp["session_id"].astype("int32")
    for c in ("session_start", "session_end"):
        exp[c] = exp[c].astype("datetime64[us]")
        got[c] = got[c].astype("datetime64[us]")
    got = got.sort_values(["conv_id", "session_id"]).reset_index(drop=True)
    exp = exp.sort_values(["conv_id", "session_id"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["conv_id", "session_id", "session_start", "session_end", "n_turns"]],
        exp, check_dtype=False,
    )


class TestChainFuzz:
    """Robustness: arbitrary paths and filter args must never crash the
    chain compiler or kernels (the reference ignores unknown filters and
    swallows bad args via strconv defaults)."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=60),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=1000),
                max_size=80),
    )
    # %XX of a non-UTF-8 byte parses to a surrogate-escaped code point
    # that generate_path must re-quote as bytes
    @example(path=")%a0", text="")
    def test_compile_and_run_never_crash(self, path, text):
        import pandas as pd
        from imagor_ray.stages.chain import compile_chain

        chain = compile_chain(path)
        out = chain.run(pd.Series([text], dtype=object)).iloc[0]
        assert isinstance(out, str)

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["blur", "sharpen", "crop", "trim", "proportion",
                         "padding", "round_corner", "rotate", "label", "text",
                         "watermark", "focal", "pixelate", "max_bytes",
                         "brightness", "hue", "rgb", "modulate", "fill",
                         "background_color", "format", "page", "image"]),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                max_size=30).filter(lambda s: ")" not in s and "(" not in s),
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=1000),
                max_size=60),
    )
    def test_any_filter_any_args_never_crashes(self, name, args, text):
        import pandas as pd
        from imagor_ray.stages.chain import compile_chain

        chain = compile_chain(f"filters:{name}({args})/img")
        out = chain.run(pd.Series([text], dtype=object),
                        lookup={"k": "SNIP"}.get).iloc[0]
        assert isinstance(out, str)


class TestNormalizeProperties:
    """Normalize/escape invariants (normalize.go:16-143): idempotence and
    safe-chars closure for arbitrary inputs."""

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_normalize_output_is_safe(self, s):
        # NOT idempotent (the reference re-escapes '%' too); the real
        # invariant: output contains only safe chars and %XX escapes
        import re
        from imagor_ray.functions.imagorpath import normalize

        out = normalize(s)
        stripped = re.sub(r"%[0-9A-F]{2}", "", out)
        assert not re.search(r"[%\s]", stripped)

    @settings(max_examples=100, deadline=None)
    @given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=500),
                   max_size=60))
    def test_signer_stable_and_urlsafe(self, path):
        from imagor_ray.functions.imagorpath import HMACSigner

        signer = HMACSigner("sha256", 0, "k")
        sig = signer.sign(path)
        assert sig == signer.sign(path)
        assert all(c.isalnum() or c in "-_=" for c in sig)
