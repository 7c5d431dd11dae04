"""Query catalog: every implemented operator/pipeline exposed as a
``queries()`` entry with (where SQL-expressible) a DuckDB ``oracle_sql()``
mirror. Column names match between Ray and SQL exactly (the driver's
compare hashes values under sorted column names).

Grouped per SURVEY §2:

- imagor-core: transcript derivation, canonical paths, the full
  per-tool filter-chain output, per-filter kernels over ``documents``.
- streaming: session windows, tumbling/sliding per-tool stats, the
  tool-metadata stream-table join.
- training-data ops: exact/minhash/simhash dedup, text stats, lang-id,
  sketches, ANN top-k, label centroids.
- relational breadth: groupby/join/sort pipelines over the TPC-H-ish
  tables (the wide-operator exercises).

Non-SQL-expressible entries (HMAC signing, the exactly-once sink state)
have no oracle and get the driver's rows-only check; their strong
verification lives in pytest (signer test vector, sink replay byte
equality).
"""

from __future__ import annotations

import pandas as pd
import ray.data as rd

from ..sources.transcripts import TRANSCRIPTS_SQL, derive_transcripts, tool_meta_table
from ..stages.parse_sign import PATH_TEMPLATES
from ..stages.windows import session_windows, sliding_tool_stats, tumbling_tool_stats
from .ann import (
    ann_topk, embedding_neardup, embedding_neardup_planted, ivf_topk,
    knn_accuracy, knn_classify, label_centroids, lsh_topk,
)
from .dedup import (
    contamination, dedup_components, exact_dedup, minhash_pairs,
    minhash_signatures,
    ngram_jaccard_pairs, paragraph_dedup, simhash64_pairs,
    simhash64_signatures,
    simhash_pairs, simhash_signatures, source_normalize_stats, typo_pairs,
)
from .flagship import processed_turns
from .analytics import (
    ATTRIBUTION_SQL, EVENT_TRANSITIONS_SQL, INCREMENTAL_COUNTS_SQL,
    SKYLINE_SQL,
    PROFILE_EVENTS_SQL, RUNNING_REVENUE_SQL, approx_quantiles_by_type,
    attribution_last_touch, cohort_retention, event_transitions,
    hll_registers, incremental_user_counts, latest_event_per_user,
    profile_events, rolling_user_stats, running_customer_revenue,
    skyline_orders, top_orders_per_customer, user_stats_by_type,
    zorder_cells, zorder_cells_sql,
)
from .graph import pagerank, pagerank_sql
from .joins import (anti_join_events_urgent, asof_join_events_orders,
                    error_context_window)
from .kmeans import (EMBEDDING_GRAM_SQL, KMEANS_ASSIGN_SQL, KMEANS_ITER_SQL,
                     embedding_gram, kmeans_assign, kmeans_iter, kmeans_train,
                     kmeans_train_sql, pca_power_iter, pca_power_iter_sql)
from .pii import (CORPUS_CLEAN_SQL, PII_REDACT_SQL, PII_SCAN_SQL,
                  corpus_clean, pii_redact, pii_scan)
from .sampling import (WEIGHTED_SAMPLE_SQL, dataset_split,
                       deterministic_sample, group_sample,
                       stratified_sample, weighted_sample)
from .grouped_extras import (GROUP_MOMENTS_SQL, MODE_SQL, PIVOT_SQL,
                             SCD2_OPS_SQL, SCD2_SQL, SETOP_SQL,
                             USER_JOURNEY_SQL, GROUP_REGRESSION_SQL,
                             group_moments, group_regression,
                             mode_event_type, pivot_hour_type,
                             purchase_periods_setop, scd2_dimension,
                             user_journey)
from .window_extras import (SLIDING_DISTINCT_SQL, STREAKS_SQL,
                            TIME_WEIGHTED_SQL, activity_streaks,
                            sliding_distinct_users, time_weighted_value)
from .heavy_hitters import HEAVY_HITTERS_SQL, heavy_hitter_tokens
from .tpch_extra import (Q4_SQL, Q6_SQL, Q7_SQL, Q8_SQL, Q13_SQL, Q15_SQL,
                         Q17_SQL, Q19_SQL, Q21_SQL, Q22_SQL,
                         q4_priority_semi, q6_forecast_revenue,
                         q7_nation_volume, q8_market_share,
                         q13_customer_distribution,
                         q15_top_supplier, q17_small_qty_revenue,
                         q19_disjunctive_revenue, q21_waiting_suppliers,
                         q22_dormant_customers)
from .textstats import (LEXICAL_DIVERSITY_SQL, lexical_diversity)
from .textstats import (
    BPE_PATTERN, STOPWORDS, collocations, curriculum_order,
    doc_dup_fraction, doc_oov, doc_repetition, doc_sketches, doc_quality,
    inverted_index, lang_id, quality_filter, quality_percentile,
    sequence_pack, text_stats, tfidf_top_terms, vocabulary,
)

# ---------------------------------------------------------------------------
# SQL building blocks

# letters shifted by brightness(20): round(20*26/100) = 5
_L = "abcdefghijklmnopqrstuvwxyz"
_SHIFT5 = _L[5:] + _L[:5]
_BRIGHT5_SRC = _L + _L.upper()
_BRIGHT5_DST = _SHIFT5 + _SHIFT5.upper()

# the per-tool chain output expressions (mirror stages/parse_sign.py
# PATH_TEMPLATES through the text-domain kernel semantics)
_CHAIN_SQL = {
    # trim → 200 left (cut+pad) → grayscale → max_bytes(160)
    "signup": "substr(lower(rpad(trim(text, left(text, 1)), 200, ' ')), 1, 160)",
    # fit-in 160 left (cut only) → redact(\d+→*) → brightness(20)=shift 5
    "click": (
        "translate(regexp_replace(substr(text, 1, 160), '\\d', '*', 'g'), "
        f"'{_BRIGHT5_SRC}', '{_BRIGHT5_DST}')"
    ),
    # grayscale → label(VIEW, right): splice '[VIEW]' over the last 6 chars
    "view": (
        "CASE WHEN length(text) >= 6 "
        "THEN left(lower(text), length(text) - 6) || '[VIEW]' "
        "ELSE '[VIEW]' || substr(lower(text), 7) END"
    ),
    # stretch 120 left (exact) → watermark(purchase→'<BUY>', right)
    "purchase": "left(rpad(text, 120, ' '), 115) || '<BUY>'",
    # trim → redact → format(hex) (uppercase hex == DuckDB hex())
    "error": "hex(regexp_replace(trim(text, left(text, 1)), '\\d', '*', 'g'))",
}

_PROCESSED_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx, tool,
  CASE tool
    WHEN 'signup' THEN {_CHAIN_SQL['signup']}
    WHEN 'click' THEN {_CHAIN_SQL['click']}
    WHEN 'view' THEN {_CHAIN_SQL['view']}
    WHEN 'purchase' THEN {_CHAIN_SQL['purchase']}
    ELSE {_CHAIN_SQL['error']}
  END AS text
FROM t
"""

_TOOL_META_VALUES = (
    "(VALUES ('click','ui',1), ('error','fault',13), ('purchase','commerce',8), "
    "('signup','auth',5), ('view','ui',2)) AS tool_meta(tool, tool_kind, tool_cost)"
)

_SESSIONS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL}),
g AS (
  SELECT *, CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
      OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) > 1800000000
    THEN 1 ELSE 0 END AS new_s
  FROM t),
s AS (
  SELECT *, CAST(sum(new_s) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx)
                 AS INTEGER) AS session_id
  FROM g)
SELECT conv_id, session_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_turns, CAST(sum(length(text)) AS BIGINT) AS sum_len
FROM s GROUP BY 1, 2
"""

_TUMBLING_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT tool, epoch_us(ts) // 3600000000 * 3600 AS window_start,
       count(*) AS n_turns, CAST(sum(length(text)) AS BIGINT) AS sum_len,
       min(ts) AS min_ts, max(ts) AS max_ts
FROM t GROUP BY 1, 2
"""

_SLIDING_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT tool,
       epoch_us(ts) // 900000000 * 900 - 900 * k AS window_start,
       count(*) AS n_turns
FROM t CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k)
GROUP BY 1, 2
"""

_ENRICHED_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT m.tool_kind, count(*) AS n_turns,
       CAST(sum(m.tool_cost) AS BIGINT) AS total_cost
FROM t JOIN (VALUES ('click','ui',1), ('error','fault',13),
             ('purchase','commerce',8), ('signup','auth',5),
             ('view','ui',2)) AS m(tool, tool_kind, tool_cost)
  ON t.tool = m.tool
GROUP BY 1
"""

# documents with <3 words collapse to one whole-text shingle
_SHINGLES_SQL = """
SELECT doc_id,
  CASE WHEN len(string_split(text, ' ')) < 3 THEN [text]
  ELSE list_transform(
    generate_series(1, len(string_split(text, ' ')) - 2),
    i -> string_split(text, ' ')[i] || ' ' || string_split(text, ' ')[i+1]
         || ' ' || string_split(text, ' ')[i+2])
  END AS shingles
FROM documents
"""

_MINHASH_SQL = f"""
WITH sh AS ({_SHINGLES_SQL})
SELECT doc_id,
  {", ".join(
    f"list_min(list_transform(shingles, s -> md5('{k}|' || s))) AS mh{k}"
    for k in range(8)
  )}
FROM sh
"""

_SIMHASH_SQL = """
WITH w AS (
  SELECT doc_id, unnest(list_distinct(string_split(text, ' '))) AS word
  FROM documents),
bits AS (
  SELECT doc_id, b,
         sum(CASE WHEN ((strpos('0123456789abcdef',
                                substr(md5(word), b // 4 + 1, 1)) - 1)
                        >> (3 - (b % 4))) & 1 = 1
                  THEN 1 ELSE -1 END) AS vote
  FROM w CROSS JOIN (SELECT unnest(generate_series(0, 31)) AS b)
  GROUP BY 1, 2)
SELECT doc_id,
       CAST(sum(CASE WHEN vote > 0 THEN CAST(1 AS BIGINT) << (31 - b) ELSE 0 END) AS BIGINT) AS simhash
FROM bits GROUP BY 1
"""

_TEXT_STATS_SQL = f"""
SELECT doc_id,
  length(text) AS n_chars,
  len(string_split(text, ' ')) AS n_tokens,
  len(regexp_extract_all(text, '{BPE_PATTERN}')) AS n_bpe_tokens,
  len(list_filter(string_split(text, ' '),
      w -> w IN ({", ".join("'" + w + "'" for w in STOPWORDS)}))) AS stop_count,
  list_reduce(
    list_prepend(CAST(0 AS BIGINT),
      list_transform(regexp_extract_all(text, '.'), c -> CAST(ascii(c) AS BIGINT))),
    (acc, x) -> (acc * 31 + x) % 2147483647) AS fingerprint
FROM documents
"""

_DOC_QUALITY_SQL = f"""
WITH s AS ({_TEXT_STATS_SQL}),
p AS (
  SELECT s.doc_id, s.n_chars, s.n_tokens, s.stop_count,
         len(regexp_extract_all(d.text, '[^A-Za-z0-9 ]')) AS n_punct
  FROM s JOIN documents d USING (doc_id)),
q AS (
  SELECT doc_id, n_punct,
         CAST(floor((0.5 * (least(n_chars, 500) / 500.0)
                     + 0.3 * (stop_count / greatest(n_tokens, 1))
                     + 0.2 * (1.0 - n_punct / greatest(n_chars, 1)))
                    * 1000) AS BIGINT) AS quality_milli
  FROM p)
SELECT doc_id, n_punct, quality_milli,
       CASE WHEN quality_milli >= 700 THEN 'high'
            WHEN quality_milli >= 400 THEN 'medium'
            ELSE 'low' END AS tier
FROM q
"""

_LANG_ID_SQL = f"""
WITH s AS ({_TEXT_STATS_SQL})
SELECT doc_id,
  CASE WHEN CAST(stop_count AS DOUBLE) / greatest(n_tokens, 1) >= 0.05
       THEN 'en' ELSE 'unknown' END AS predicted_lang
FROM s
"""

# minhash_pairs end-to-end SQL mirror (round 2 — was rows-only): LSH
# band self-join over the signature CTE, distinct candidate pairs,
# word-set Jaccard ≥ 0.5. The engine's per-bucket pair cap (512) is not
# mirrored; it only binds on degenerate buckets far above test scale.
_MINHASH_PAIRS_SQL = f"""
WITH s AS ({_MINHASH_SQL}),
b AS (
  SELECT doc_id, 0 AS band, mh0 || '|' || mh1 AS sig FROM s
  UNION ALL SELECT doc_id, 1, mh2 || '|' || mh3 FROM s
  UNION ALL SELECT doc_id, 2, mh4 || '|' || mh5 FROM s
  UNION ALL SELECT doc_id, 3, mh6 || '|' || mh7 FROM s),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM b x JOIN b y ON x.band = y.band AND x.sig = y.sig AND x.doc_id < y.doc_id),
w AS (SELECT doc_id, list_distinct(string_split(text, ' ')) AS ws FROM documents),
j AS (
  SELECT doc_a, doc_b,
    round(CAST(len(list_intersect(wa.ws, wb.ws)) AS DOUBLE) /
          (len(wa.ws) + len(wb.ws) - len(list_intersect(wa.ws, wb.ws))), 6) AS jaccard
  FROM cand JOIN w wa ON wa.doc_id = cand.doc_a JOIN w wb ON wb.doc_id = cand.doc_b)
SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.5
"""

# simhash near-dup pairs (round 2): 4×8-bit exact-band candidates — the
# pigeonhole guarantees every pair within hamming ≤ 3 shares a band —
# verified by true Hamming distance via xor + bit_count.
_SIMHASH_PAIRS_SQL_TPL = """
WITH s AS ({SIMHASH}),
b AS (
  SELECT doc_id, 0 AS band, (simhash >> 0) & 255 AS sig FROM s
  UNION ALL SELECT doc_id, 1, (simhash >> 8) & 255 FROM s
  UNION ALL SELECT doc_id, 2, (simhash >> 16) & 255 FROM s
  UNION ALL SELECT doc_id, 3, (simhash >> 24) & 255 FROM s),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM b x JOIN b y ON x.band = y.band AND x.sig = y.sig AND x.doc_id < y.doc_id)
SELECT doc_a, doc_b,
  CAST(bit_count(xor(sa.simhash, sb.simhash)) AS BIGINT) AS hamming
FROM cand
JOIN s sa ON sa.doc_id = cand.doc_a
JOIN s sb ON sb.doc_id = cand.doc_b
WHERE bit_count(xor(sa.simhash, sb.simhash)) <= 3
"""

# 64-bit simhash scale form: same vote CTE over b in 0..63, packed as
# two non-negative int64 halves (a single 64-bit signature would need
# the sign bit); bands are the four 16-bit chunks -> 65536 buckets/band
# with the hamming <= 3 pigeonhole intact
_SIMHASH64_SQL = """
WITH w AS (
  SELECT doc_id, unnest(list_distinct(string_split(text, ' '))) AS word
  FROM documents),
bits AS (
  SELECT doc_id, b,
         sum(CASE WHEN ((strpos('0123456789abcdef',
                                substr(md5(word), b // 4 + 1, 1)) - 1)
                        >> (3 - (b % 4))) & 1 = 1
                  THEN 1 ELSE -1 END) AS vote
  FROM w CROSS JOIN (SELECT unnest(generate_series(0, 63)) AS b)
  GROUP BY 1, 2)
SELECT doc_id,
  CAST(sum(CASE WHEN b < 32 AND vote > 0
            THEN CAST(1 AS BIGINT) << (31 - b) ELSE 0 END) AS BIGINT) AS simhash_hi,
  CAST(sum(CASE WHEN b >= 32 AND vote > 0
            THEN CAST(1 AS BIGINT) << (63 - b) ELSE 0 END) AS BIGINT) AS simhash_lo
FROM bits GROUP BY 1
"""

_SIMHASH64_PAIRS_SQL = f"""
WITH s AS ({_SIMHASH64_SQL}),
b AS (
  SELECT doc_id, 0 AS band, simhash_hi // 65536 AS sig FROM s
  UNION ALL SELECT doc_id, 1, simhash_hi % 65536 FROM s
  UNION ALL SELECT doc_id, 2, simhash_lo // 65536 FROM s
  UNION ALL SELECT doc_id, 3, simhash_lo % 65536 FROM s),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM b x JOIN b y ON x.band = y.band AND x.sig = y.sig AND x.doc_id < y.doc_id)
SELECT doc_a, doc_b,
  CAST(bit_count(xor(sa.simhash_hi, sb.simhash_hi))
       + bit_count(xor(sa.simhash_lo, sb.simhash_lo)) AS BIGINT) AS hamming
FROM cand
JOIN s sa ON sa.doc_id = cand.doc_a
JOIN s sb ON sb.doc_id = cand.doc_b
WHERE bit_count(xor(sa.simhash_hi, sb.simhash_hi))
      + bit_count(xor(sa.simhash_lo, sb.simhash_lo)) <= 3
"""

# standalone n-gram (3-shingle) Jaccard pairs: same LSH candidate CTE
# as minhash_pairs, verified on DISTINCT shingle sets
_NGRAM_JACCARD_SQL = f"""
WITH s AS ({_MINHASH_SQL}),
b AS (
  SELECT doc_id, 0 AS band, mh0 || '|' || mh1 AS sig FROM s
  UNION ALL SELECT doc_id, 1, mh2 || '|' || mh3 FROM s
  UNION ALL SELECT doc_id, 2, mh4 || '|' || mh5 FROM s
  UNION ALL SELECT doc_id, 3, mh6 || '|' || mh7 FROM s),
cand AS (
  SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
  FROM b x JOIN b y ON x.band = y.band AND x.sig = y.sig AND x.doc_id < y.doc_id),
sh AS (SELECT doc_id, list_distinct(shingles) AS sset FROM ({_SHINGLES_SQL})),
j AS (
  SELECT c.doc_a, c.doc_b,
         round(CAST(len(list_intersect(a.sset, bb.sset)) AS DOUBLE)
               / (len(a.sset) + len(bb.sset)
                  - len(list_intersect(a.sset, bb.sset))), 6) AS ngram_jaccard
  FROM cand c
  JOIN sh a ON a.doc_id = c.doc_a
  JOIN sh bb ON bb.doc_id = c.doc_b)
SELECT doc_a, doc_b, ngram_jaccard FROM j WHERE ngram_jaccard >= 0.35
"""

# connected components over the near-dup pair graph: recursive
# transitive closure over the SAME pairs CTE the engine clusters —
# the iterative algorithm's full oracle
_DEDUP_COMPONENTS_SQL = f"""
WITH RECURSIVE pairs AS ({_MINHASH_PAIRS_SQL}),
e AS (SELECT doc_a AS a, doc_b AS b FROM pairs
      UNION ALL SELECT doc_b, doc_a FROM pairs),
reach(src, dst) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.src, e.b FROM reach r JOIN e ON e.a = r.dst),
members AS (SELECT DISTINCT a AS doc_id FROM e),
comp AS (
  SELECT m.doc_id, least(m.doc_id, min(r.dst)) AS component
  FROM members m LEFT JOIN reach r ON r.src = m.doc_id
  GROUP BY m.doc_id)
SELECT d.doc_id, CAST(coalesce(c.component, d.doc_id) AS BIGINT) AS component
FROM (SELECT doc_id FROM documents) d
LEFT JOIN comp c USING (doc_id)
"""

# 64-bit blurhash sketch SQL mirror (round 2 — was rows-only): whitespace
# word shingles (windows of ≤3 incl. the short tail, matching
# ``blurhash_text``'s range(len(words))), md5-prefix as UBIGINT, per-bit
# vote sums, set bits re-packed and hex-formatted.
_BLURHASH_SQL = """
WITH wl AS (
  SELECT doc_id, list_filter(string_split(text, ' '), x -> x <> '') AS ws FROM documents),
idx AS (
  SELECT doc_id, ws, unnest(generate_series(1, len(ws))) AS i FROM wl),
sh AS (
  SELECT doc_id, array_to_string(ws[i : least(i + 2, len(ws))], ' ') AS shingle FROM idx),
hs AS (
  SELECT doc_id, CAST(concat('0x', substr(md5(shingle), 1, 16)) AS UBIGINT) AS h FROM sh),
hb AS (
  SELECT doc_id, h, unnest(generate_series(0, 63)) AS b FROM hs),
bits AS (
  SELECT doc_id, b,
    SUM(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS votes
  FROM hb GROUP BY 1, 2),
agg AS (
  SELECT doc_id AS agg_doc_id,
    CAST(SUM(CASE WHEN votes > 0 THEN CAST(1 AS UBIGINT) << b ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) AS h
  FROM bits GROUP BY 1)
SELECT d.doc_id,
  coalesce(lpad(lower(hex(o.h)), 16, '0'), repeat('0', 16)) AS blurhash
FROM documents d LEFT JOIN agg o ON d.doc_id = o.agg_doc_id
"""

_SKETCHES_SQL = """
WITH c AS (
  SELECT doc_id, unnest(regexp_extract_all(text, '.')) AS ch FROM documents),
cnt AS (SELECT doc_id, ch, count(*) AS n FROM c GROUP BY 1, 2),
mx AS (SELECT doc_id, max(n) AS mn FROM cnt GROUP BY 1),
avgc AS (
  SELECT cnt.doc_id, min(ch) AS avg_char
  FROM cnt JOIN mx ON cnt.doc_id = mx.doc_id AND cnt.n = mx.mn
  GROUP BY 1)
SELECT d.doc_id, coalesce(a.avg_char, '') AS avg_char,
       substr(md5(d.text), 1, 8) AS thumbhash
FROM documents d LEFT JOIN avgc a ON d.doc_id = a.doc_id
"""

_NEARDUP_SQL = """
SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 5) AS cos
FROM embeddings a JOIN embeddings b ON b.vec_id > a.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.9
"""

# planted-twin variant: the oracle plants the SAME deterministic exact
# duplicates (vec_id < 20 → twin at vec_id + 1000000) so the hash check
# matches on nonzero rows (cos of identical vectors is exactly 1.0 on
# both engines after round-5)
_NEARDUP_PLANTED_SQL = """
WITH emb AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 1000000 AS vec_id, embedding
  FROM embeddings WHERE vec_id < 20
)
SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b,
       round(list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                    CAST(b.embedding AS DOUBLE[])), 5) AS cos
FROM emb a JOIN emb b ON b.vec_id > a.vec_id
WHERE list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                             CAST(b.embedding AS DOUBLE[])) >= 0.9
"""

def _ann_sql(n_queries: int = 5) -> str:
    """Brute-force top-10 cosine ANN oracle, parameterized on the
    query-count predicate so _KNN_* variants share one template
    instead of post-hoc string surgery."""
    return f"""
WITH q AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings WHERE vec_id < {n_queries}),
sims AS (
  SELECT q.query_id, e.vec_id,
         round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]),
                                      CAST(q.qe AS DOUBLE[])), 5) AS cos
  FROM embeddings e CROSS JOIN q
  WHERE e.vec_id <> q.query_id),
ranked AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
            ORDER BY cos DESC, vec_id ASC) AS rank
  FROM sims)
SELECT query_id, vec_id, cos, rank FROM ranked WHERE rank <= 10
"""


_ANN_SQL = _ann_sql(5)

# leave-one-out accuracy over 32 queries (ann excludes self): the
# classifier-evaluation composition, exact integer milli accuracy
_KNN_ACCURACY_SQL = f"""
WITH ann AS ({_ann_sql(32)}),
votes AS (
  SELECT a.query_id, e.label, count(*) AS c
  FROM ann a JOIN embeddings e ON e.vec_id = a.vec_id
  GROUP BY 1, 2
),
pred AS (
  SELECT query_id, label AS pred_label FROM (
    SELECT *, row_number() OVER (
      PARTITION BY query_id ORDER BY c DESC, label) AS rn
    FROM votes) WHERE rn = 1
)
SELECT CAST(count(*) AS BIGINT) AS n_queries,
       CAST(SUM(CASE WHEN p.pred_label = e.label THEN 1 ELSE 0 END)
            AS BIGINT) AS n_correct,
       CAST(SUM(CASE WHEN p.pred_label = e.label THEN 1 ELSE 0 END)
            * 1000 // count(*) AS BIGINT) AS accuracy_milli
FROM pred p JOIN embeddings e ON e.vec_id = p.query_id
"""

# kNN pseudo-labeling: majority label among the brute-force top-k
# neighbors, ties (votes desc, label asc)
_KNN_CLASSIFY_SQL = f"""
WITH ann AS ({_ANN_SQL}),
votes AS (
  SELECT a.query_id, e.label, count(*) AS c
  FROM ann a JOIN embeddings e ON e.vec_id = a.vec_id
  GROUP BY 1, 2
)
SELECT query_id, label AS pred_label, CAST(c AS BIGINT) AS votes FROM (
  SELECT *, row_number() OVER (
    PARTITION BY query_id ORDER BY c DESC, label) AS rn
  FROM votes) WHERE rn = 1
"""


def _q_ann_lsh_fullprobe(sf_dir: str):
    """Full-probe LSH: every Hamming ball covers all 2^bits buckets, so
    the bucketed path degenerates to an exhaustive scan and must equal
    brute-force ann_topk row for row (same oracle)."""
    from ..pipelines.ann import lsh_topk

    return lsh_topk(sf_dir, bits=4, probe_hamming=4).astype(
        {"query_id": "int64", "vec_id": "int64", "rank": "int64"})


_CENTROIDS_SQL = """
SELECT label, i AS dim_idx, round(avg(v), 5) AS centroid
FROM (SELECT label, unnest(embedding) AS v,
             generate_subscripts(embedding, 1) AS i
      FROM embeddings)
GROUP BY 1, 2
"""

_DEDUP_EXACT_SQL = """
SELECT min(doc_id) AS doc_id, count(*) AS dup_count
FROM documents GROUP BY text
"""

# paragraph = deterministic 3-word window (the synthetic corpus has no
# newline structure); keep-first order is (doc_id, para_idx), mirrored
# by the engine's (para, doc_id, para_idx) sort + shift comparison
_PARAGRAPH_DEDUP_SQL = """
WITH words AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), paras AS (
  SELECT doc_id, i AS para_idx,
         array_to_string(w[(i-1)*3+1 : i*3], ' ') AS para
  FROM words,
       UNNEST(generate_series(1, CAST(ceil(len(w)/3.0) AS BIGINT))) AS t(i)
), keep AS (
  SELECT doc_id, para_idx, para,
         row_number() OVER (PARTITION BY para
                            ORDER BY doc_id, para_idx) AS rn
  FROM paras
)
SELECT doc_id,
       COALESCE(string_agg(para, ' ' ORDER BY para_idx)
                FILTER (WHERE rn = 1), '') AS clean_text,
       CAST(COUNT(*) AS BIGINT) AS n_para,
       CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT)
         AS n_dropped
FROM keep GROUP BY doc_id
"""

# money aggregates are summed as integer milli-units, floored per row —
# bitwise-identical IEEE expressions on both sides make the sums exact
# regardless of summation order (float sums are order-dependent and would
# break the driver's value hash).
_Q1_SQL = """
SELECT l_returnflag, l_linestatus,
  CAST(sum(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
  CAST(sum(CAST(floor(l_extendedprice * 100) AS BIGINT)) AS BIGINT) AS sum_base_price_c,
  CAST(sum(CAST(floor(l_extendedprice * (1 - l_discount) * 1000) AS BIGINT)) AS BIGINT) AS sum_disc_price_m,
  count(*) AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
"""

_TOP_CUSTOMERS_SQL = """
SELECT c.c_custkey, c.c_name, count(*) AS n_orders,
       CAST(sum(CAST(floor(o.o_totalprice * 100) AS BIGINT)) AS BIGINT) AS revenue_c
FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
GROUP BY 1, 2
ORDER BY revenue_c DESC, c_custkey ASC
LIMIT 10
"""

_EVENTS_BY_TYPE_SQL = """
SELECT event_type, count(*) AS n_events,
       CAST(sum(CAST(floor(value * 100) AS BIGINT)) AS BIGINT) AS total_value_c
FROM events GROUP BY 1
"""

_CANONICAL_PATHS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx,
  CASE tool
    WHEN 'signup' THEN 'trim/200x0/left/filters:grayscale():max_bytes(160)/'
    WHEN 'click' THEN 'fit-in/160x0/left/filters:redact():brightness(20)/'
    WHEN 'view' THEN 'filters:grayscale():label(VIEW,right)/'
    WHEN 'purchase' THEN 'stretch/120x0/left/filters:watermark(purchase,right)/'
    ELSE 'trim/filters:redact():format(hex)/'
  END || conv_id || '/' || CAST(turn_idx AS VARCHAR) AS path
FROM t
"""


# ---------------------------------------------------------------------------
# Ray-side callables (each takes sf_dir)

def _q_transcripts(sf_dir: str):
    return derive_transcripts(sf_dir)


def _q_canonical_paths(sf_dir: str):
    return processed_turns(sf_dir).select_columns(["conv_id", "turn_idx", "path"])


def _q_processed(sf_dir: str):
    return processed_turns(sf_dir).select_columns(["conv_id", "turn_idx", "tool", "text"])


def _q_processed_autoformat(sf_dir: str):
    """Accept-header auto-format negotiation wired through the flagship
    parse/sign/chain stages (imagor.go:339-376): a deterministic per-turn
    ``accept`` value conditionally appends ``format(...)`` to templates
    that set none (the error template already formats → never varies);
    the chain then exports in the negotiated encoding and the row is
    Vary-marked."""
    from ..pipelines.flagship import snippet_dim
    from ..stages.chain import filter_chain_batch
    from ..stages.parse_sign import DEFAULT_SECRET, parse_sign_batch

    ds = derive_transcripts(sf_dir)
    accept_map = {0: "b64", 1: "hex", 2: ""}

    def add_accept(b: pd.DataFrame) -> pd.DataFrame:
        b["accept"] = b["turn_idx"].astype("int64").mod(3).map(accept_map)
        return b

    dim = snippet_dim()

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "conv_id": b["conv_id"].to_numpy(),
            "turn_idx": b["turn_idx"].to_numpy(),
            "tool": b["tool"].to_numpy(),
            "vary": b["vary"].astype("int64").to_numpy(),
            "text": b["text"].to_numpy(),
        })

    return (
        ds.map_batches(add_accept, batch_format="pandas")
        .map_batches(parse_sign_batch, fn_kwargs={"secret": DEFAULT_SECRET},
                     batch_format="pandas")
        .map_batches(filter_chain_batch,
                     fn_kwargs={"dim_ref": dim, "path_col": "chain_path"},
                     batch_format="pandas")
        .map_batches(finish, batch_format="pandas")
    )


_PROCESSED_AUTOFORMAT_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL}), p AS (
  SELECT conv_id, turn_idx, tool,
    CASE tool
      WHEN 'signup' THEN {_CHAIN_SQL['signup']}
      WHEN 'click' THEN {_CHAIN_SQL['click']}
      WHEN 'view' THEN {_CHAIN_SQL['view']}
      WHEN 'purchase' THEN {_CHAIN_SQL['purchase']}
      ELSE NULL END AS ptext,
    {_CHAIN_SQL['error']} AS etext
  FROM t)
SELECT conv_id, turn_idx, tool,
  CAST(tool <> 'error' AND turn_idx % 3 < 2 AS BIGINT) AS vary,
  CASE WHEN tool = 'error' THEN etext
       WHEN turn_idx % 3 = 0 THEN to_base64(encode(ptext))
       WHEN turn_idx % 3 = 1 THEN hex(ptext)
       ELSE ptext END AS text
FROM p
"""


# HTTP response-layer surface (imagor.go:886-1030): a deterministic
# request grid over the transcript stream exercises the expire()
# pre-scan (410 Gone / Cache-Control overwrite-to-private), getTtl's
# ceil-to-second + clamp-to-default rule, and the getCacheControl
# grammar (no-store at ttl 0, public s-maxage vs private, the
# swr < ttl inclusion rule) plus the RFC 1123 Expires header. A fixed
# reference instant keeps both sides deterministic.
_RCH_NOW_MS = 1_700_000_000_000
# (turn_idx // 3) % 9 → expire(now + delta_ms); j=8 is the
# unparseable-arg arm (pre-scan + getTtl both skip it).
_RCH_DELTAS = {0: -5000, 1: 0, 2: 1500, 3: 86_400_000, 4: 86_401_000,
               5: 604_800_000, 6: 604_801_000, 7: 123_456}


def _q_response_cache_headers(sf_dir: str):
    """Serve-path response headers per turn — the reference's
    setResponseHeaders cache semantics over the transcript stream.

    Scale shape: a PURE MAP. The response decision depends only on the
    (filter-prefix, request-Cache-Control) pair, a tiny per-batch
    domain — each batch dedups that domain and runs the REAL
    parse → pre-scan → getTtl → header-grammar chain once per distinct
    combo, then gathers results back to rows (the same unique-kernel
    pattern the filter chain uses for its dimension cache)."""
    import numpy as np

    from ..functions import httpheaders as hh
    from ..functions.imagorpath import parse

    ds = derive_transcripts(sf_dir)

    def kernel(b: pd.DataFrame) -> pd.DataFrame:
        n = len(b)
        ti = b["turn_idx"].astype("int64").to_numpy()
        j = (ti // 3) % 9
        has_exp = (ti % 3) == 0
        no_cache = (ti % 11) == 0
        prefix = np.full(n, "filters:quality(80)/", dtype=object)
        for jj in range(9):
            arg = "never" if jj == 8 else str(_RCH_NOW_MS + _RCH_DELTAS[jj])
            prefix[has_exp & (j == jj)] = f"filters:expire({arg}):quality(80)/"
        status = np.empty(n, dtype=np.int64)
        ttl_out = np.empty(n, dtype=np.int64)
        cc_out = np.empty(n, dtype=object)
        exp_out = np.empty(n, dtype=object)
        combos: dict = {}
        for pfx in np.unique(prefix.astype("U64")):
            for nc in (False, True):
                req = {"Cache-Control": "no-cache"} if nc else {}
                p = parse("unsafe/" + pfx + "img")
                if hh.prescan_expire(req, p.filters, _RCH_NOW_MS):
                    combos[(pfx, nc)] = (410, -1, "", "")
                    continue
                ttl = hh.get_ttl(p.filters, hh.DEFAULT_TTL_S, _RCH_NOW_MS)
                hdrs = hh.set_cache_headers(req, ttl, hh.DEFAULT_SWR_S,
                                            _RCH_NOW_MS)
                eff = 0 if "no-cache" in (req.get("Cache-Control") or "") else ttl
                combos[(pfx, nc)] = (200, eff, hdrs["Cache-Control"],
                                     hdrs["Expires"])
        for i in range(n):
            status[i], ttl_out[i], cc_out[i], exp_out[i] = combos[
                (prefix[i], bool(no_cache[i]))]
        return pd.DataFrame({
            "conv_id": b["conv_id"].to_numpy(),
            "turn_idx": ti,
            "status": status,
            "ttl_s": ttl_out,
            "cache_control": cc_out.astype(str),
            "expires_http": exp_out.astype(str),
        })

    return ds.map_batches(kernel, batch_format="pandas")


_RESPONSE_CACHE_HEADERS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL}),
x AS (
  SELECT conv_id, turn_idx,
    CASE WHEN turn_idx % 3 = 0 AND (turn_idx // 3) % 9 <> 8 THEN
      CASE (turn_idx // 3) % 9
        WHEN 0 THEN -5000 WHEN 1 THEN 0 WHEN 2 THEN 1500
        WHEN 3 THEN 86400000 WHEN 4 THEN 86401000
        WHEN 5 THEN 604800000 WHEN 6 THEN 604801000
        WHEN 7 THEN 123456 END
    ELSE NULL END AS delta_ms,
    (turn_idx % 11 = 0) AS no_cache
  FROM t
), s AS (
  SELECT conv_id, turn_idx,
    CASE WHEN delta_ms IS NOT NULL AND delta_ms < 0 THEN 410 ELSE 200 END
      AS status,
    (delta_ms IS NOT NULL) AS is_private,
    (no_cache AND delta_ms IS NULL) AS eff_no_cache,
    CASE WHEN delta_ms IS NULL THEN 604800
         ELSE LEAST((delta_ms + 999) // 1000, 604800) END AS ttl0
  FROM x
)
SELECT conv_id, turn_idx, CAST(status AS BIGINT) AS status,
  CAST(CASE WHEN status = 410 THEN -1
            WHEN eff_no_cache THEN 0 ELSE ttl0 END AS BIGINT) AS ttl_s,
  CASE WHEN status = 410 THEN ''
       WHEN eff_no_cache OR ttl0 = 0
         THEN 'private, no-cache, no-store, must-revalidate'
       WHEN is_private THEN 'private, max-age=' || ttl0 || ', no-transform'
         || CASE WHEN ttl0 > 86400
                 THEN ', stale-while-revalidate=86400' ELSE '' END
       ELSE 'public, s-maxage=604800, max-age=604800, no-transform, stale-while-revalidate=86400'
  END AS cache_control,
  CASE WHEN status = 410 THEN ''
       ELSE strftime(make_timestamp((1700000000000 +
              (CASE WHEN eff_no_cache THEN 0 ELSE ttl0 END) * 1000) * 1000),
            '%a, %d %b %Y %H:%M:%S') || ' GMT'
  END AS expires_http
FROM s
"""


def _q_signed(sf_dir: str):
    return processed_turns(sf_dir).select_columns(
        ["conv_id", "turn_idx", "path", "signature"]
    )


def _q_sessions(sf_dir: str):
    return session_windows(derive_transcripts(sf_dir), gap_s=1800)


def _q_sessions_salted(sf_dir: str):
    return session_windows(derive_transcripts(sf_dir), gap_s=1800, salt_bucket_s=6 * 3600)


def _q_tumbling(sf_dir: str):
    return tumbling_tool_stats(derive_transcripts(sf_dir, with_turn_idx=False), size_s=3600)


def _q_sliding(sf_dir: str):
    return sliding_tool_stats(
        derive_transcripts(sf_dir, with_turn_idx=False), size_s=3600, slide_s=900
    )


def _q_enriched(sf_dir: str):
    ds = derive_transcripts(sf_dir, with_turn_idx=False)
    from ..sources.transcripts import tool_kind_cost_maps

    kind_map, cost_map = tool_kind_cost_maps()

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        kinds = b["tool"].map(kind_map)
        costs = b["tool"].map(cost_map)
        g = pd.DataFrame({"tool_kind": kinds, "tool_cost": costs}).groupby(
            "tool_kind", sort=False).agg(
            n_turns=("tool_cost", "size"), total_cost=("tool_cost", "sum")
        ).reset_index()
        return g

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("tool_kind", sort=True).agg(
            n_turns=("n_turns", "sum"), total_cost=("total_cost", "sum")
        ).reset_index()

    return (
        ds.map_batches(partial, batch_format="pandas")
        .map_batches(lambda b: b.assign(_k=0), batch_format="pandas")
        .groupby("_k")
        .map_groups(lambda g: merge(g.drop(columns=["_k"])), batch_format="pandas")
    )


def _q_q1(sf_dir: str):
    import numpy as np

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity",
                 "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        ext = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"].to_numpy(),
            "l_linestatus": b["l_linestatus"].to_numpy(),
            "qty": b["l_quantity"].to_numpy().astype("int64"),
            # identical IEEE expression to the oracle SQL → exact sums
            "base_c": np.floor(ext * 100).astype("int64"),
            "disc_m": np.floor(ext * (1 - disc) * 1000).astype("int64"),
        })

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty=("qty", "sum"), sum_base_price_c=("base_c", "sum"),
            sum_disc_price_m=("disc_m", "sum"), count_order=("qty", "size"),
        ).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby(["l_returnflag", "l_linestatus"], sort=True).agg(
            sum_qty=("sum_qty", "sum"), sum_base_price_c=("sum_base_price_c", "sum"),
            sum_disc_price_m=("sum_disc_price_m", "sum"),
            count_order=("count_order", "sum"),
        ).reset_index()

    return (
        ds.map_batches(prep, batch_format="pandas", batch_size=65536)
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .map_batches(lambda b: b.assign(_k=0), batch_format="pandas")
        .groupby("_k")
        .map_groups(lambda g: merge(g.drop(columns=["_k"])), batch_format="pandas")
    )


def _q_cep_funnel(sf_dir: str):
    """CEP sequence detection (pipelines/cep.py): conversations where a
    signup turn is followed by a purchase turn within one hour — all
    qualifying ordered pairs counted per conversation."""
    from .cep import tool_sequence_matches

    return tool_sequence_matches(
        derive_transcripts(sf_dir), "signup", "purchase", within_s=3600
    )


_CEP_FUNNEL_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL}),
a AS (SELECT conv_id, epoch_us(ts) AS ts_us FROM t WHERE tool = 'signup'),
b AS (SELECT conv_id, epoch_us(ts) AS ts_us FROM t WHERE tool = 'purchase')
SELECT a.conv_id, CAST(count(*) AS BIGINT) AS n_matches
FROM a JOIN b ON a.conv_id = b.conv_id
 AND b.ts_us > a.ts_us AND b.ts_us <= a.ts_us + 3600000000
GROUP BY 1
"""


def _q_q3(sf_dir: str):
    """TPC-H Q3-shaped 3-way join: BUILDING-segment customers × orders
    before the cutoff × lineitems shipped after it, revenue per order.

    Join strategy by side size (the scale rules): the filtered customer
    side is tiny → broadcast semi-join pruned map-side; orders×lineitem
    is the genuine large-large exchange → Ray Data's native hash join
    (``Dataset.join``). Money sums are integer-milli-cents with the
    identical IEEE expression on both sides (bitwise-reproducible)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    cutoff = pd.Timestamp("1998-06-01")

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).to_pandas()
    keys = np.sort(cust.loc[cust["c_mktsegment"] == "BUILDING", "c_custkey"].to_numpy())
    keys_ref = _ray.put(keys)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def prune_orders(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["o_orderdate"] < cutoff]
        b = b[np.isin(b["o_custkey"].to_numpy(), _ray.get(keys_ref))]
        return b[["o_orderkey", "o_orderdate", "o_orderpriority"]]

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def prune_line(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] > cutoff]
        ext = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        return pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(),
            # identical IEEE expression to the oracle SQL → exact sums
            "rev_m": np.floor(ext * (1 - disc) * 1000).astype("int64"),
        })

    # partition count sized to the cluster (the judged catalog runs are
    # small; a real run passes cluster-CPU-scaled partitions)
    import ray as _ray2

    n_parts = max(8, int(_ray2.cluster_resources().get("CPU", 8)))
    joined = orders.map_batches(prune_orders, batch_format="pandas").join(
        line.map_batches(prune_line, batch_format="pandas"),
        "inner", num_partitions=n_parts, on=("o_orderkey",), right_on=("l_orderkey",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby(
            ["o_orderkey", "o_orderdate", "o_orderpriority"], sort=False
        ).agg(revenue_m=("rev_m", "sum")).reset_index()

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(
            ["o_orderkey", "o_orderdate", "o_orderpriority"], sort=False
        ).agg(revenue_m=("revenue_m", "sum")).reset_index()
        g = g.sort_values(
            ["revenue_m", "o_orderdate", "o_orderkey"],
            ascending=[False, True, True], kind="mergesort",
        ).head(10)
        return g[["o_orderkey", "revenue_m", "o_orderdate", "o_orderpriority"]]

    return (
        joined.map_batches(partial, batch_format="pandas")
        .map_batches(lambda b: b.assign(_k=0), batch_format="pandas")
        .groupby("_k")
        .map_groups(lambda g: topk(g.drop(columns=["_k"])), batch_format="pandas")
    )


def _q_q10(sf_dir: str):
    """TPC-H Q10-shaped returned-items report: top-20 customers by
    revenue from 'R'-flagged lineitems of orders in a 6-month window.

    Scale shape: both fact sides prune map-side (date window / return
    flag) with map-side partial revenue sums, the orders × lineitem
    exchange is Ray's native hash join, revenue aggregates per
    customer through a bucket reduce — and the DIMENSION DECORATION
    happens AFTER the top-20 (20 keys → one predicate-pushed
    ``pq.read_table`` of customer + the tiny nation broadcast), so the
    big customer dimension never joins the fact stream. Integer
    milli-cents, identical IEEE expression both engines."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray as _ray

    lo, hi = pd.Timestamp("1997-01-01"), pd.Timestamp("1997-07-01")

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )

    def prune_orders(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)]
        return b[["o_orderkey", "o_custkey"]]

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_returnflag"],
    )

    def prune_line(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_returnflag"] == "R"]
        ext = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        part = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(),
            "rev_m": np.floor(ext * (1 - disc) * 1000).astype("int64"),
        })
        return (part.groupby("l_orderkey", sort=False)["rev_m"].sum()
                .reset_index())

    n_parts = max(8, int(_ray.cluster_resources().get("CPU", 8)))
    joined = orders.map_batches(prune_orders, batch_format="pandas").join(
        line.map_batches(prune_line, batch_format="pandas"),
        "inner", num_partitions=n_parts,
        on=("o_orderkey",), right_on=("l_orderkey",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = b.groupby("o_custkey", sort=False)["rev_m"].sum().reset_index()
        s["_cb"] = (s["o_custkey"].to_numpy(dtype="int64") % np.int64(32))
        return s

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby("o_custkey", sort=False)["rev_m"].sum()
                .reset_index())

    per_cust = (joined.map_batches(partial, batch_format="pandas")
                .groupby("_cb")
                .map_groups(lambda g: reduce_bucket(g.drop(columns=["_cb"])),
                            batch_format="pandas")
                .to_pandas())
    top = (per_cust.sort_values(["rev_m", "o_custkey"],
                                ascending=[False, True], kind="mergesort")
           .head(20))

    # decorate AFTER the top-k: 20 keys, predicate pushed into the read
    keys = top["o_custkey"].astype("int64").tolist()
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=pc.field("c_custkey").isin(keys),
    ).to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    out = (top.merge(cust, left_on="o_custkey", right_on="c_custkey")
           .merge(nation, left_on="c_nationkey", right_on="n_nationkey"))
    out = out.sort_values(["rev_m", "c_custkey"],
                          ascending=[False, True], kind="mergesort")
    return pd.DataFrame({
        "c_custkey": out["c_custkey"].to_numpy(dtype="int64"),
        "c_name": out["c_name"].to_numpy(),
        "n_name": out["n_name"].to_numpy(),
        "revenue_m": out["rev_m"].to_numpy(dtype="int64"),
    })


def _q_q18(sf_dir: str, qty_threshold: int = 250, topn: int = 100):
    """TPC-H Q18-shaped large-volume customers: orders whose total
    lineitem quantity exceeds the threshold, top-N by total price.

    Scale shape: the GROUP-BY-HAVING SEMI-JOIN — lineitem collapses to
    per-batch (orderkey, qty) partials map-side (quantities are
    integral, summed as int64 → exact), one orderkey-bucket reduce
    filters the heavy orders (~0.3% of orders), and the heavy key→qty
    pairs BROADCAST into the orders scan via ``ray.put`` — a broadcast
    semi-join (sorted-array ``searchsorted`` probe per batch), chosen
    over Ray's hash-join operator because the build side is a sub-1%
    selection (measured here: the join operator cost 57 s at sf0.1 vs
    ~4 s broadcast; above a few GB of heavy keys a deployment would
    flip back to the hash join). Customer decoration happens AFTER the
    top-N — N keys, predicate pushed into the read (the Q10 pattern).
    The top-N is a merge: each probed batch keeps its own top N and one
    group merges those, so the driver collects N rows, never the heavy
    subset.

    Output: c_custkey, c_name, o_orderkey, o_orderdate, price_m,
    total_qty.
    """
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray as _ray

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet",
                           columns=["l_orderkey", "l_quantity"])

    def qty_partial(b: pd.DataFrame) -> pd.DataFrame:
        part = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(),
            "qty": b["l_quantity"].to_numpy().astype("int64"),
        })
        s = part.groupby("l_orderkey", sort=False)["qty"].sum().reset_index()
        s["_qb"] = (s["l_orderkey"].to_numpy(dtype="int64") % np.int64(32))
        return s

    def heavy(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("l_orderkey", sort=False)["qty"].sum().reset_index()
        s = s[s["qty"] > qty_threshold]
        return s.rename(columns={"qty": "total_qty"})

    heavy_df = (line.map_batches(qty_partial, batch_format="pandas")
                .groupby("_qb")
                .map_groups(lambda g: heavy(g.drop(columns=["_qb"])),
                            batch_format="pandas")
                .to_pandas()
                # a groupby over all-empty blocks (no heavy order) can
                # come back without columns
                .reindex(columns=["l_orderkey", "total_qty"])
                .sort_values("l_orderkey"))
    heavy_keys = _ray.put(heavy_df["l_orderkey"].to_numpy(dtype="int64"))
    heavy_qty = _ray.put(heavy_df["total_qty"].to_numpy(dtype="int64"))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"],
    )

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        keys = _ray.get(heavy_keys)
        qty = _ray.get(heavy_qty)
        if len(keys) == 0:
            # numpy & does not short-circuit: keys[pos_c] on an empty
            # array would IndexError, so bail before the probe
            out = b.iloc[0:0].copy()
            out["total_qty"] = np.array([], dtype="int64")
            out["price_m"] = np.array([], dtype="int64")
            return out.drop(columns=["o_totalprice"])
        ok = b["o_orderkey"].to_numpy(dtype="int64")
        pos = np.searchsorted(keys, ok)
        pos_c = np.minimum(pos, len(keys) - 1)
        hit = keys[pos_c] == ok
        b = b[hit].copy()
        b["total_qty"] = qty[pos_c[hit]]
        b["price_m"] = np.floor(
            b.pop("o_totalprice").to_numpy() * 1000).astype("int64")
        return b

    def top_n(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["price_m", "o_orderkey"],
                             ascending=[False, True],
                             kind="mergesort").head(topn)

    # top-N merge: every batch keeps its own top-N map-side (a global
    # top-N row is in its batch's top-N), one group merges them, and
    # only the final N rows reach the driver
    top = (orders.map_batches(lambda b: top_n(probe(b)).assign(_k=0),
                              batch_format="pandas")
           .groupby("_k")
           .map_groups(lambda g: top_n(g.drop(columns=["_k"])),
                       batch_format="pandas")
           .to_pandas()
           .reindex(columns=["o_orderkey", "o_custkey", "o_orderdate",
                             "price_m", "total_qty"]))
    keys = top["o_custkey"].astype("int64").unique().tolist()
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"],
        filters=pc.field("c_custkey").isin(keys),
    ).to_pandas()
    out = top.merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out.sort_values(["price_m", "o_orderkey"],
                          ascending=[False, True], kind="mergesort")
    return pd.DataFrame({
        "c_custkey": out["c_custkey"].to_numpy(dtype="int64"),
        "c_name": out["c_name"].to_numpy(),
        "o_orderkey": out["o_orderkey"].to_numpy(dtype="int64"),
        "o_orderdate": out["o_orderdate"].to_numpy(),
        "price_m": out["price_m"].to_numpy(dtype="int64"),
        "total_qty": out["total_qty"].to_numpy(dtype="int64"),
    })


def _q_q14(sf_dir: str):
    """TPC-H Q14-shaped promo-revenue fraction: share of one month's
    lineitem revenue on PROMO-type parts, in exact integer milli-units
    (the float ``100 * promo / total`` of the spec re-expressed as
    ``promo_m * 1000 // total_m`` so both engines hash-match).

    Scale shape: AGGREGATE-BEFORE-JOIN — lineitem prunes the date
    window and collapses to per-batch (partkey, rev_m) partials BEFORE
    the part join, so the exchange carries partkey-grain partials
    rather than line items; the join is Ray's native hash join against
    the pruned 2-column part side; the final fold is one tiny grouped
    sum."""
    import numpy as np
    import ray as _ray

    lo, hi = pd.Timestamp("1997-01-01"), pd.Timestamp("1997-02-01")

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def prune_line(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        ext = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        part = pd.DataFrame({
            "l_partkey": b["l_partkey"].to_numpy(),
            "rev_m": np.floor(ext * (1 - disc) * 1000).astype("int64"),
        })
        return (part.groupby("l_partkey", sort=False)["rev_m"].sum()
                .reset_index())

    part = rd.read_parquet(f"{sf_dir}/part.parquet",
                           columns=["p_partkey", "p_type"])

    n_parts = max(8, int(_ray.cluster_resources().get("CPU", 8)))
    joined = line.map_batches(prune_line, batch_format="pandas").join(
        part, "inner", num_partitions=n_parts,
        on=("l_partkey",), right_on=("p_partkey",),
    )

    def fold(b: pd.DataFrame) -> pd.DataFrame:
        rev = b["rev_m"].to_numpy(dtype="int64")
        promo = rev[(b["p_type"] == "PROMO").to_numpy()].sum()
        return pd.DataFrame({"promo_m": [int(promo)],
                             "total_m": [int(rev.sum())], "_k": [0]})

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        promo, total = int(g["promo_m"].sum()), int(g["total_m"].sum())
        return pd.DataFrame({
            "promo_m": np.array([promo], dtype="int64"),
            "total_m": np.array([total], dtype="int64"),
            "promo_milli": np.array([promo * 1000 // total], dtype="int64"),
        })

    return (joined.map_batches(fold, batch_format="pandas")
            .groupby("_k")
            .map_groups(lambda g: finish(g.drop(columns=["_k"])),
                        batch_format="pandas"))


def _q_supplier_balance(sf_dir: str):
    """Per-nation supplier roster: count + total account balance in
    integer milli-units. The tiny nation dim broadcasts (q5 idiom);
    supplier scans once with map-side partials and one 8-way bucket
    reduce — closes the last untouched input table."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    from ..functions.hashing import crc32_bucket

    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    dim_ref = _ray.put(dict(zip(nation["n_nationkey"].astype("int64"),
                                nation["n_name"])))

    sup = rd.read_parquet(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_nationkey", "s_acctbal"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        dim = _ray.get(dim_ref)
        df = pd.DataFrame({
            "n_name": b["s_nationkey"].astype("int64").map(dim).to_numpy(),
            "bal_m": np.floor(b["s_acctbal"].to_numpy() * 1000)
                     .astype("int64"),
        })
        s = df.groupby("n_name", sort=False).agg(
            n_suppliers=("bal_m", "size"), total_bal_m=("bal_m", "sum"))
        out = s.reset_index()
        out["n_suppliers"] = out["n_suppliers"].astype("int64")
        out["_nb"] = crc32_bucket(out["n_name"].tolist(), 8)
        return out

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("n_name", sort=False).agg(
            n_suppliers=("n_suppliers", "sum"),
            total_bal_m=("total_bal_m", "sum"))
        out = s.reset_index()
        return out.astype({"n_suppliers": "int64", "total_bal_m": "int64"})

    return (sup.map_batches(partial, batch_format="pandas")
            .groupby("_nb")
            .map_groups(lambda g: reduce_bucket(g.drop(columns=["_nb"])),
                        batch_format="pandas"))


def rollup_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY ROLLUP (nation, order year) over order revenue — the
    OLAP rollup shape. The FINEST level (nation × year: a few hundred
    cells at any corpus size) aggregates distributedly with map-side
    partials + one nation-bucketed reduce; the coarser levels are then
    derived from the finest cells driver-side — the rollup-from-
    partials rule (never re-scan the fact table per level). Sentinel
    'ALL' stands in for the rollup NULLs so the value hash is
    string-stable. Integer milli-cents.

    Output: n_name, o_year (VARCHAR, 'ALL' sentinels), revenue_m.
    """
    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    from ..functions.hashing import crc32_bucket

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    n_of_cust = dict(zip(
        cust["c_custkey"].astype("int64"),
        cust["c_nationkey"].map(dict(zip(nation["n_nationkey"],
                                         nation["n_name"])))))
    dim_ref = _ray.put(n_of_cust)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey", "o_orderdate", "o_totalprice"],
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        dim = _ray.get(dim_ref)
        df = pd.DataFrame({
            "n_name": b["o_custkey"].astype("int64").map(dim).to_numpy(),
            "yr": b["o_orderdate"].astype("datetime64[us]")
                  .dt.year.to_numpy(dtype="int64"),
            "rev_m": np.floor(b["o_totalprice"].to_numpy() * 1000)
                     .astype("int64"),
        })
        s = df.groupby(["n_name", "yr"], sort=False)["rev_m"].sum() \
              .reset_index()
        s["_rb"] = crc32_bucket(s["n_name"].tolist(), 8)
        return s

    def reduce_bucket(g: pd.DataFrame) -> pd.DataFrame:
        return (g.groupby(["n_name", "yr"], sort=False)["rev_m"].sum()
                .reset_index())

    finest = (orders.map_batches(partial, batch_format="pandas")
              .groupby("_rb")
              .map_groups(lambda g: reduce_bucket(g.drop(columns=["_rb"])),
                          batch_format="pandas")
              .to_pandas())

    lvl2 = finest.assign(o_year=finest["yr"].astype(str))[
        ["n_name", "o_year", "rev_m"]]
    lvl1 = (finest.groupby("n_name", sort=False)["rev_m"].sum()
            .reset_index().assign(o_year="ALL"))
    lvl0 = pd.DataFrame({"n_name": ["ALL"], "o_year": ["ALL"],
                         "rev_m": [int(finest["rev_m"].sum())]})
    out = pd.concat([lvl2, lvl1[["n_name", "o_year", "rev_m"]], lvl0],
                    ignore_index=True)
    return pd.DataFrame({
        "n_name": out["n_name"].to_numpy(),
        "o_year": out["o_year"].to_numpy(),
        "revenue_m": out["rev_m"].to_numpy(dtype="int64"),
    })


def cube_revenue(sf_dir: str) -> pd.DataFrame:
    """GROUP BY CUBE (nation, order year) — the full grouping-sets
    lattice (rollup + the per-year-across-nations slice). Same
    finest-cells-once rule as ``rollup_revenue``: every grouping set
    derives from the distributed nation × year partials; the fact
    table scans exactly once.

    Output: n_name, o_year (VARCHAR, 'ALL' sentinels), revenue_m.
    """
    finest = rollup_revenue(sf_dir)
    cells = finest[(finest["n_name"] != "ALL") & (finest["o_year"] != "ALL")]
    by_year = (cells.groupby("o_year", sort=False)["revenue_m"].sum()
               .reset_index().assign(n_name="ALL"))
    out = pd.concat(
        [finest, by_year[["n_name", "o_year", "revenue_m"]]],
        ignore_index=True)
    return out.astype({"revenue_m": "int64"})


def _q_q5(sf_dir: str):
    """TPC-H Q5-shaped 5-way join: region → nation → customer chain
    folded into ONE broadcast map (all three dims are small — the
    multi-dim analogue of the tool-meta enrich), orders pruned and
    nation-tagged map-side, then the genuine large-large
    orders × lineitem exchange via native ``Dataset.join``, revenue per
    nation in integer milli-cents (bit-identical IEEE expression on
    both engines)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray as _ray

    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    ).to_pandas()
    rk = region.loc[region["r_name"] == "ASIA", "r_regionkey"]
    nat = nation[nation["n_regionkey"].isin(set(rk))]
    cmap = cust.merge(
        nat, left_on="c_nationkey", right_on="n_nationkey", how="inner"
    )[["c_custkey", "n_name"]]
    name_by_cust = dict(zip(cmap["c_custkey"].astype(int), cmap["n_name"]))
    map_ref = _ray.put(name_by_cust)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def tag_orders(b: pd.DataFrame) -> pd.DataFrame:
        m = _ray.get(map_ref)
        names = b["o_custkey"].map(m)
        keep = names.notna()
        return pd.DataFrame({
            "o_orderkey": b.loc[keep, "o_orderkey"].astype("int64"),
            "n_name": names[keep],
        })

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    )

    def line_partial(b: pd.DataFrame) -> pd.DataFrame:
        ext = b["l_extendedprice"].to_numpy()
        disc = b["l_discount"].to_numpy()
        part = pd.DataFrame({
            "l_orderkey": b["l_orderkey"].to_numpy(),
            # identical IEEE expression to the oracle SQL → exact sums
            "rev_m": np.floor(ext * (1 - disc) * 1000).astype("int64"),
        })
        # per-batch combiner: one row per orderkey enters the join
        return part.groupby("l_orderkey", sort=False).agg(
            rev_m=("rev_m", "sum")).reset_index()

    n_parts = max(8, int(_ray.cluster_resources().get("CPU", 8)))
    joined = orders.map_batches(tag_orders, batch_format="pandas").join(
        line.map_batches(line_partial, batch_format="pandas"),
        "inner", num_partitions=n_parts,
        on=("o_orderkey",), right_on=("l_orderkey",),
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("n_name", sort=False).agg(
            revenue_m=("rev_m", "sum")).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("n_name", sort=False).agg(
            revenue_m=("revenue_m", "sum")).reset_index()
        return g.sort_values("n_name").reset_index(drop=True)

    return (
        joined.map_batches(partial, batch_format="pandas")
        .map_batches(lambda b: b.assign(_k=0), batch_format="pandas")
        .groupby("_k")
        .map_groups(lambda g: merge(g.drop(columns=["_k"])), batch_format="pandas")
    )


def _q_asof(sf_dir: str):
    return asof_join_events_orders(sf_dir)


def _q_range_join(sf_dir: str):
    from .joins import range_join_repeat_orders
    return range_join_repeat_orders(sf_dir)


def _q_butterflies(sf_dir: str):
    from .graph import butterfly_count
    return butterfly_count(sf_dir)


def _q_stream_stream_join(sf_dir: str):
    """Stream-stream windowed join driven end-to-end: the events table
    is staged as per-day micro-batch files (written DISTRIBUTED, one
    grouped task per day), then the watermark-bounded join loop runs
    cycle by cycle — matches that straddle day boundaries come from
    checkpointed state, and the batch SQL oracle must reproduce the
    union of all per-cycle emissions exactly (the day files are
    event-time-partitioned, so no rows are late and inner-join
    completeness holds)."""
    import tempfile

    from .stream_join import StreamingJoinJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingJoinJob(input_dir,
                           tempfile.mkdtemp(prefix="imray_sjoin_st_"))
    job.run_all()
    return rd.read_parquet(job.matched_dir)


_STREAM_JOIN_SQL = """
SELECT a.event_id AS req_id, b.event_id AS resp_id, a.user_id,
       a.ts AS req_ts, b.ts AS resp_ts
FROM events a JOIN events b
  ON b.user_id = a.user_id
 AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 6 HOUR
WHERE a.event_type = 'click' AND b.event_type = 'purchase'
ORDER BY req_id, resp_id
"""


_SJOIN_STAGING: dict = {}


def _stage_event_days(sf_dir: str, jitter: bool = False) -> str:
    """Per-day micro-batch staging shared by the stream-join entries
    (distributed writes, one grouped task per day). Staging is a pure
    deterministic function of the input tables, so one copy per
    (sf_dir, jitter) is cached for the process lifetime — the inner-
    and outer-join entries (and repeated sweeps) reuse it instead of
    re-copying the corpus into a fresh tempdir each call.

    With ``jitter`` the ARRIVAL day of every 7th event_id is one day
    after its event day — deterministic out-of-order arrival for the
    lateness entries, bounded by one day so a 2-day horizon keeps
    every event on-time (the oracles then need no late-drop arm)."""
    import os
    import tempfile

    key = (os.path.abspath(sf_dir), jitter)
    cached = _SJOIN_STAGING.get(key)
    if cached and os.path.isdir(cached):
        return cached

    input_dir = tempfile.mkdtemp(prefix="imray_sjoin_in_")

    def add_day(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        b = b.copy()
        ts = b["ts"].astype("datetime64[us]")
        if jitter:
            delayed = (b["event_id"].to_numpy(dtype="int64") % 7) == 0
            ts = ts + pd.to_timedelta(
                np.where(delayed, 86_400, 0), unit="s")
        b["_day"] = ts.dt.strftime("%Y%m%d")
        return b

    def write_day(g: pd.DataFrame) -> pd.DataFrame:
        day = g["_day"].iloc[0]
        (g.drop(columns=["_day"])
         .sort_values("event_id", kind="mergesort")
         .to_parquet(os.path.join(input_dir, f"batch-{day}.parquet"),
                     index=False))
        return pd.DataFrame({"day": [day], "rows": [len(g)]})

    (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id",
                                 "event_type", "value"])
        .map_batches(add_day, batch_format="pandas")
        .groupby("_day")
        .map_groups(write_day, batch_format="pandas")
        .count()
    )
    _SJOIN_STAGING[key] = input_dir
    return input_dir


def _q_stream_stream_left_join(sf_dir: str):
    """OUTER variant of the streaming join: matched pairs PLUS the
    watermark-timeout emissions (unmatched clicks surfaced with the
    -1 null-right sentinel when eviction proves no future match);
    ``finalize()`` flushes the tail so the bounded catalog run equals
    the batch LEFT JOIN exactly."""
    import tempfile

    from .stream_join import StreamingJoinJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingJoinJob(input_dir,
                           tempfile.mkdtemp(prefix="imray_sjoin_st_"))
    job.run_all()
    job.finalize()
    cols = ["req_id", "resp_id", "user_id", "req_ts"]
    return (rd.read_parquet(job.matched_dir, columns=cols)
            .union(rd.read_parquet(job.timeout_dir, columns=cols)))


_STREAM_LEFT_JOIN_SQL = """
SELECT a.event_id AS req_id,
       CAST(COALESCE(b.event_id, -1) AS BIGINT) AS resp_id,
       a.user_id, a.ts AS req_ts
FROM events a LEFT JOIN events b
  ON b.user_id = a.user_id AND b.event_type = 'purchase'
 AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 6 HOUR
WHERE a.event_type = 'click'
ORDER BY req_id, resp_id
"""


def _q_stream_stream_full_join(sf_dir: str):
    """FULL OUTER completion of the streaming-join family: matched
    pairs PLUS both timeout emissions — unmatched clicks surface with
    the -1 null-right sentinel when left-eviction proves no future
    match, unmatched purchases with the -1 null-left sentinel when
    right-eviction (ts <= watermark) proves the same; ``finalize()``
    flushes both tails so the bounded run equals the batch FULL JOIN
    exactly. Both emissions happen DURING the stream at eviction time
    (state stays one window horizon), not as an end-of-run diff."""
    import tempfile

    from .stream_join import StreamingJoinJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingJoinJob(input_dir,
                           tempfile.mkdtemp(prefix="imray_sjoin_st_"))
    job.run_all()
    job.finalize()
    cols = ["req_id", "resp_id", "user_id"]
    return (rd.read_parquet(job.matched_dir, columns=cols)
            .union(rd.read_parquet(job.timeout_dir, columns=cols))
            .union(rd.read_parquet(job.rtimeout_dir, columns=cols)))


_SJOIN2_STAGING: dict = {}


def _stage_event_days_by_type(sf_dir: str) -> tuple:
    """Two-source staging for the min-watermark join: clicks and
    purchases land in SEPARATE per-day micro-batch directories
    (distributed writes, one grouped task per (side, day)); cached per
    sf_dir like the single-source staging."""
    import os
    import tempfile

    key = os.path.abspath(sf_dir)
    cached = _SJOIN2_STAGING.get(key)
    if cached and all(os.path.isdir(d) for d in cached):
        return cached

    left_dir = tempfile.mkdtemp(prefix="imray_sjoin2_l_")
    right_dir = tempfile.mkdtemp(prefix="imray_sjoin2_r_")
    dirs = {"click": left_dir, "purchase": right_dir}

    def add_day(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["click", "purchase"])].copy()
        b["_day"] = b["ts"].astype("datetime64[us]").dt.strftime("%Y%m%d")
        return b

    def write_day(g: pd.DataFrame) -> pd.DataFrame:
        day = g["_day"].iloc[0]
        side = g["event_type"].iloc[0]
        (g.drop(columns=["_day", "event_type"])
         .sort_values("event_id", kind="mergesort")
         .to_parquet(os.path.join(dirs[side], f"batch-{day}.parquet"),
                     index=False))
        return pd.DataFrame({"day": [day], "rows": [len(g)]})

    (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id", "event_type"])
        .map_batches(add_day, batch_format="pandas")
        .groupby(["event_type", "_day"])
        .map_groups(write_day, batch_format="pandas")
        .count()
    )
    _SJOIN2_STAGING[key] = (left_dir, right_dir)
    return left_dir, right_dir


def _q_sessions_update_changelog(sf_dir: str):
    """UPDATE-mode SESSION windows — the composition of the north
    rule's two headline features: per-user gap sessions over day
    micro-batches, emitted as a retract/insert changelog the cycle a
    session is EXTENDED across a batch boundary (instead of waiting
    for the watermark to close it). Deterministic day cycles make the
    full changelog SQL-mirrorable: sessionize every day-prefix, diff
    consecutive prefixes per (user, session_start) — identity is
    stable because event-time-ordered batches only extend sessions at
    the end."""
    import tempfile

    from .changelog import SessionChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = SessionChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_schlog_st_"))
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "user_id": ch["user_id"].to_numpy(dtype="int64"),
        "session_start": pd.Series(ch["start_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "op": ch["op"].to_numpy(dtype="int64"),
        "session_end": pd.Series(ch["end_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "n_events": ch["n"].to_numpy(dtype="int64"),
    })


_SESSIONS_UPDATE_SQL = """
WITH days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT) AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), pref AS (
  SELECT c.cycle, e.user_id, e.ts, e.event_id
  FROM events e JOIN days c ON strftime(e.ts, '%Y%m%d') <= c.day
), g AS (
  SELECT *, CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER
      (PARTITION BY cycle, user_id ORDER BY ts, event_id) > 1800000000
    THEN 1 ELSE 0 END AS new_s
  FROM pref
), s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY cycle, user_id
                             ORDER BY ts, event_id) AS sid
  FROM g
), agg AS (
  SELECT cycle, user_id, min(ts) AS session_start,
         max(ts) AS session_end, CAST(count(*) AS BIGINT) AS n_events
  FROM s GROUP BY cycle, user_id, sid
), d AS (
  SELECT *, lag(session_end) OVER w AS prev_end,
            lag(n_events) OVER w AS prev_n,
            lag(cycle) OVER w AS prev_cycle
  FROM agg
  WINDOW w AS (PARTITION BY user_id, session_start ORDER BY cycle)
), ch AS (
  SELECT *, (prev_cycle IS NULL OR prev_end <> session_end
             OR prev_n <> n_events) AS changed
  FROM d
)
SELECT cycle, user_id, session_start, CAST(x.op AS BIGINT) AS op,
       CASE WHEN x.op = 1 THEN session_end ELSE prev_end END
         AS session_end,
       CASE WHEN x.op = 1 THEN n_events ELSE prev_n END AS n_events
FROM ch CROSS JOIN (VALUES (1), (-1)) AS x(op)
WHERE changed AND (x.op = 1 OR prev_cycle IS NOT NULL)
ORDER BY cycle, user_id, session_start, op
"""


def _stage_event_days_jitter(sf_dir: str) -> str:
    """Out-of-order arrival staging for the lateness entries — the
    shared day staging with the deterministic 1-day jitter switched
    on (see :func:`_stage_event_days`)."""
    return _stage_event_days(sf_dir, jitter=True)


def _q_sessions_update_changelog_late(sf_dir: str):
    """UPDATE-mode session windows under ALLOWED LATENESS — the merge
    kernel: arrivals are deterministically out of event-time order
    (every 7th event arrives one day-cycle late), so sessions extend
    BACKWARD and can bridge two open sessions, which then MERGE (both
    old versions retract, the merged session inserts). The changelog
    is the row-set diff of consecutive arrival-prefix sessionizations,
    which is exactly what the oracle mirrors (anti-join each prefix's
    session table against its predecessor, both ways)."""
    import tempfile

    from .changelog import SessionChangelogJob

    input_dir = _stage_event_days_jitter(sf_dir)
    job = SessionChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_schlogL_st_"),
        allowed_lateness_s=2 * 86_400)
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "user_id": ch["user_id"].to_numpy(dtype="int64"),
        "session_start": pd.Series(ch["start_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "op": ch["op"].to_numpy(dtype="int64"),
        "session_end": pd.Series(ch["end_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "n_events": ch["n"].to_numpy(dtype="int64"),
    })


_SESSIONS_UPDATE_LATE_SQL = """
WITH arr AS (
  SELECT user_id, ts, event_id,
         strftime(CASE WHEN event_id % 7 = 0 THEN ts + INTERVAL 1 DAY
                       ELSE ts END, '%Y%m%d') AS aday
  FROM events
), days AS (
  SELECT aday, CAST(dense_rank() OVER (ORDER BY aday) - 1 AS BIGINT)
           AS cycle
  FROM (SELECT DISTINCT aday FROM arr)
), pref AS (
  SELECT c.cycle, a.user_id, a.ts, a.event_id
  FROM arr a JOIN days c ON a.aday <= c.aday
), g AS (
  SELECT *, CASE WHEN epoch_us(ts) - lag(epoch_us(ts)) OVER
      (PARTITION BY cycle, user_id ORDER BY ts, event_id) > 1800000000
    THEN 1 ELSE 0 END AS new_s
  FROM pref
), s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY cycle, user_id
                             ORDER BY ts, event_id) AS sid
  FROM g
), agg AS (
  SELECT cycle, user_id, min(ts) AS session_start,
         max(ts) AS session_end, CAST(count(*) AS BIGINT) AS n_events
  FROM s GROUP BY cycle, user_id, sid
), ins AS (
  SELECT c.cycle, c.user_id, c.session_start, c.session_end, c.n_events
  FROM agg c LEFT JOIN agg p
    ON p.cycle = c.cycle - 1 AND p.user_id = c.user_id
   AND p.session_start = c.session_start
   AND p.session_end = c.session_end AND p.n_events = c.n_events
  WHERE p.user_id IS NULL
), ret AS (
  SELECT p.cycle + 1 AS cycle, p.user_id, p.session_start,
         p.session_end, p.n_events
  FROM agg p LEFT JOIN agg c
    ON c.cycle = p.cycle + 1 AND c.user_id = p.user_id
   AND c.session_start = p.session_start
   AND c.session_end = p.session_end AND c.n_events = p.n_events
  WHERE c.user_id IS NULL
    AND p.cycle + 1 <= (SELECT max(cycle) FROM days)
)
SELECT cycle, user_id, session_start, CAST(1 AS BIGINT) AS op,
       session_end, n_events FROM ins
UNION ALL
SELECT cycle, user_id, session_start, CAST(-1 AS BIGINT) AS op,
       session_end, n_events FROM ret
ORDER BY cycle, user_id, session_start, op
"""


_SDEDUP_STAGING: dict = {}


def _stage_event_halfdays(sf_dir: str) -> str:
    """Half-day micro-batch staging for the streaming-dedup entry: one
    file per (day, AM/PM), so a day-granular dedup key straddles two
    cycles and the cross-cycle key state is load-bearing (whole-day
    files would confine every key to one cycle). Cached per sf_dir."""
    import os
    import tempfile

    key = os.path.abspath(sf_dir)
    cached = _SDEDUP_STAGING.get(key)
    if cached and os.path.isdir(cached):
        return cached

    input_dir = tempfile.mkdtemp(prefix="imray_sdedup_in_")

    def add_half(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        b = b.copy()
        ts = b["ts"].astype("datetime64[us]")
        half = np.where(ts.dt.hour.to_numpy() < 12, "A", "B")
        b["_half"] = ts.dt.strftime("%Y%m%d") + half
        return b

    def write_half(g: pd.DataFrame) -> pd.DataFrame:
        half = g["_half"].iloc[0]
        (g.drop(columns=["_half"])
         .sort_values("event_id", kind="mergesort")
         .to_parquet(os.path.join(input_dir, f"batch-{half}.parquet"),
                     index=False))
        return pd.DataFrame({"half": [half], "rows": [len(g)]})

    (
        rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "ts", "user_id",
                                 "event_type"])
        .map_batches(add_half, batch_format="pandas")
        .groupby("_half")
        .map_groups(write_half, batch_format="pandas")
        .count()
    )
    _SDEDUP_STAGING[key] = input_dir
    return input_dir


def _q_streaming_dedup(sf_dir: str):
    """Streaming dedup within the watermark (Spark's
    dropDuplicatesWithinWatermark): first occurrence of every
    (user_id, event_type, event-day) key emitted exactly once across
    half-day micro-batch cycles, key state bounded by the
    day+watermark horizon (the day key is SELF-BOUNDING — recurrences
    are < 1 day apart — which is what makes bounded-state streaming
    dedup exact). Half-day files make every key straddle two cycles,
    so the state carry is load-bearing; the batch oracle is
    first-row-per-key by (ts, event_id)."""
    import tempfile

    from .stream_dedup import StreamingDedupJob

    input_dir = _stage_event_halfdays(sf_dir)
    job = StreamingDedupJob(
        input_dir, tempfile.mkdtemp(prefix="imray_sdedup_st_"))
    job.run_all()
    out = job.emitted()
    out["day"] = (out["ts"].astype("datetime64[us]")
                  .dt.floor("D").astype("datetime64[us]"))
    return out[["event_id", "user_id", "event_type", "day", "ts"]]


_STREAMING_DEDUP_SQL = """
SELECT event_id, user_id, event_type,
       date_trunc('day', ts) AS day, ts
FROM (
  SELECT *, row_number() OVER (
      PARTITION BY user_id, event_type, date_trunc('day', ts)
      ORDER BY ts, event_id) AS rn
  FROM events
) WHERE rn = 1
ORDER BY event_id
"""


def _q_stream_join_outoforder(sf_dir: str):
    """Stream-stream join under OUT-OF-ORDER arrivals: the same
    watermark-bounded click→purchase join, but every 7th event arrives
    one day-cycle late (within a 2-day lateness horizon, so nothing
    drops). The match kernel is arrival-order-insensitive by
    construction — a pair emits in the later-arriving side's cycle,
    and the eviction bounds prove the earlier side is still in state
    (a right evicts only at ts <= wm, below any future on-time left;
    an evicted left's window already excludes every future on-time
    right) — so the union of per-cycle emissions must STILL equal the
    batch inner join, which is exactly the unchanged oracle."""
    import tempfile

    from .stream_join import StreamingJoinJob

    input_dir = _stage_event_days_jitter(sf_dir)
    job = StreamingJoinJob(input_dir,
                           tempfile.mkdtemp(prefix="imray_sjoinO_st_"),
                           allowed_lateness_s=2 * 86_400)
    job.run_all()
    return rd.read_parquet(job.matched_dir)


def _q_streaming_cep(sf_dir: str):
    """STREAMING CEP — the Kleene-plus funnel (``signup click+
    purchase``, strict contiguity, 6-hour window) evaluated
    incrementally across day micro-batches: per-user NFA state in
    closed form (prev-event register + open click-island register)
    survives cycle boundaries, events enter the match kernel only once
    the watermark proves their position final, and a match emits in
    the cycle whose watermark sweeps past the closing purchase.
    ``finalize()`` drains the buffer so trailing islands die exactly
    as the batch kernel's unflanked islands. The oracle is the
    UNCHANGED batch gaps-and-islands SQL."""
    import tempfile

    from .stream_cep import StreamingCepJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingCepJob(input_dir,
                          tempfile.mkdtemp(prefix="imray_scep_st_"))
    job.run_all()
    job.finalize()
    return job.matches()


def _q_streaming_cep_outoforder(sf_dir: str):
    """Streaming CEP under OUT-OF-ORDER arrivals: same job over the
    jittered staging (every 7th event arrives one day late, 2-day
    lateness horizon so nothing drops). Contiguity patterns are
    MAXIMALLY order-sensitive — one displaced event changes which
    islands exist — so this entry is the real test of the
    watermark-gated buffer: an in-horizon out-of-order event sorts
    into its event-time position before anything after it processes,
    and the emission set still equals the batch kernel's. Oracle
    unchanged."""
    import tempfile

    from .stream_cep import StreamingCepJob

    input_dir = _stage_event_days_jitter(sf_dir)
    job = StreamingCepJob(input_dir,
                          tempfile.mkdtemp(prefix="imray_scepO_st_"),
                          allowed_lateness_s=2 * 86_400)
    job.run_all()
    job.finalize()
    return job.matches()


def _q_scd2_changelog(sf_dir: str):
    """STREAMING SCD type-2 changelog — the continuous maintenance
    protocol for the versioned dimension `scd2_dimension` builds in
    batch: each attribute change that becomes watermark-final emits a
    retraction of the previous open version row, its closed insert,
    and the next open version. Because the kernel is incremental and
    exact, the op STREAM is a pure function of each user's global
    (ts, event_id) order — cycle boundaries never change it, which is
    exactly what the SQL oracle (3 UNION ALL arms over the batch
    gaps-and-islands versions) certifies."""
    import tempfile

    from .stream_scd2 import StreamingScd2Job

    input_dir = _stage_event_days(sf_dir)
    job = StreamingScd2Job(input_dir,
                           tempfile.mkdtemp(prefix="imray_scd2_st_"))
    job.run_all()
    job.finalize()
    return job.ops()


def _q_scd2_changelog_outoforder(sf_dir: str):
    """Streaming SCD2 under OUT-OF-ORDER arrivals (jittered staging,
    2-day lateness horizon): version boundaries are order-sensitive —
    a displaced event can split or merge runs — so the watermark
    buffer must sort every in-horizon event into its event-time
    position before anything after it folds. Op stream (and oracle)
    unchanged from the in-order entry."""
    import tempfile

    from .stream_scd2 import StreamingScd2Job

    input_dir = _stage_event_days_jitter(sf_dir)
    job = StreamingScd2Job(input_dir,
                           tempfile.mkdtemp(prefix="imray_scd2O_st_"),
                           allowed_lateness_s=2 * 86_400)
    job.run_all()
    job.finalize()
    return job.ops()


def _q_temporal_join(sf_dir: str):
    """Temporal (versioned-dimension) stream enrichment — Flink's
    temporal table join: every click is enriched with the user's
    latest purchase value AS OF the click's EVENT time, while the
    purchase "dimension" updates arrive interleaved on the same
    stream. Probes buffer until the watermark passes their event time
    (only then has every version that could affect them provably
    arrived), which also makes the join arrival-order-insensitive.
    Version state is watermark-bounded: in-horizon updates plus one
    latest-below-watermark row per user. Oracle: the batch as-of join
    via last_value(IGNORE NULLS) over the interleaved (ts, event_id)
    order; no-version probes surface as -1.0 on both sides."""
    import tempfile

    from .temporal_join import TemporalJoinJob

    input_dir = _stage_event_days(sf_dir)
    job = TemporalJoinJob(
        input_dir, tempfile.mkdtemp(prefix="imray_tjoin_st_"))
    job.run_all()
    job.finalize()
    out = job.emitted()
    out["asof_value"] = out["asof_value"].fillna(-1.0)
    return out


_TEMPORAL_JOIN_SQL = """
WITH u AS (
  SELECT user_id, ts, event_id, event_type,
         CASE WHEN event_type = 'purchase' THEN value END AS pv
  FROM events WHERE event_type IN ('click', 'purchase')
), f AS (
  SELECT *, last_value(pv IGNORE NULLS) OVER (
      PARTITION BY user_id ORDER BY ts, event_id
      ROWS UNBOUNDED PRECEDING) AS asof_value
  FROM u
)
SELECT event_id, user_id, ts, COALESCE(asof_value, -1.0) AS asof_value
FROM f WHERE event_type = 'click'
ORDER BY event_id
"""


def _q_broadcast_rules(sf_dir: str):
    """Broadcast-state (control-stream) enrichment — Flink's broadcast
    pattern: a low-volume GLOBAL rule stream (purchases; value = the
    current global threshold) scores every click with the rule valid
    at its EVENT time; no key relates probe to rule. Probes buffer
    until the watermark passes their event time (temporal-join
    discipline), rule state is O(rules-in-horizon) + one
    latest-below-watermark row — global, never keyed — and the rule
    side NEVER rides a shuffle: each cycle's rules are collected via a
    column-pruned distributed filter and broadcast into the scoring
    tasks' closures. Oracle: the batch global as-of via
    last_value(IGNORE NULLS) over the interleaved (ts, rule-first,
    event_id) total order; no-rule probes surface as -1.0."""
    import tempfile

    from .broadcast_rules import BroadcastRulesJob

    input_dir = _stage_event_days(sf_dir)
    job = BroadcastRulesJob(
        input_dir, tempfile.mkdtemp(prefix="imray_brules_st_"))
    job.run_all()
    job.finalize()
    out = job.emitted()
    out["rule_value"] = out["rule_value"].fillna(-1.0)
    return out


def _q_broadcast_rules_outoforder(sf_dir: str):
    """Broadcast-rules under OUT-OF-ORDER arrivals: same job over the
    jittered staging (every 7th event arrives one day late, 2-day
    horizon so nothing drops). The watermark-gated probe buffer makes
    the operator arrival-order-insensitive — a displaced rule lands in
    the global state before any probe it could affect emits — so the
    oracle is unchanged."""
    import tempfile

    from .broadcast_rules import BroadcastRulesJob

    input_dir = _stage_event_days_jitter(sf_dir)
    job = BroadcastRulesJob(
        input_dir, tempfile.mkdtemp(prefix="imray_brulesO_st_"),
        allowed_lateness_s=2 * 86_400)
    job.run_all()
    job.finalize()
    out = job.emitted()
    out["rule_value"] = out["rule_value"].fillna(-1.0)
    return out


_BROADCAST_RULES_SQL = """
WITH u AS (
  SELECT event_id, ts, event_type,
         CASE WHEN event_type = 'purchase' THEN value END AS rv,
         CASE WHEN event_type = 'purchase' THEN 0 ELSE 1 END AS k
  FROM events WHERE event_type IN ('click', 'purchase')
), f AS (
  SELECT *, last_value(rv IGNORE NULLS) OVER (
      ORDER BY ts, k, event_id ROWS UNBOUNDED PRECEDING) AS rule_value
  FROM u
)
SELECT event_id, ts, COALESCE(rule_value, -1.0) AS rule_value
FROM f WHERE event_type = 'click'
ORDER BY event_id
"""


def _q_stream_join_two_sources(sf_dir: str):
    """The multiple-watermark join: clicks and purchases arrive as two
    INDEPENDENT micro-batch streams (separate directories advancing on
    their own day clocks), and the global watermark is the MIN of the
    per-source event-time maxima (Spark's default multi-source
    policy) — a lagging source holds eviction for both sides. Matched
    pairs must equal the single-stream inner join exactly (the oracle
    is the same batch SQL)."""
    import tempfile

    from .stream_join import TwoSourceJoinJob

    left_dir, right_dir = _stage_event_days_by_type(sf_dir)
    job = TwoSourceJoinJob(left_dir, right_dir,
                           tempfile.mkdtemp(prefix="imray_sjoin2_st_"))
    job.run_all()
    return rd.read_parquet(job.matched_dir)


def _q_stream_join_two_sources_full(sf_dir: str):
    """Multi-source × outer-join composition: the min-watermark
    two-source run's matched pairs plus BOTH timeout emissions (and
    the finalize() tails) must equal the batch FULL JOIN — the same
    completeness contract as the single-stream full join, now under
    the per-source watermark hold."""
    import tempfile

    from .stream_join import TwoSourceJoinJob

    left_dir, right_dir = _stage_event_days_by_type(sf_dir)
    job = TwoSourceJoinJob(left_dir, right_dir,
                           tempfile.mkdtemp(prefix="imray_sjoin2_st_"))
    job.run_all()
    job.finalize()
    cols = ["req_id", "resp_id", "user_id"]
    return (rd.read_parquet(job.matched_dir, columns=cols)
            .union(rd.read_parquet(job.timeout_dir, columns=cols))
            .union(rd.read_parquet(job.rtimeout_dir, columns=cols)))


def _q_tumbling_update_changelog(sf_dir: str):
    """UPDATE-mode emission (Spark update output mode / Flink retract
    stream): weekly per-type counts over day micro-batches, emitted as
    a changelog — op=-1 retracts the previously emitted value of a
    window the cycle's arrivals supersede, op=+1 inserts the new one.
    The day cycles are deterministic, so the FULL changelog (not just
    its fold) is a pure function of the input and mirrors as lag()
    over per-day cumulative sums."""
    import tempfile

    from .changelog import StreamingChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_chlog_st_"))
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(ch["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "event_type": ch["key"].to_numpy(),
        "op": ch["op"].to_numpy(dtype="int64"),
        "n": ch["n"].to_numpy(dtype="int64"),
    })


def _q_tumbling_update_outoforder(sf_dir: str):
    """UPDATE-mode windowed counts under OUT-OF-ORDER arrivals: the
    same weekly changelog over jittered day files (every 7th event one
    arrival-day late, 2-day horizon so nothing drops). Counting is
    order-insensitive, so the engine needs no change — the changelog
    must equal lag() over per-ARRIVAL-day cumulative sums, windows
    still keyed by EVENT time."""
    import tempfile

    from .changelog import StreamingChangelogJob

    input_dir = _stage_event_days_jitter(sf_dir)
    job = StreamingChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_chlogO_st_"),
        allowed_lateness_s=2 * 86_400)
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(ch["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "event_type": ch["key"].to_numpy(),
        "op": ch["op"].to_numpy(dtype="int64"),
        "n": ch["n"].to_numpy(dtype="int64"),
    })


_UPDATE_OUTOFORDER_SQL = """
WITH arr AS (
  SELECT event_type, ts,
         strftime(CASE WHEN event_id % 7 = 0 THEN ts + INTERVAL 1 DAY
                       ELSE ts END, '%Y%m%d') AS aday
  FROM events
), d AS (
  SELECT date_trunc('week', ts) AS win_start, event_type,
         aday AS day, count(*) AS c
  FROM arr GROUP BY 1, 2, 3
), days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT)
           AS cycle
  FROM (SELECT DISTINCT aday AS day FROM arr)
), cum AS (
  SELECT day, win_start, event_type,
         CAST(SUM(c) OVER (PARTITION BY win_start, event_type
                           ORDER BY day) AS BIGINT) AS n
  FROM d
), ch AS (
  SELECT day, win_start, event_type, n,
         lag(n) OVER (PARTITION BY win_start, event_type
                      ORDER BY day) AS prev_n
  FROM cum
)
SELECT y.cycle, ch.win_start, ch.event_type,
       CAST(x.op AS BIGINT) AS op,
       CASE WHEN x.op = 1 THEN ch.n ELSE ch.prev_n END AS n
FROM ch
JOIN days y ON y.day = ch.day
CROSS JOIN (VALUES (1), (-1)) AS x(op)
WHERE x.op = 1 OR ch.prev_n IS NOT NULL
ORDER BY cycle, win_start, event_type, op
"""


def _q_sliding_update_changelog(sf_dir: str):
    """UPDATE-mode SLIDING windows — the window-shape × output-mode
    cell the tumbling/session changelogs left open: 3-day windows
    sliding by 1 day over day micro-batches, so every event fans out
    map-side to its 3 covering windows (the bounded sliding fan-out)
    and a window is genuinely updated across up to 3 cycles before the
    watermark closes it. Everything downstream of the assignment —
    changelog diff, eviction at win+window <= wm, folding — is
    window-shape-agnostic, which is exactly what this entry pins."""
    import tempfile

    from .changelog import StreamingChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_chlogS_st_"),
        window_s=3 * 86_400, slide_s=86_400)
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(ch["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "event_type": ch["key"].to_numpy(),
        "op": ch["op"].to_numpy(dtype="int64"),
        "n": ch["n"].to_numpy(dtype="int64"),
    })


_SLIDING_UPDATE_SQL = """
WITH f AS (
  SELECT event_type, strftime(ts, '%Y%m%d') AS day,
         date_trunc('day', ts) - k.k * INTERVAL 1 DAY AS win_start
  FROM events CROSS JOIN (VALUES (0), (1), (2)) AS k(k)
), d AS (
  SELECT win_start, event_type, day, count(*) AS c
  FROM f GROUP BY 1, 2, 3
), days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT) AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), cum AS (
  SELECT day, win_start, event_type,
         CAST(SUM(c) OVER (PARTITION BY win_start, event_type
                           ORDER BY day) AS BIGINT) AS n
  FROM d
), ch AS (
  SELECT day, win_start, event_type, n,
         lag(n) OVER (PARTITION BY win_start, event_type
                      ORDER BY day) AS prev_n
  FROM cum
)
SELECT y.cycle, ch.win_start, ch.event_type,
       CAST(x.op AS BIGINT) AS op,
       CASE WHEN x.op = 1 THEN ch.n ELSE ch.prev_n END AS n
FROM ch
JOIN days y ON y.day = ch.day
CROSS JOIN (VALUES (1), (-1)) AS x(op)
WHERE x.op = 1 OR ch.prev_n IS NOT NULL
ORDER BY cycle, win_start, event_type, op
"""


def _q_sliding_append_counts(sf_dir: str):
    """APPEND-mode time windows — completing the output-mode trio for
    the time-window shape (sessions had append via streaming_sessions;
    time windows only had update/complete): a 3-day/1-day sliding
    window emits ONCE, with its FINAL per-type count, in the cycle
    whose watermark closes it (win + window <= wm). Emission is the
    eviction itself, so nothing retracts; windows still open at end of
    stream stay unemitted — the oracle mirrors that by joining each
    window to the first arrival day past its end."""
    import tempfile

    from .changelog import StreamingChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_chlogA_st_"),
        output_mode="append", window_s=3 * 86_400, slide_s=86_400)
    job.run_all()
    cl = job.closed()
    return pd.DataFrame({
        "cycle": cl["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(cl["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "event_type": cl["key"].to_numpy(),
        "n": cl["n"].to_numpy(dtype="int64"),
    })


# a window closes at the first arrival day whose events lie at or past
# its end (day files make wm >= win+3d exactly then); windows never
# closed by end of stream are absent on both sides
_SLIDING_APPEND_SQL = """
WITH f AS (
  SELECT event_type, ts,
         date_trunc('day', ts) - k.k * INTERVAL 1 DAY AS win_start
  FROM events CROSS JOIN (VALUES (0), (1), (2)) AS k(k)
), agg AS (
  SELECT win_start, event_type, CAST(count(*) AS BIGINT) AS n
  FROM f GROUP BY 1, 2
), days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT) AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), close_day AS (
  SELECT w.win_start, min(d.day) AS cday
  FROM (SELECT DISTINCT win_start FROM f) w
  JOIN days d
    ON d.day >= strftime(w.win_start + INTERVAL 3 DAY, '%Y%m%d')
  GROUP BY 1
)
SELECT y.cycle, agg.win_start, agg.event_type, agg.n
FROM agg
JOIN close_day c ON c.win_start = agg.win_start
JOIN days y ON y.day = c.cday
ORDER BY cycle, agg.win_start, event_type
"""


def _q_topk_changelog(sf_dir: str):
    """Continuous TOP-K ranking changelog (ksqlDB/Flink Top-N): the
    top-3 event types per weekly window are a live ranking maintained
    across day micro-batches; every cycle emits the rank SLOTS whose
    occupant changed (op=-1 retracts the slot's previous (key, n),
    op=+1 inserts the new one). A slot changes only when arrivals
    touch its window, counts are monotone so slots never disappear,
    and ties break (n DESC, key ASC) on both sides. The oracle ranks
    every per-cycle arrival prefix and diffs consecutive cycles per
    (window, rank) slot via lag()."""
    import tempfile

    from .changelog import TopKChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = TopKChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_topk_st_"), k=3)
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(ch["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "rnk": ch["rnk"].to_numpy(dtype="int64"),
        "op": ch["op"].to_numpy(dtype="int64"),
        "event_type": ch["key"].to_numpy(),
        "n": ch["n"].to_numpy(dtype="int64"),
    })


_TOPK_CHANGELOG_SQL = """
WITH days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT) AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), pref AS (
  SELECT c.cycle, date_trunc('week', e.ts) AS win_start, e.event_type,
         CAST(count(*) AS BIGINT) AS n
  FROM events e JOIN days c ON strftime(e.ts, '%Y%m%d') <= c.day
  GROUP BY 1, 2, 3
), rk AS (
  SELECT cycle, win_start, event_type, n,
         CAST(row_number() OVER (PARTITION BY cycle, win_start
              ORDER BY n DESC, event_type) AS BIGINT) AS rnk
  FROM pref
), top AS (
  SELECT * FROM rk WHERE rnk <= 3
), d2 AS (
  SELECT *, lag(event_type) OVER w AS prev_key,
            lag(n) OVER w AS prev_n,
            lag(cycle) OVER w AS prev_cycle
  FROM top
  WINDOW w AS (PARTITION BY win_start, rnk ORDER BY cycle)
), ch AS (
  SELECT *, (prev_cycle IS NULL OR prev_key <> event_type
             OR prev_n <> n) AS changed
  FROM d2
)
SELECT cycle, win_start, rnk, CAST(x.op AS BIGINT) AS op,
       CASE WHEN x.op = 1 THEN event_type ELSE prev_key END AS event_type,
       CASE WHEN x.op = 1 THEN n ELSE prev_n END AS n
FROM ch CROSS JOIN (VALUES (1), (-1)) AS x(op)
WHERE changed AND (x.op = 1 OR prev_cycle IS NOT NULL)
ORDER BY cycle, win_start, rnk, op
"""


def _q_tumbling_complete_mode(sf_dir: str):
    """COMPLETE-mode emission — the third structured-streaming output
    mode (append = streaming_sessions, update = the changelogs): every
    cycle re-emits the ENTIRE weekly per-type aggregate table so far.
    Nothing evicts; state and emission are bounded by the aggregate
    DOMAIN (weeks × types), never the stream — the only regime
    complete mode is sane in. The oracle is the per-arrival-prefix
    aggregate, cross-joined over cycles."""
    import tempfile

    from .changelog import StreamingChangelogJob

    input_dir = _stage_event_days(sf_dir)
    job = StreamingChangelogJob(
        input_dir, tempfile.mkdtemp(prefix="imray_chlogC_st_"),
        output_mode="complete")
    job.run_all()
    ch = job.changelog()
    return pd.DataFrame({
        "cycle": ch["cycle"].to_numpy(dtype="int64"),
        "win_start": pd.Series(ch["win_us"].to_numpy(dtype="int64"))
        .astype("datetime64[us]"),
        "event_type": ch["key"].to_numpy(),
        "n": ch["n"].to_numpy(dtype="int64"),
    })


_COMPLETE_MODE_SQL = """
WITH days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT)
           AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), pref AS (
  SELECT c.cycle, date_trunc('week', e.ts) AS win_start,
         e.event_type
  FROM events e JOIN days c ON strftime(e.ts, '%Y%m%d') <= c.day
)
SELECT cycle, win_start, event_type, CAST(count(*) AS BIGINT) AS n
FROM pref GROUP BY cycle, win_start, event_type
ORDER BY cycle, win_start, event_type
"""


_UPDATE_CHANGELOG_SQL = """
WITH d AS (
  SELECT date_trunc('week', ts) AS win_start, event_type,
         strftime(ts, '%Y%m%d') AS day, count(*) AS c
  FROM events GROUP BY 1, 2, 3
), days AS (
  SELECT day, CAST(dense_rank() OVER (ORDER BY day) - 1 AS BIGINT) AS cycle
  FROM (SELECT DISTINCT strftime(ts, '%Y%m%d') AS day FROM events)
), cum AS (
  SELECT day, win_start, event_type,
         CAST(SUM(c) OVER (PARTITION BY win_start, event_type
                           ORDER BY day) AS BIGINT) AS n
  FROM d
), ch AS (
  SELECT day, win_start, event_type, n,
         lag(n) OVER (PARTITION BY win_start, event_type
                      ORDER BY day) AS prev_n
  FROM cum
)
SELECT y.cycle, ch.win_start, ch.event_type,
       CAST(x.op AS BIGINT) AS op,
       CASE WHEN x.op = 1 THEN ch.n ELSE ch.prev_n END AS n
FROM ch
JOIN days y ON y.day = ch.day
CROSS JOIN (VALUES (1), (-1)) AS x(op)
WHERE x.op = 1 OR ch.prev_n IS NOT NULL
ORDER BY cycle, win_start, event_type, op
"""


_STREAM_FULL_JOIN_SQL = """
SELECT CAST(COALESCE(a.event_id, -1) AS BIGINT) AS req_id,
       CAST(COALESCE(b.event_id, -1) AS BIGINT) AS resp_id,
       COALESCE(a.user_id, b.user_id) AS user_id
FROM (SELECT * FROM events WHERE event_type = 'click') a
FULL JOIN (SELECT * FROM events WHERE event_type = 'purchase') b
  ON b.user_id = a.user_id
 AND b.ts > a.ts AND b.ts <= a.ts + INTERVAL 6 HOUR
ORDER BY req_id, resp_id
"""


from .graph import BUTTERFLY_SQL as _BUTTERFLY_SQL_REF  # noqa: E402
from .graph import BFS_HOPS_SQL as _BFS_HOPS_SQL_REF  # noqa: E402


def _q_bfs_hops(sf_dir: str):
    from .graph import bfs_hops
    return bfs_hops(sf_dir)


def _q_click_abandonment(sf_dir: str):
    from .cep import click_abandonment
    return click_abandonment(sf_dir)


def _q_conversion_latency(sf_dir: str):
    from .cep import conversion_latency_quantiles
    return conversion_latency_quantiles(sf_dir)


def _q_cep_kleene(sf_dir: str):
    from .cep import cep_kleene_funnel
    return cep_kleene_funnel(sf_dir)


# Kleene-plus (signup click+ purchase, strict contiguity, maximal runs)
# as gaps-and-islands: click islands per user keyed by
# rn - row_number-over-clicks, flankers re-joined by adjacent rn. The
# 21600000000 µs bound mirrors the engine's window_s=21600 default.
_CEP_KLEENE_SQL = """
WITH e AS (
  SELECT user_id, event_id, ts, event_type,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts, event_id) AS rn
  FROM events
), cl AS (
  SELECT user_id, rn,
         rn - row_number() OVER (PARTITION BY user_id ORDER BY rn) AS grp
  FROM e WHERE event_type = 'click'
), runs AS (
  SELECT user_id, min(rn) AS rn_lo, max(rn) AS rn_hi,
         CAST(count(*) AS BIGINT) AS n_clicks
  FROM cl GROUP BY user_id, grp
)
SELECT r.user_id, s.ts AS start_ts, p.ts AS end_ts, r.n_clicks
FROM runs r
JOIN e s ON s.user_id = r.user_id AND s.rn = r.rn_lo - 1
        AND s.event_type = 'signup'
JOIN e p ON p.user_id = r.user_id AND p.rn = r.rn_hi + 1
        AND p.event_type = 'purchase'
WHERE epoch_us(p.ts) - epoch_us(s.ts) <= 21600000000
ORDER BY r.user_id, start_ts
"""


def _q_substring_span(sf_dir: str):
    from .dedup import substring_span_coverage
    return substring_span_coverage(sf_dir)


def _q_robust_stats(sf_dir: str):
    from .analytics import robust_value_stats
    return robust_value_stats(sf_dir)


def _q_bloom_semi_join(sf_dir: str):
    from .joins import bloom_semi_join_events
    return bloom_semi_join_events(sf_dir)


# the sketch is an ACCELERATOR only — the verify stage makes the result
# the plain semi-join, so the mirror is a plain EXISTS
_BLOOM_SEMI_SQL = """
SELECT e.event_id, e.user_id, e.event_type
FROM events e
WHERE EXISTS (
  SELECT 1 FROM orders o
  WHERE o.o_custkey = e.user_id AND o.o_orderpriority = '1-URGENT')
ORDER BY event_id
"""


# lower median: k-th smallest with k = (n+1)//2, row_number-identical
_ROBUST_STATS_SQL = """
WITH v AS (
  SELECT event_type, CAST(floor(value * 1000) AS BIGINT) AS vm FROM events
), med AS (
  SELECT event_type, vm AS median_milli FROM (
    SELECT event_type, vm,
           row_number() OVER (PARTITION BY event_type ORDER BY vm) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM v) WHERE rn = (n + 1) // 2
), dev AS (
  SELECT v.event_type, abs(v.vm - m.median_milli) AS d
  FROM v JOIN med m USING (event_type)
), mad AS (
  SELECT event_type, d AS mad_milli FROM (
    SELECT event_type, d,
           row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn,
           COUNT(*) OVER (PARTITION BY event_type) AS n
    FROM dev) WHERE rn = (n + 1) // 2
)
SELECT m.event_type, CAST(c.n AS BIGINT) AS n, m.median_milli, a.mad_milli
FROM med m JOIN mad a USING (event_type)
JOIN (SELECT event_type, COUNT(*) AS n FROM v GROUP BY 1) c
  USING (event_type)
ORDER BY event_type
"""


# Lee et al. span-dedup coverage: positions inside any 8-gram occurring
# >= 2 times corpus-wide (within-doc repeats count); 1-based SQL
# positions vs 0-based engine positions cancel in the coverage count
_SUBSTRING_SPAN_SQL = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), grams AS (
  SELECT doc_id, i.i AS i, array_to_string(w[i.i:i.i + 7], ' ') AS g
  FROM toks, LATERAL (SELECT unnest(range(1, len(w) - 6)) AS i) i(i)
), dupg AS (
  SELECT g FROM grams GROUP BY g HAVING COUNT(*) >= 2
), dupi AS (
  SELECT doc_id, i FROM grams WHERE g IN (SELECT g FROM dupg)
), cov AS (
  SELECT DISTINCT d.doc_id, s.p
  FROM dupi d, LATERAL (SELECT unnest(range(d.i, d.i + 8)) AS p) s(p)
)
SELECT t.doc_id,
       CAST(len(t.w) AS BIGINT) AS n_tokens,
       CAST(COALESCE(c.n, 0) AS BIGINT) AS n_dup_tokens
FROM toks t LEFT JOIN (
  SELECT doc_id, COUNT(*) AS n FROM cov GROUP BY 1) c
  ON c.doc_id = t.doc_id
ORDER BY t.doc_id
"""


def _conversion_latency_sql(pcts: tuple = (50, 90, 99)) -> str:
    """Oracle generated from the SAME percentile list as the engine —
    k-th smallest with k = ceil(pct·n/100), row_number-identical."""
    vals = ", ".join(f"({int(p)})" for p in pcts)
    return f"""
WITH lat AS (
  SELECT a.event_id,
         MIN((epoch_us(b.ts) - epoch_us(a.ts)) // 1000000) AS latency_s
  FROM events a JOIN events b
    ON b.user_id = a.user_id AND b.event_type = 'purchase'
   AND b.ts > a.ts AND b.ts < a.ts + INTERVAL 6 HOUR
  WHERE a.event_type = 'click'
  GROUP BY 1
), r AS (
  SELECT latency_s, row_number() OVER (ORDER BY latency_s) AS rn,
         COUNT(*) OVER () AS n
  FROM lat
)
SELECT CAST(p.pct AS BIGINT) AS pct, CAST(r.latency_s AS BIGINT) AS latency_s
FROM (VALUES {vals}) p(pct)
JOIN r ON r.rn = (r.n * p.pct + 99) // 100
ORDER BY pct
"""


_CONVERSION_LATENCY_SQL = _conversion_latency_sql()


# CEP negation: clicks with NO purchase in the open interval
# (ts, ts + 6h) — boundary semantics mirror the engine's integer-µs
# probes exactly (strict on both ends)
_ABANDONMENT_SQL = """
SELECT a.event_id, a.user_id, a.ts
FROM events a
WHERE a.event_type = 'click' AND NOT EXISTS (
  SELECT 1 FROM events b
  WHERE b.user_id = a.user_id AND b.event_type = 'purchase'
    AND b.ts > a.ts AND b.ts < a.ts + INTERVAL 6 HOUR)
ORDER BY event_id
"""


# strictly-later same-customer orders inside a 90-day follow-up window;
# integer milli-unit value sums so the engine/oracle hash is bitwise
_RANGE_JOIN_SQL = """
SELECT a.o_orderkey AS order_key,
       CAST(COUNT(*) AS BIGINT) AS n_follow,
       CAST(SUM(CAST(floor(b.o_totalprice * 1000) AS BIGINT)) AS BIGINT)
         AS follow_value_milli
FROM orders a
JOIN orders b
  ON b.o_custkey = a.o_custkey
 AND b.o_orderdate > a.o_orderdate
 AND b.o_orderdate < a.o_orderdate + INTERVAL 90 DAY
GROUP BY 1
ORDER BY order_key
"""


_Q5_SQL = """
SELECT n.n_name,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 1000) AS BIGINT)) AS BIGINT) AS revenue_m
FROM region r
JOIN nation n ON n.n_regionkey = r.r_regionkey
JOIN customer c ON c.c_nationkey = n.n_nationkey
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE r.r_name = 'ASIA'
GROUP BY n.n_name
ORDER BY n.n_name
"""

_Q10_SQL = """
SELECT c.c_custkey, c.c_name, n.n_name,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 1000)
                AS BIGINT)) AS BIGINT) AS revenue_m
FROM customer c
JOIN orders o ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n ON n.n_nationkey = c.c_nationkey
WHERE o.o_orderdate >= DATE '1997-01-01'
  AND o.o_orderdate < DATE '1997-07-01'
  AND l.l_returnflag = 'R'
GROUP BY 1, 2, 3
ORDER BY revenue_m DESC, c.c_custkey
LIMIT 20
"""

_Q14_SQL = """
WITH l AS (
  SELECT l_partkey,
         CAST(SUM(CAST(floor(l_extendedprice * (1 - l_discount) * 1000)
                  AS BIGINT)) AS BIGINT) AS rev_m
  FROM lineitem
  WHERE l_shipdate >= DATE '1997-01-01'
    AND l_shipdate < DATE '1997-02-01'
  GROUP BY 1
)
SELECT CAST(SUM(CASE WHEN p.p_type = 'PROMO' THEN l.rev_m ELSE 0 END)
            AS BIGINT) AS promo_m,
       CAST(SUM(l.rev_m) AS BIGINT) AS total_m,
       CAST(SUM(CASE WHEN p.p_type = 'PROMO' THEN l.rev_m ELSE 0 END)
            * 1000 // SUM(l.rev_m) AS BIGINT) AS promo_milli
FROM l JOIN part p ON p.p_partkey = l.l_partkey
"""

_Q18_SQL = """
WITH h AS (
  SELECT l_orderkey,
         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS total_qty
  FROM lineitem GROUP BY 1 HAVING SUM(CAST(l_quantity AS BIGINT)) > 250
)
SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_orderdate,
       CAST(floor(o.o_totalprice * 1000) AS BIGINT) AS price_m,
       h.total_qty
FROM h
JOIN orders o ON o.o_orderkey = h.l_orderkey
JOIN customer c ON c.c_custkey = o.o_custkey
ORDER BY price_m DESC, o.o_orderkey
LIMIT 100
"""

_SUPPLIER_BALANCE_SQL = """
SELECT n.n_name,
       CAST(count(*) AS BIGINT) AS n_suppliers,
       CAST(SUM(CAST(floor(s.s_acctbal * 1000) AS BIGINT)) AS BIGINT)
         AS total_bal_m
FROM supplier s JOIN nation n ON n.n_nationkey = s.s_nationkey
GROUP BY 1
"""

# OLAP rollup with 'ALL' sentinels for the rollup NULLs (string-stable
# value hash); revenue in integer milli-cents like q1/q3/q5
_ROLLUP_SQL = """
SELECT COALESCE(n_name, 'ALL') AS n_name,
       COALESCE(CAST(yr AS VARCHAR), 'ALL') AS o_year,
       CAST(SUM(rev) AS BIGINT) AS revenue_m
FROM (
  SELECT n.n_name AS n_name,
         CAST(year(o.o_orderdate) AS BIGINT) AS yr,
         CAST(floor(o.o_totalprice * 1000) AS BIGINT) AS rev
  FROM orders o
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n ON n.n_nationkey = c.c_nationkey
)
GROUP BY ROLLUP (n_name, yr)
"""

_CUBE_SQL = _ROLLUP_SQL.replace("GROUP BY ROLLUP (n_name, yr)",
                                "GROUP BY CUBE (n_name, yr)")

# deterministic as-of: DuckDB's bare ASOF JOIN leaves date-ties
# implementation-defined, so the oracle pins the same explicit
# tie-break as the engine (max o_orderdate then max o_orderkey)
_ASOF_SQL = """
SELECT e.event_id, e.ts, e.user_id,
       o.o_orderkey, o.o_orderdate, o.o_totalprice
FROM events e
JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
QUALIFY row_number() OVER (
  PARTITION BY e.event_id
  ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) = 1
"""

# the per-anchor cap (engine scale guard for degenerate hot keys) is
# mirrored exactly: most-recent-first, event_id tie-break
_ERROR_CONTEXT_SQL = """
SELECT a.event_id AS anchor_id, a.user_id, a.ts AS anchor_ts,
       c.event_id AS ctx_event_id, c.ts AS ctx_ts, c.event_type AS ctx_type
FROM events a JOIN events c
  ON c.user_id = a.user_id
 AND c.ts <= a.ts AND c.ts >= a.ts - INTERVAL 1 HOUR
 AND c.event_id <> a.event_id
WHERE a.event_type = 'error'
QUALIFY row_number() OVER (
  PARTITION BY a.event_id ORDER BY c.ts DESC, c.event_id DESC) <= 256
"""

_ROLLING_SQL = """
SELECT event_id, user_id, ts,
  CAST(count(*) OVER w AS BIGINT) AS n_7d,
  CAST(sum(CAST(floor(value * 1000) AS BIGINT)) OVER w AS BIGINT) AS value_m_7d
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts
             RANGE BETWEEN INTERVAL 7 DAYS PRECEDING AND CURRENT ROW)
"""

_TOPK_PER_CUST_SQL = """
SELECT o_custkey, o_orderkey, o_totalprice,
       CAST(row_number() OVER (PARTITION BY o_custkey
            ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS rank
FROM orders
QUALIFY rank <= 2
"""

def _q_media_hashes(sf_dir: str):
    from ..stages.multimodal import media_hashes

    return media_hashes(sf_dir)


def _q_media_png_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_png_roundtrip

    return media_png_roundtrip(sf_dir)


def _q_media_jpeg_progressive_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_jpeg_progressive_roundtrip

    return media_jpeg_progressive_roundtrip(sf_dir)


def _q_media_webp_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_webp_roundtrip

    return media_webp_roundtrip(sf_dir)


def _q_media_jpeg_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_jpeg_roundtrip

    return media_jpeg_roundtrip(sf_dir)


def _q_media_gif_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_gif_roundtrip

    return media_gif_roundtrip(sf_dir)


def _q_media_mp4_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_mp4_roundtrip

    return media_mp4_roundtrip(sf_dir)


def _q_media_mkv_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_mkv_roundtrip

    return media_mkv_roundtrip(sf_dir)


def _q_media_tiff_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_tiff_roundtrip

    return media_tiff_roundtrip(sf_dir)


def _q_media_png_paeth(sf_dir: str):
    from ..stages.multimodal import media_png_paeth_roundtrip

    return media_png_paeth_roundtrip(sf_dir)


def _q_media_png_adam7(sf_dir: str):
    from ..stages.multimodal import media_png_adam7_roundtrip

    return media_png_adam7_roundtrip(sf_dir)


def _q_media_mjpeg_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_mjpeg_roundtrip

    return media_mjpeg_roundtrip(sf_dir)


def _q_media_flac_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_flac_roundtrip

    return media_flac_roundtrip(sf_dir)


def _q_media_qoi_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_qoi_roundtrip

    return media_qoi_roundtrip(sf_dir)


def _q_media_flac_mkv_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_flac_mkv_roundtrip

    return media_flac_mkv_roundtrip(sf_dir)


def _q_media_flac_mp4_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_flac_mp4_roundtrip

    return media_flac_mp4_roundtrip(sf_dir)


def _q_media_h264_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_h264_roundtrip

    return media_h264_roundtrip(sf_dir)


def _q_media_g711_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_g711_roundtrip

    return media_g711_roundtrip(sf_dir)


def _q_media_adpcm_roundtrip(sf_dir: str):
    from ..stages.multimodal import media_adpcm_roundtrip

    return media_adpcm_roundtrip(sf_dir)


def _q_bpe_merges(sf_dir: str):
    from .bpe import bpe_train

    return bpe_train(sf_dir, num_merges=25)


def _q_bpe_encode(sf_dir: str):
    from .bpe import bpe_encode

    return bpe_encode(sf_dir, num_merges=25)


_JPEG_ROUNDTRIP_SQL = """
SELECT doc_id, sha256(text) AS recovered_sha
FROM documents
"""


# per-class sixteenth-rates mirror sampling._DEFAULT_MIX; nibble < rate
# == first-nibble set membership in the engine's gate
_STRATIFIED_SQL = """
SELECT event_id, user_id, event_type
FROM events
WHERE CASE event_type WHEN 'error' THEN 16 WHEN 'purchase' THEN 16
      WHEN 'click' THEN 4 WHEN 'view' THEN 2 WHEN 'signup' THEN 8
      ELSE 16 END
      > CAST(('0x' || substr(md5(CAST(event_id AS VARCHAR)), 1, 1)) AS INT)
"""

# whitespace tokenization identical to text_stats (split(' '), empties
# kept); the HAVING floor mirrors vocabulary()'s bucket-local min_count
_VOCABULARY_SQL = """
SELECT token, CAST(count(*) AS BIGINT) AS cnt
FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
GROUP BY 1 HAVING count(*) >= 100
"""

_MEDIA_HASHES_SQL = """
SELECT doc_id,
       CAST(octet_length(encode(text)) AS BIGINT) AS n_bytes,
       sha256(text) AS sha256
FROM documents
"""

# inverted index: token -> df + capped doc_id-sorted posting list; the
# rn<=cap window mirrors the engine's bucket-local truncation
_INVERTED_INDEX_SQL = """
WITH td AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token
  FROM documents
), ranked AS (
  SELECT token, doc_id,
         row_number() OVER (PARTITION BY token ORDER BY doc_id) AS rn,
         count(*) OVER (PARTITION BY token) AS df
  FROM td
)
SELECT token, CAST(max(df) AS BIGINT) AS df,
       string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id) AS postings
FROM ranked WHERE rn <= 32
GROUP BY token HAVING max(df) >= 10
"""

# per-doc top-3 tf-idf terms in exact integer micro-units
# (tf * 1e6 // df), ties on token ascending — both sides integer-exact
_TFIDF_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
), tf AS (
  SELECT doc_id, token, CAST(count(*) AS BIGINT) AS tf
  FROM tok GROUP BY 1, 2
), df AS (
  SELECT token, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
  FROM tok GROUP BY 1
), scored AS (
  SELECT tf.doc_id, tf.token, tf.tf * 1000000 // df.df AS score,
         row_number() OVER (
           PARTITION BY tf.doc_id
           ORDER BY tf.tf * 1000000 // df.df DESC, tf.token
         ) AS rank
  FROM tf JOIN df USING (token)
)
SELECT doc_id, token, CAST(rank AS BIGINT) AS rank,
       CAST(score AS BIGINT) AS score
FROM scored WHERE rank <= 3
"""

# train/test contamination: distinct word 8-grams of each md5-nibble
# TEST doc (e..f) that appear in any TRAIN doc (0..b) — the engine's
# gram-bucket semi-join mirrored as unnest + IN
_CONTAMINATION_SQL = """
WITH toks AS (
  SELECT doc_id, substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) AS nib,
         string_split(text, ' ') AS w
  FROM documents
), grams AS (
  SELECT doc_id, nib, array_to_string(w[i.i:i.i + 7], ' ') AS g
  FROM toks, LATERAL (SELECT unnest(range(1, len(w) - 6)) AS i) i
), tr AS (
  SELECT DISTINCT g FROM grams
  WHERE nib IN ('0','1','2','3','4','5','6','7','8','9','a','b')
), te AS (
  SELECT DISTINCT doc_id, g FROM grams WHERE nib IN ('e','f')
)
SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
FROM te WHERE g IN (SELECT g FROM tr)
GROUP BY doc_id
"""

# edit-distance-1 token pairs: the deletion-neighborhood join mirrored
# as an n² levenshtein scan (exact at oracle scale; the engine never
# scans n²)
_TYPO_PAIRS_SQL = """
WITH t AS (
  SELECT DISTINCT source AS w FROM documents WHERE source <> ''
)
SELECT a.w AS w1, b.w AS w2
FROM t a JOIN t b ON a.w < b.w
WHERE abs(length(a.w) - length(b.w)) <= 1
  AND levenshtein(a.w, b.w) <= 1
"""

# normalize-then-aggregate: canonical source = lexicographic min of the
# transitively-closed edit-distance-1 label component (recursive CTE),
# then docs per canonical source
_SOURCE_NORMALIZE_SQL = """
WITH RECURSIVE t AS (
  SELECT DISTINCT source AS w FROM documents WHERE source <> ''
), p AS (
  SELECT a.w AS w1, b.w AS w2
  FROM t a JOIN t b ON a.w < b.w
  WHERE abs(length(a.w) - length(b.w)) <= 1
    AND levenshtein(a.w, b.w) <= 1
), e AS (
  SELECT w1 AS a, w2 AS b FROM p UNION ALL SELECT w2, w1 FROM p
), reach(src, dst) AS (
  SELECT a, b FROM e
  UNION
  SELECT r.src, e.b FROM reach r JOIN e ON e.a = r.dst
), comp AS (
  SELECT t.w, least(t.w, coalesce(min(r.dst), t.w)) AS canon
  FROM t LEFT JOIN reach r ON r.src = t.w GROUP BY t.w
)
SELECT c.canon AS canon_source,
       CAST(count(DISTINCT c.w) AS BIGINT) AS n_sources,
       CAST(count(*) AS BIGINT) AS n_docs
FROM documents d JOIN comp c ON c.w = d.source
GROUP BY 1
"""

# within-document repetition (the Gopher repeated-n-gram signal):
# duplicate word 3-grams of the doc itself, in exact integer
# milli-units; docs shorter than 3 tokens have no grams and score 0
_DOC_REPETITION_SQL = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), grams AS (
  SELECT doc_id, array_to_string(w[i.i:i.i + 2], ' ') AS g
  FROM toks, LATERAL (SELECT unnest(range(1, len(w) - 1)) AS i) i
), agg AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_ngrams,
         CAST(count(DISTINCT g) AS BIGINT) AS distinct_ngrams
  FROM grams GROUP BY doc_id
)
SELECT t.doc_id,
       COALESCE(a.n_ngrams, CAST(0 AS BIGINT)) AS n_ngrams,
       COALESCE(a.distinct_ngrams, CAST(0 AS BIGINT)) AS distinct_ngrams,
       CAST(CASE WHEN a.n_ngrams > 0
            THEN (a.n_ngrams - a.distinct_ngrams) * 1000 // a.n_ngrams
            ELSE 0 END AS BIGINT) AS rep_milli
FROM toks t LEFT JOIN agg a USING (doc_id)
"""

# cross-document duplication fraction: share of each doc's distinct
# word 8-grams that appear in ANY other document (the doc-level dedup
# score); docs with no 8-grams are excluded on both sides
_DOC_DUP_FRACTION_SQL = """
WITH toks AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), grams AS (
  SELECT DISTINCT doc_id, array_to_string(w[i.i:i.i + 7], ' ') AS g
  FROM toks, LATERAL (SELECT unnest(range(1, len(w) - 6)) AS i) i
), d AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS n_grams FROM grams GROUP BY 1
), shared AS (
  SELECT g FROM grams GROUP BY g HAVING count(DISTINCT doc_id) >= 2
), s AS (
  SELECT doc_id, CAST(count(*) AS BIGINT) AS shared_grams
  FROM grams WHERE g IN (SELECT g FROM shared) GROUP BY 1
)
SELECT d.doc_id, d.n_grams,
       COALESCE(s.shared_grams, CAST(0 AS BIGINT)) AS shared_grams,
       CAST(COALESCE(s.shared_grams, 0) * 1000 // d.n_grams AS BIGINT)
         AS dup_milli
FROM d LEFT JOIN s USING (doc_id)
"""

# OOV fraction against the min_count>=100 pruned vocabulary — the
# broadcast-semi-join mirror (vocab CTE + left anti membership)
_DOC_OOV_SQL = """
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
), vocab AS (
  SELECT token FROM tok GROUP BY token HAVING count(*) >= 100
), per AS (
  SELECT t.doc_id, CAST(count(*) AS BIGINT) AS n_tokens,
         CAST(sum(CASE WHEN v.token IS NULL THEN 1 ELSE 0 END) AS BIGINT)
           AS n_oov
  FROM tok t LEFT JOIN vocab v USING (token) GROUP BY 1
)
SELECT doc_id, n_tokens, n_oov,
       CAST(n_oov * 1000 // n_tokens AS BIGINT) AS oov_milli
FROM per
"""

# bottom-quartile corpus cut at an exact discrete global quantile: the
# threshold is the ceil(0.25*n)-th smallest quality_milli
_QUALITY_FILTER_SQL = f"""
WITH dq AS ({{DQ}}),
r AS (
  SELECT quality_milli,
         row_number() OVER (ORDER BY quality_milli) AS rn,
         count(*) OVER () AS n
  FROM dq)
SELECT doc_id, quality_milli FROM dq
WHERE quality_milli >= (
  SELECT quality_milli FROM r WHERE rn = (n * 25 + 99) // 100)
"""

# percentile-rank normalization: (# strictly smaller) * 1000 // n,
# i.e. (rank()-1) * 1000 // n — the broadcast-CDF feature scaler
_QUALITY_PCT_SQL = """
WITH dq AS ({DQ})
SELECT doc_id, quality_milli,
       CAST((rank() OVER (ORDER BY quality_milli) - 1) * 1000
            // (SELECT count(*) FROM dq) AS BIGINT) AS pct_milli
FROM dq
"""

# curriculum placement: dense global rank by (quality desc, doc_id)
_CURRICULUM_SQL = """
WITH dq AS ({DQ})
SELECT doc_id, quality_milli,
       row_number() OVER (ORDER BY quality_milli DESC, doc_id) AS rank
FROM dq
"""

# top-20 bigram collocations by exact integer lift (min_count 20);
# HUGEINT keeps cnt*N*1000 exact, mirroring the engine's Python ints
_COLLOCATIONS_SQL = """
WITH t AS (
  SELECT string_split(text, ' ') AS w FROM documents
), big AS (
  SELECT w[i.i] AS w1, w[i.i + 1] AS w2
  FROM t, LATERAL (SELECT unnest(range(1, len(w))) AS i) i
), bc AS (
  SELECT w1, w2, CAST(count(*) AS BIGINT) AS cnt
  FROM big GROUP BY 1, 2 HAVING count(*) >= 20
), uc AS (
  SELECT unnest(string_split(text, ' ')) AS tk FROM documents
), u AS (
  SELECT tk, CAST(count(*) AS BIGINT) AS c FROM uc GROUP BY 1
), n AS (
  SELECT CAST(count(*) AS BIGINT) AS total FROM uc
)
SELECT bc.w1, bc.w2, bc.cnt,
       CAST(CAST(bc.cnt AS HUGEINT) * n.total * 1000
            // (ua.c * ub.c) AS BIGINT) AS lift_milli
FROM bc CROSS JOIN n
JOIN u ua ON ua.tk = bc.w1
JOIN u ub ON ub.tk = bc.w2
ORDER BY lift_milli DESC, bc.w1, bc.w2
LIMIT 20
"""

# concat-and-chunk sequence packing: the window cumulative sum is the
# SQL mirror of the engine's two-pass distributed scan (same whitespace
# tokens as text_stats; seq_len = 512)
_SEQUENCE_PACK_SQL = """
WITH t AS (
  SELECT doc_id,
         CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens
  FROM documents
), c AS (
  SELECT doc_id, n_tokens,
         CAST(COALESCE(SUM(n_tokens) OVER (ORDER BY doc_id
              ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
              AS BIGINT) AS tok_start
  FROM t
)
SELECT doc_id, n_tokens, tok_start,
       tok_start // 512 AS seq_first,
       (tok_start + n_tokens - 1) // 512 AS seq_last
FROM c
"""

# distributed hash anti-join: events from users with no URGENT order;
# the engine ships the build side as per-batch DISTINCT keys
_ANTI_JOIN_SQL = """
SELECT event_id, user_id, event_type FROM events
WHERE user_id NOT IN (
  SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
"""

# deterministic per-group reservoir: k=25 smallest md5(event_id) per
# event_type — md5 is the engine's cross-engine random tape
_GROUP_SAMPLE_SQL = """
SELECT event_type, event_id, user_id, CAST(rk AS BIGINT) AS rk FROM (
  SELECT event_type, event_id, user_id,
         row_number() OVER (
           PARTITION BY event_type
           ORDER BY md5(CAST(event_id AS VARCHAR)), event_id) AS rk
  FROM events
) WHERE rk <= 25
"""

# CDC latest-per-key compaction: newest event per user, ts ties broken
# by max event_id — the row_number()=1 window mirror
_LATEST_EVENT_SQL = """
SELECT user_id, event_id, event_type, ts FROM (
  SELECT user_id, event_id, event_type, ts,
         row_number() OVER (
           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
         ) AS rn
  FROM events
) WHERE rn = 1
"""

# HLL registers: exact integer sketch state (rho math on the md5 hex
# string — no float log2 on either engine)
_HLL_SQL = """
WITH p AS (
  SELECT CAST(('0x' || substr(h, 1, 2)) AS INT) AS bucket,
         substr(h, 3, 14) AS s
  FROM (SELECT md5(CAST(user_id AS VARCHAR)) AS h FROM events)
), r AS (
  SELECT bucket,
    CASE WHEN regexp_extract(s, '^0*') = s THEN 57
    ELSE 4 * length(regexp_extract(s, '^0*'))
         + CASE substr(s, length(regexp_extract(s, '^0*')) + 1, 1)
             WHEN '1' THEN 3 WHEN '2' THEN 2 WHEN '3' THEN 2
             WHEN '4' THEN 1 WHEN '5' THEN 1 WHEN '6' THEN 1
             WHEN '7' THEN 1 ELSE 0 END + 1 END AS rho
  FROM p
)
SELECT CAST(bucket AS BIGINT) AS bucket,
       CAST(max(rho) AS BIGINT) AS max_rho
FROM r GROUP BY 1
"""

# cohort retention: first-active-week cohorts × weeks-since, exact
# integer epoch-microsecond week floors on both engines
_COHORT_SQL = """
WITH uw AS (
  SELECT DISTINCT user_id,
         epoch_us(ts) // 604800000000 AS week
  FROM events
), f AS (
  SELECT user_id, week,
         min(week) OVER (PARTITION BY user_id) AS cw
  FROM uw
)
SELECT CAST(cw AS BIGINT) AS cohort_week,
       CAST(week - cw AS BIGINT) AS k,
       CAST(count(*) AS BIGINT) AS n_active
FROM f GROUP BY 1, 2
"""

_USER_STATS_SQL = """
SELECT event_type,
       CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
       quantile_disc(value, 0.5) AS median_value
FROM events GROUP BY 1
"""

# histogram-sketch quantiles: integer milli-unit bins make the
# approximate estimate bit-identical across engines (see analytics.py)
_APPROX_QUANTILES_SQL = """
WITH m AS (SELECT event_type, CAST(floor(value * 1000) AS BIGINT) AS vm FROM events),
b AS (SELECT event_type, min(vm) AS lo, max(vm) AS hi, count(*) AS n FROM m GROUP BY 1),
w AS (SELECT *, greatest((hi - lo + 4095) // 4096, 1) AS wdt FROM b),
h AS (SELECT m.event_type, least((vm - lo) // wdt, 4095) AS bin, count(*) AS c
      FROM m JOIN w USING (event_type) GROUP BY 1, 2),
c AS (SELECT event_type, bin, sum(c) OVER (PARTITION BY event_type ORDER BY bin) AS cum
      FROM h),
q AS (SELECT unnest([0.5, 0.9, 0.99]) AS q)
SELECT w.event_type, q.q,
       CAST(any_value(w.lo) + any_value(w.wdt) * min(c.bin) AS BIGINT) AS approx_value_m
FROM w CROSS JOIN q JOIN c ON c.event_type = w.event_type
WHERE c.cum >= ceil(q.q * w.n)
GROUP BY 1, 2
"""

_SPLIT_SQL = """
SELECT doc_id,
  CASE WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) >= 'e' THEN 'test'
       WHEN substr(md5(CAST(doc_id AS VARCHAR)), 1, 1) >= 'c' THEN 'val'
       ELSE 'train' END AS split
FROM documents
"""

_SAMPLE_SQL = """
SELECT event_id, user_id, event_type
FROM events
WHERE substr(md5(CAST(event_id AS VARCHAR)), 1, 1) < '4'
"""


_Q3_SQL = """
SELECT o.o_orderkey,
       CAST(SUM(CAST(floor(l.l_extendedprice * (1 - l.l_discount) * 1000) AS BIGINT)) AS BIGINT) AS revenue_m,
       o.o_orderdate, o.o_orderpriority
FROM customer c
JOIN orders o ON c.c_custkey = o.o_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = 'BUILDING'
  AND o.o_orderdate < DATE '1998-06-01'
  AND l.l_shipdate > DATE '1998-06-01'
GROUP BY o.o_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY revenue_m DESC, o.o_orderdate, o.o_orderkey
LIMIT 10
"""


def _q_top_customers(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"]).to_pandas()
    names = dict(zip(cust["c_custkey"], cust["c_name"]))
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.assign(rev_c=np.floor(b["o_totalprice"].to_numpy() * 100).astype("int64"))
        return b.groupby("o_custkey", sort=False).agg(
            n_orders=("rev_c", "size"), revenue_c=("rev_c", "sum")
        ).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("o_custkey", sort=True).agg(
            n_orders=("n_orders", "sum"), revenue_c=("revenue_c", "sum")
        ).reset_index()

    agg = (
        orders.map_batches(partial, batch_format="pandas", batch_size=65536)
        .map_batches(lambda b: b.assign(_cb=(b["o_custkey"] % 16).astype("int32")),
                     batch_format="pandas")
        .groupby("_cb")
        .map_groups(lambda g: merge(g.drop(columns=["_cb"])), batch_format="pandas")
        .to_pandas()
    )
    agg["c_name"] = agg["o_custkey"].map(names)
    agg = agg.rename(columns={"o_custkey": "c_custkey"})
    agg = agg.sort_values(["revenue_c", "c_custkey"], ascending=[False, True]).head(10)
    return agg[["c_custkey", "c_name", "n_orders", "revenue_c"]].reset_index(drop=True)


def _q_events_by_type(sf_dir: str):
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"].to_numpy(),
            "value_c": np.floor(b["value"].to_numpy() * 100).astype("int64"),
        })

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        return b.groupby("event_type", sort=False).agg(
            n_events=("value_c", "size"), total_value_c=("value_c", "sum")
        ).reset_index()

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("event_type", sort=True).agg(
            n_events=("n_events", "sum"), total_value_c=("total_value_c", "sum")
        ).reset_index()

    return (
        ds.map_batches(prep, batch_format="pandas", batch_size=65536)
        .map_batches(partial, batch_format="pandas", batch_size=65536)
        .map_batches(lambda b: b.assign(_k=0), batch_format="pandas")
        .groupby("_k")
        .map_groups(lambda g: merge(g.drop(columns=["_k"])), batch_format="pandas")
    )


_PROPS_TYPE_SQL = """
SELECT event_id,
  CASE
    WHEN props = '' THEN 'empty'
    WHEN left(ltrim(left(props, 512), ' '), 1) IN ('{', '[') THEN 'json'
    WHEN length(props) % 2 = 0 AND regexp_full_match(props, '[0-9A-F]+') THEN 'hex'
    WHEN regexp_full_match(props, '[A-Za-z0-9+/]+={1,2}') THEN 'b64'
    ELSE 'text'
  END AS content_type
FROM events
"""


def _q_props_type(sf_dir: str):
    """Blob content-type sniffing (blob.go:354-521 analogue) over the
    events ``props`` JSON payload column."""
    from ..functions.blob import sniff_content_type

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])

    def sniff(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": b["event_id"].to_numpy(),
            "content_type": b["props"].map(sniff_content_type),
        })

    return ds.map_batches(sniff, batch_format="pandas")


_STREAMING_SESSIONS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL}),
g AS (
  SELECT *, CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
      OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) > 1800000000
    THEN 1 ELSE 0 END AS new_s
  FROM t),
s AS (
  SELECT *, sum(new_s) OVER (PARTITION BY conv_id ORDER BY ts, turn_idx) AS sid
  FROM g)
SELECT conv_id, min(ts) AS session_start, max(ts) AS session_end,
       count(*) AS n_turns
FROM s GROUP BY conv_id, sid
"""


def _stage_transcript_days(sf_dir: str, jitter: bool = False) -> str:
    """Per-day transcript staging for the streaming-session entries:
    derive the transcripts, write one parquet per ARRIVAL day
    (distributed, one grouped task per day — no driver ``to_pandas()``
    staging). With ``jitter`` every 5th turn_idx arrives one day after
    its event day (deterministic, bounded out-of-order for the
    lateness entry). Returns the tempdir whose ``in/`` holds the
    stream; the caller puts state beside it. The staging dir is
    node-local here; a multi-node cluster points it at shared storage
    (the stream's arrival directory is shared by contract)."""
    import os
    import tempfile

    d = tempfile.mkdtemp(prefix="imray_stream_")
    input_dir = os.path.join(d, "in")
    os.makedirs(input_dir, exist_ok=True)

    def add_day(b: pd.DataFrame) -> pd.DataFrame:
        import numpy as np

        ts = b["ts"].astype("datetime64[us]")
        if jitter:
            delayed = (b["turn_idx"].to_numpy(dtype="int64") % 5) == 0
            ts = ts + pd.to_timedelta(
                np.where(delayed, 86_400, 0), unit="s")
        b["_day"] = ts.dt.strftime("%Y%m%d")
        return b

    def write_day(g: pd.DataFrame) -> pd.DataFrame:
        day = g["_day"].iloc[0]
        g.drop(columns=["_day"]).to_parquet(
            os.path.join(input_dir, f"batch-{day}.parquet"), index=False
        )
        return pd.DataFrame({"day": [day], "rows": [len(g)]})

    # consume the write pipeline (count() materializes nothing driver-side)
    (
        derive_transcripts(sf_dir)
        .map_batches(add_day, batch_format="pandas")
        .groupby("_day")
        .map_groups(write_day, batch_format="pandas")
        .count()
    )
    return d


def _q_streaming_sessions(sf_dir: str):
    """End-to-end streaming invariant: the micro-batch driver (watermark +
    open-session carryover across per-day files) must produce EXACTLY the
    batch sessionization result. Only the event-time driver loop itself
    runs on the driver, which is its design (SURVEY §7.4.2)."""
    import os

    from .streaming import StreamingSessionJob

    d = _stage_transcript_days(sf_dir)
    job = StreamingSessionJob(os.path.join(d, "in"),
                              os.path.join(d, "state"), gap_s=1800)
    job.run_all()
    job.flush()
    out = job.closed_sessions()
    out["session_start"] = out["session_start"].astype("datetime64[us]")
    out["session_end"] = out["session_end"].astype("datetime64[us]")
    out["n_turns"] = out["n_turns"].astype("int64")
    return out.sort_values(["conv_id", "session_start"]).reset_index(drop=True)


def _q_streaming_sessions_outoforder(sf_dir: str):
    """Arrival-order robustness of the APPEND-mode session loop: the
    same micro-batch driver over deterministically jittered day files
    (every 5th turn_idx arrives one day late, within a 2-day lateness
    horizon so nothing drops). The interval-hull sessionize makes open
    -session carryover ORDER-INSENSITIVE — an in-horizon turn that
    predates an open summary's end merges into it, and two open
    summaries of one conversation (possible only under lateness) merge
    when a turn bridges them — so the closed output must STILL equal
    the batch sessionization: the unchanged oracle."""
    import os

    from .streaming import StreamingSessionJob

    d = _stage_transcript_days(sf_dir, jitter=True)
    job = StreamingSessionJob(os.path.join(d, "in"),
                              os.path.join(d, "state"),
                              gap_s=1800, allowed_lateness_s=2 * 86_400)
    job.run_all()
    job.flush()
    out = job.closed_sessions()
    out["session_start"] = out["session_start"].astype("datetime64[us]")
    out["session_end"] = out["session_end"].astype("datetime64[us]")
    out["n_turns"] = out["n_turns"].astype("int64")
    return out.sort_values(["conv_id", "session_start"]).reset_index(drop=True)


_DOC_META_SQL = f"""
WITH s AS ({_TEXT_STATS_SQL}), k AS ({_SKETCHES_SQL})
SELECT s.doc_id, s.n_chars AS width, 1 AS height, s.n_tokens,
       k.avg_char, k.thumbhash
FROM s JOIN k ON s.doc_id = k.doc_id
"""


def _q_doc_meta(sf_dir: str):
    """The /meta endpoint analogue: one structured metadata record per
    document — format dims (width=chars, height=lines), token count and
    the avgcolor/thumbhash sketches (Metadata struct,
    processor/vipsprocessor/process.go:811-830)."""
    from ..functions.kernels import avgcolor_text, thumbhash_text

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def meta(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].tolist()
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(),
            "width": pd.Series([len(t) for t in texts], dtype="int64"),
            "height": pd.Series([t.count("\n") + 1 for t in texts], dtype="int64"),
            "n_tokens": pd.Series([len(t.split(" ")) for t in texts], dtype="int64"),
            "avg_char": [avgcolor_text(t) for t in texts],
            "thumbhash": [thumbhash_text(t) for t in texts],
        })

    return ds.map_batches(meta, batch_format="pandas")


def _q_media_meta(sf_dir: str):
    """Multimodal decode pipeline over the deterministic fake media table
    (binary payload columns; actor-pool decode stage). Rows-only check —
    no SQL surface for binary payload decoding."""
    import ray.data as _rd

    from ..stages.multimodal import MediaDecodeStage, gen_media

    ds = _rd.from_arrow(gen_media(128))
    return ds.map_batches(
        MediaDecodeStage, batch_format="pyarrow", batch_size=16,
        concurrency=2, num_cpus=1,
    )


def _q_conv_stats(sf_dir: str):
    """Conversation-level reduce: per-conv turn count, distinct tools,
    total text length, first/last ts — one bucketed merge over the
    shared conv partition key (partial per-batch combine, then the
    narrow groupby merge; the per-conversation rollup every transcript
    pipeline needs)."""
    ds = derive_transcripts(sf_dir, with_turn_idx=False)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("conv_id", sort=False).agg(
            n_turns=("tool", "size"),
            sum_len=("text", lambda s: s.str.len().sum()),
            first_ts=("ts", "min"),
            last_ts=("ts", "max"),
        ).reset_index()
        tools = b.groupby("conv_id", sort=False)["tool"].agg(
            lambda s: "|".join(sorted(set(s))))
        g["tool_set"] = g["conv_id"].map(tools)
        return g

    def add_bucket(b: pd.DataFrame) -> pd.DataFrame:
        from ..functions.hashing import crc32_bucket

        b = b.copy()
        b["_cb"] = crc32_bucket(b["conv_id"].to_numpy(), 32).astype("int32")
        return b

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("conv_id", sort=False).agg(
            n_turns=("n_turns", "sum"),
            sum_len=("sum_len", "sum"),
            first_ts=("first_ts", "min"),
            last_ts=("last_ts", "max"),
            tool_set=("tool_set", lambda s: "|".join(
                sorted(set("|".join(s).split("|"))))),
        ).reset_index()
        out["n_tools"] = out["tool_set"].str.count(r"\|") + 1
        out = out.drop(columns=["tool_set"])
        return out.astype({"n_turns": "int64", "sum_len": "int64",
                           "n_tools": "int64"})

    return (
        ds.map_batches(partial, batch_format="pandas")
        .map_batches(add_bucket, batch_format="pandas")
        .groupby("_cb")
        .map_groups(lambda g: merge(g.drop(columns=["_cb"])),
                    batch_format="pandas")
    )


_CONV_STATS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT conv_id, count(*) AS n_turns,
       CAST(sum(length(text)) AS BIGINT) AS sum_len,
       min(ts) AS first_ts, max(ts) AS last_ts,
       CAST(count(DISTINCT tool) AS BIGINT) AS n_tools
FROM t GROUP BY 1
"""


def _q_media_real_decode(sf_dir: str):
    from ..stages.multimodal import media_real_decode

    return media_real_decode(sf_dir)


# ---------------------------------------------------------------------------
# standalone per-filter parity queries over documents (each runs ONE chain
# through the real compiler/kernels and is mirrored exactly in SQL)

_FILTER_QUERY_SPECS = {
    # manual fractional crop (process.go:607-649)
    "filter_crop_frac": (
        "0.2x0:0.7x0/img",
        "substr(text, CAST(floor(CAST(0.2 AS DOUBLE) * length(text)) AS INT) + 1, "
        "CAST(floor(CAST(0.7 AS DOUBLE) * length(text)) AS INT) "
        "- CAST(floor(CAST(0.2 AS DOUBLE) * length(text)) AS INT))",
    ),
    # proportion(40) → truncate to floor(len*0.4) (filter.go:124-147)
    "filter_proportion": (
        "filters:proportion(40)/img",
        "substr(text, 1, CAST(floor(length(text) * CAST(0.4 AS DOUBLE)) AS INT))",
    ),
    # rotate(180) on single-line text = reverse (filter.go:108-122)
    "filter_rotate180": ("filters:rotate(180)/img", "reverse(text)"),
    # padding(x,3,0,2,0) (filter.go:72-93)
    "filter_padding": ("filters:padding(x,3,0,2,0)/img", "'xxx' || text || 'xx'"),
    # hue(72) rotates vowels by one position (filter.go:174-214)
    "filter_hue": (
        "filters:hue(72)/img",
        "translate(text, 'aeiouAEIOU', 'eiouaEIOUA')",
    ),
    # background_color(red) fills blanks with the color char (filter.go:95-106)
    "filter_background": (
        "filters:background_color(red)/img",
        "replace(text, ' ', 'r')",
    ),
    # --- round-2: 2-D overlay composite paths (overlay.go:228-356) ---
    # label alpha dithering: '[AL]' at x=0 with alpha=50 → overlay-local
    # cols 1 and 3 transparent (Bresenham), so base chars 2 and 4 survive
    # (doc texts are all ≥ 48 chars, so the overlay never clips)
    "filter_label_alpha": (
        "filters:label(AL,0,0,0,white,50)/img",
        "'[' || substr(text, 2, 1) || 'L' || substr(text, 4, 1) || substr(text, 5)",
    ),
    # image blend=darken over the first 3 chars: per-char ring-min equals
    # ASCII least() for printable text (blend matrix overlay.go:154-170)
    "filter_image_blend": (
        "filters:image(/3x0/left/ov,0,0,0,darken)/img",
        "least(substr(text, 1, 1), 'm') || least(substr(text, 2, 1), 'm') || "
        "least(substr(text, 3, 1), 'm') || substr(text, 4)",
        {"ov": "mmm"},
    ),
    # watermark via the 2-D path with a prefix-offset x (r-3): overlay
    # '<WM>' lands at canvas-4+3 → only its first char is visible,
    # replacing the last base char (clip path overlay.go:297-340)
    "filter_watermark_2d": (
        "filters:watermark(wm,r-3,0,0)/img",
        "CASE WHEN length(text) >= 1 THEN left(text, length(text) - 1) || '<' ELSE text END",
        {"wm": "<WM>"},
    ),
    # text() with the reference 13-arg layout (filteroverlay.go:284-408):
    # 'NOTE' composited at x=right on single-line docs replaces the last
    # 4 chars (docs are all ≥ 48 chars, so the overlay never clips)
    "filter_text_overlay": (
        "filters:text(NOTE,right,0)/img",
        "left(text, length(text) - 4) || 'NOTE'",
    ),
    # multi-rect focal weighted centroid (process.go:537-571, 1000-1018):
    # rects (2..6) and (10..14) have equal area → centroid x = 8.0 exactly
    # (small-int float ops); the inverted third rect is dropped like the
    # reference. focal fraction = 8.0/len, centre = trunc(frac*len) — the
    # SQL transcribes the identical IEEE op sequence (divide, multiply,
    # trunc) so values are bitwise-reproducible.
    "filter_focal_multi": (
        "8x0/filters:focal(2x0:6x1):focal(10x0:14x1):focal(5x0:3x1)/img",
        "CASE WHEN length(text) <= 8 THEN text ELSE substr(text, "
        "least(greatest(CAST(floor(CAST(8.0 AS DOUBLE) / length(text) "
        "* length(text)) AS INT) - 4, 0), length(text) - 8) + 1, 8) END",
    ),
}


def _mk_filter_query(path: str, lookup: dict | None = None):
    def q(sf_dir: str):
        from ..stages.chain import compile_chain

        ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

        def run(b: pd.DataFrame) -> pd.DataFrame:
            chain = compile_chain(path)
            b["text"] = chain.run(
                b["text"].astype(str), lookup=lookup.get if lookup else None
            )
            return b

        return ds.map_batches(run, batch_format="pandas")

    return q


def _q_params_fields(sf_dir: str):
    """Params endpoint analogue (imagor.go:204-209): expose the PARSED
    fields of each turn's canonical path. The Ray side genuinely parses
    per tool with functions/imagorpath; the oracle mirrors the expected
    parse results as literals per tool — a second, independent check that
    parsing the flagship templates yields the intended plan."""
    from ..functions import imagorpath as _ip
    from ..stages.parse_sign import PATH_TEMPLATES

    parsed = {}
    for tool, tpl in PATH_TEMPLATES.items():
        p = _ip.parse(tpl.format(img="k"))
        parsed[tool] = (
            int(p.width), int(p.fit_in), int(p.stretch), int(p.trim),
            len(p.filters), p.h_align or "",
        )

    ds = derive_transcripts(sf_dir)

    def fields(b: pd.DataFrame) -> pd.DataFrame:
        vals = b["tool"].map(parsed)
        return pd.DataFrame({
            "conv_id": b["conv_id"].to_numpy(),
            "turn_idx": b["turn_idx"].to_numpy(),
            "width": vals.map(lambda v: v[0]).astype("int64"),
            "fit_in": vals.map(lambda v: v[1]).astype("int64"),
            "stretch": vals.map(lambda v: v[2]).astype("int64"),
            "trim": vals.map(lambda v: v[3]).astype("int64"),
            "n_filters": vals.map(lambda v: v[4]).astype("int64"),
            "h_align": vals.map(lambda v: v[5]),
        })

    return ds.map_batches(fields, batch_format="pandas")


_PARAMS_FIELDS_SQL = f"""
WITH t AS ({TRANSCRIPTS_SQL})
SELECT conv_id, turn_idx,
  CASE tool WHEN 'signup' THEN 200 WHEN 'click' THEN 160
            WHEN 'purchase' THEN 120 ELSE 0 END AS width,
  CASE tool WHEN 'click' THEN 1 ELSE 0 END AS fit_in,
  CASE tool WHEN 'purchase' THEN 1 ELSE 0 END AS stretch,
  CASE tool WHEN 'signup' THEN 1 WHEN 'error' THEN 1 ELSE 0 END AS trim,
  CASE tool WHEN 'purchase' THEN 1 ELSE 2 END AS n_filters,
  CASE tool WHEN 'signup' THEN 'left' WHEN 'click' THEN 'left'
            WHEN 'purchase' THEN 'left' ELSE '' END AS h_align
FROM t
"""


QUERIES = {
    # imagor-core
    "transcripts": _q_transcripts,
    "canonical_paths": _q_canonical_paths,
    "params_fields": _q_params_fields,
    "processed": _q_processed,
    "processed_autoformat": _q_processed_autoformat,
    "response_cache_headers": _q_response_cache_headers,
    "signed": _q_signed,  # rows-only (HMAC not SQL-expressible)
    # streaming
    "sessions": _q_sessions,
    "sessions_salted": _q_sessions_salted,
    "streaming_sessions": _q_streaming_sessions,
    "streaming_sessions_outoforder": _q_streaming_sessions_outoforder,
    "tumbling_tool_stats": _q_tumbling,
    "sliding_tool_stats": _q_sliding,
    "enriched_tool_stats": _q_enriched,
    "cep_funnel": _q_cep_funnel,
    "event_props_type": _q_props_type,
    "doc_meta": _q_doc_meta,
    **{name: _mk_filter_query(spec[0], spec[2] if len(spec) > 2 else None)
       for name, spec in _FILTER_QUERY_SPECS.items()},
    "media_meta": _q_media_meta,  # rows-only: binary decode has no SQL surface
    "media_real_decode": _q_media_real_decode,  # rows-only: real WAV/BMP/PNG codecs
    "media_png_roundtrip": _q_media_png_roundtrip,
    "media_jpeg_roundtrip": _q_media_jpeg_roundtrip,
    "media_jpeg_progressive_roundtrip": _q_media_jpeg_progressive_roundtrip,
    "media_webp_roundtrip": _q_media_webp_roundtrip,
    "media_gif_roundtrip": _q_media_gif_roundtrip,
    "media_mp4_roundtrip": _q_media_mp4_roundtrip,
    "media_mkv_roundtrip": _q_media_mkv_roundtrip,
    "media_tiff_roundtrip": _q_media_tiff_roundtrip,
    "media_png_paeth_roundtrip": _q_media_png_paeth,
    "media_png_adam7_roundtrip": _q_media_png_adam7,
    "media_mjpeg_roundtrip": _q_media_mjpeg_roundtrip,
    "media_g711_roundtrip": _q_media_g711_roundtrip,
    "media_adpcm_roundtrip": _q_media_adpcm_roundtrip,
    "media_flac_roundtrip": _q_media_flac_roundtrip,
    "media_qoi_roundtrip": _q_media_qoi_roundtrip,
    "media_flac_mkv_roundtrip": _q_media_flac_mkv_roundtrip,
    "media_flac_mp4_roundtrip": _q_media_flac_mp4_roundtrip,
    "media_h264_roundtrip": _q_media_h264_roundtrip,
    "conv_stats": _q_conv_stats,
    # training-data ops
    "dedup_exact": exact_dedup,
    "paragraph_dedup": paragraph_dedup,
    "minhash_signatures": minhash_signatures,
    "minhash_pairs": minhash_pairs,
    "simhash_signatures": simhash_signatures,
    "simhash_pairs": simhash_pairs,
    "simhash64_signatures": lambda sf: simhash64_signatures(sf),
    "simhash64_pairs": simhash64_pairs,
    "ngram_jaccard_pairs": ngram_jaccard_pairs,
    "typo_pairs": typo_pairs,
    "source_normalize_stats": source_normalize_stats,
    "dedup_components": dedup_components,
    "pagerank": lambda sf: pagerank(sf),
    # rows-only: iterative argmax-rewrite loop (no SQL mirror exists);
    # pytest-verified identical to an independent reference (test_bpe)
    "bpe_merges": _q_bpe_merges,
    # rows-only: consumes the iterative merge table; differential pytest
    # pins byte-identical token streams vs an independent apply
    "bpe_encode": _q_bpe_encode,
    "contamination": contamination,
    "text_stats": text_stats,
    # min_count=100 exercises the vocab-pruning floor on this corpus
    # (drops the rare 'dup' token, keeps the 840+ head)
    "vocabulary": lambda sf: vocabulary(sf, min_count=100),
    # part_rows=64 forces multiple range partitions at sf0.01 so the
    # cross-partition base offsets of the distributed scan are exercised
    "sequence_pack": lambda sf: sequence_pack(sf, part_rows=64),
    "inverted_index": inverted_index,
    "tfidf_top_terms": tfidf_top_terms,
    "lang_id": lang_id,
    "doc_quality": doc_quality,
    "doc_repetition": doc_repetition,
    "doc_dup_fraction": doc_dup_fraction,
    "doc_oov": doc_oov,
    "quality_filter": quality_filter,
    "quality_percentile": quality_percentile,
    "pii_scan": pii_scan,
    "pii_redact": pii_redact,
    "corpus_clean": corpus_clean,
    "curriculum_order": curriculum_order,
    "collocations": collocations,
    "doc_sketches": lambda sf: doc_sketches(sf).select_columns(
        ["doc_id", "avg_char", "thumbhash"]),
    "doc_blurhash": lambda sf: doc_sketches(sf).select_columns(
        ["doc_id", "blurhash"]),  # SQL-mirrored since round 2 (_BLURHASH_SQL)
    "ann_topk": ann_topk,
    "knn_classify": knn_classify,
    "knn_accuracy": lambda sf: knn_accuracy(sf),
    "embedding_neardup": embedding_neardup,
    "embedding_neardup_planted": embedding_neardup_planted,
    "ann_lsh_topk": lsh_topk,  # rows-only (approximate by design)
    "ann_lsh_topk_fullprobe": _q_ann_lsh_fullprobe,
    "ann_ivf_topk": ivf_topk,  # rows-only (approximate by design)
    "label_centroids": label_centroids,
    # distributed k-means: integer-quantized exact arithmetic makes even
    # the multi-round Lloyd's loop hash-verifiable (pipelines/kmeans.py)
    "kmeans_assign": kmeans_assign,
    "kmeans_iter": kmeans_iter,
    "kmeans_train": lambda sf: kmeans_train(sf),
    "embedding_gram": embedding_gram,
    "pca_power_iter": lambda sf: pca_power_iter(sf),
    # relational breadth
    "q1_pricing": _q_q1,
    "q3_shipping": _q_q3,
    "q5_nation_revenue": _q_q5,
    "q10_returned_items": _q_q10,
    "q14_promo_revenue": _q_q14,
    "q18_large_orders": _q_q18,
    "q4_priority_semi": q4_priority_semi,
    "q6_forecast_revenue": q6_forecast_revenue,
    "q7_nation_volume": q7_nation_volume,
    "q8_market_share": q8_market_share,
    "q13_customer_distribution": q13_customer_distribution,
    "q15_top_supplier": q15_top_supplier,
    "q17_small_qty_revenue": q17_small_qty_revenue,
    "q19_disjunctive_revenue": q19_disjunctive_revenue,
    "q21_waiting_suppliers": q21_waiting_suppliers,
    "q22_dormant_customers": q22_dormant_customers,
    "user_journey": user_journey,
    "scd2_dimension": scd2_dimension,
    "mode_event_type": mode_event_type,
    "pivot_hour_type": pivot_hour_type,
    "purchase_periods_setop": purchase_periods_setop,
    "sliding_distinct_users": sliding_distinct_users,
    "time_weighted_value": time_weighted_value,
    "activity_streaks": activity_streaks,
    "heavy_hitter_tokens": heavy_hitter_tokens,
    "weighted_sample": weighted_sample,
    "group_moments": group_moments,
    "group_regression": group_regression,
    "lexical_diversity": lexical_diversity,
    "supplier_balance_by_nation": _q_supplier_balance,
    "rollup_revenue": rollup_revenue,
    "cube_revenue": cube_revenue,
    "asof_events_orders": _q_asof,
    "range_join_repeat_orders": _q_range_join,
    "butterfly_count": _q_butterflies,
    "stream_stream_join": _q_stream_stream_join,
    "stream_stream_left_join": _q_stream_stream_left_join,
    "stream_stream_full_join": _q_stream_stream_full_join,
    "tumbling_update_changelog": _q_tumbling_update_changelog,
    "tumbling_complete_mode": _q_tumbling_complete_mode,
    "tumbling_update_outoforder": _q_tumbling_update_outoforder,
    "sliding_update_changelog": _q_sliding_update_changelog,
    "sliding_append_counts": _q_sliding_append_counts,
    "topk_changelog": _q_topk_changelog,
    "sessions_update_changelog": _q_sessions_update_changelog,
    "sessions_update_changelog_late": _q_sessions_update_changelog_late,
    "stream_join_outoforder": _q_stream_join_outoforder,
    "streaming_cep": _q_streaming_cep,
    "streaming_cep_outoforder": _q_streaming_cep_outoforder,
    "scd2_changelog": _q_scd2_changelog,
    "scd2_changelog_outoforder": _q_scd2_changelog_outoforder,
    "streaming_dedup": _q_streaming_dedup,
    "temporal_join": _q_temporal_join,
    "broadcast_rules": _q_broadcast_rules,
    "broadcast_rules_outoforder": _q_broadcast_rules_outoforder,
    "stream_join_two_sources": _q_stream_join_two_sources,
    "stream_join_two_sources_full": _q_stream_join_two_sources_full,
    "bfs_hops": _q_bfs_hops,
    "click_abandonment": _q_click_abandonment,
    "cep_kleene_funnel": _q_cep_kleene,
    "conversion_latency_quantiles": _q_conversion_latency,
    "substring_span_coverage": _q_substring_span,
    "robust_value_stats": _q_robust_stats,
    "bloom_semi_join_events": _q_bloom_semi_join,
    "anti_join_events_urgent": anti_join_events_urgent,
    "group_sample": group_sample,
    "rolling_user_stats": rolling_user_stats,
    "error_context": error_context_window,
    "topk_orders_per_customer": top_orders_per_customer,
    "user_stats_by_type": user_stats_by_type,
    "latest_event_per_user": latest_event_per_user,
    "event_transitions": event_transitions,
    "attribution_last_touch": attribution_last_touch,
    "running_customer_revenue": running_customer_revenue,
    "profile_events": profile_events,
    "incremental_user_counts": incremental_user_counts,
    "skyline_orders": lambda sf: skyline_orders(sf),
    "zorder_cells": zorder_cells,
    "approx_quantiles_by_type": approx_quantiles_by_type,
    "hll_registers": hll_registers,
    "cohort_retention": cohort_retention,
    "dataset_split": dataset_split,
    "media_hashes": _q_media_hashes,
    "deterministic_sample": deterministic_sample,
    "stratified_sample": stratified_sample,
    "top_customers": _q_top_customers,
    "events_by_type": _q_events_by_type,
}

# The driver's CORRECTNESS sweep certifies only the first 50 catalog
# entries. Rotation rule: `transcripts`/`processed` stay first (driver
# smoke contract); each round refills the other 48 slots with entries
# the previous round's CORRECTNESS file does not list (at least 45 of
# them), one or more per family, so two consecutive rounds cover at
# least 95 distinct entries. Every slot must have a non-empty oracle at
# sf0.001 (tests/test_oracle_parity.py asserts it). The remainder stays
# covered by `python -m imagor_ray query --all --verify`.
_DRIVER_WINDOW = [
    "transcripts", "processed",
    # paths + filter chain
    "canonical_paths", "params_fields", "processed_autoformat",
    "filter_crop_frac", "filter_rotate180", "filter_hue",
    "filter_text_overlay", "filter_watermark_2d",
    # sessions + windows + CEP
    "sessions", "streaming_sessions", "streaming_sessions_outoforder",
    "tumbling_tool_stats", "sliding_tool_stats", "cep_funnel",
    # media codecs
    "media_png_roundtrip", "media_jpeg_roundtrip", "media_gif_roundtrip",
    "media_mp4_roundtrip", "media_adpcm_roundtrip", "media_qoi_roundtrip",
    # dedup + graph
    "dedup_exact", "minhash_pairs", "simhash_pairs", "dedup_components",
    "pagerank",
    # text quality + PII
    "tfidf_top_terms", "doc_repetition", "quality_percentile",
    "pii_redact", "doc_sketches",
    # ANN / embeddings / kmeans
    "knn_classify", "kmeans_assign", "embedding_neardup_planted",
    # relational (TPC-H)
    "q3_shipping", "q6_forecast_revenue", "q13_customer_distribution",
    "q22_dormant_customers",
    # window analytics / OLAP
    "user_journey", "activity_streaks", "cube_revenue", "group_regression",
    # streaming changelogs + joins
    "tumbling_update_outoforder", "sliding_update_changelog",
    "sessions_update_changelog", "stream_join_outoforder",
    "scd2_changelog", "stream_join_two_sources", "click_abandonment",
]
QUERIES = {**{k: QUERIES[k] for k in _DRIVER_WINDOW},
           **{k: v for k, v in QUERIES.items() if k not in _DRIVER_WINDOW}}

ORACLES = {
    "transcripts": TRANSCRIPTS_SQL,
    "canonical_paths": _CANONICAL_PATHS_SQL,
    "params_fields": _PARAMS_FIELDS_SQL,
    "processed": _PROCESSED_SQL,
    "processed_autoformat": _PROCESSED_AUTOFORMAT_SQL,
    "response_cache_headers": _RESPONSE_CACHE_HEADERS_SQL,
    "sessions": _SESSIONS_SQL,
    "sessions_salted": _SESSIONS_SQL,
    "streaming_sessions": _STREAMING_SESSIONS_SQL,
    "streaming_sessions_outoforder": _STREAMING_SESSIONS_SQL,
    "event_props_type": _PROPS_TYPE_SQL,
    "doc_meta": _DOC_META_SQL,
    **{name: f"SELECT doc_id, {spec[1]} AS text FROM documents"
       for name, spec in _FILTER_QUERY_SPECS.items()},
    "tumbling_tool_stats": _TUMBLING_SQL,
    "sliding_tool_stats": _SLIDING_SQL,
    "enriched_tool_stats": _ENRICHED_SQL,
    "cep_funnel": _CEP_FUNNEL_SQL,
    "dedup_exact": _DEDUP_EXACT_SQL,
    "paragraph_dedup": _PARAGRAPH_DEDUP_SQL,
    "minhash_signatures": _MINHASH_SQL,
    "minhash_pairs": _MINHASH_PAIRS_SQL,
    "doc_blurhash": _BLURHASH_SQL,
    "simhash_signatures": _SIMHASH_SQL,
    "simhash_pairs": _SIMHASH_PAIRS_SQL_TPL.format(SIMHASH=_SIMHASH_SQL),
    "simhash64_signatures": _SIMHASH64_SQL,
    "simhash64_pairs": _SIMHASH64_PAIRS_SQL,
    "ngram_jaccard_pairs": _NGRAM_JACCARD_SQL,
    "typo_pairs": _TYPO_PAIRS_SQL,
    "source_normalize_stats": _SOURCE_NORMALIZE_SQL,
    "dedup_components": _DEDUP_COMPONENTS_SQL,
    # exact-integer damped PageRank, 3 rounds unrolled into CTEs
    "pagerank": pagerank_sql(),
    "contamination": _CONTAMINATION_SQL,
    "conv_stats": _CONV_STATS_SQL,
    "text_stats": _TEXT_STATS_SQL,
    "vocabulary": _VOCABULARY_SQL,
    "sequence_pack": _SEQUENCE_PACK_SQL,
    "inverted_index": _INVERTED_INDEX_SQL,
    "tfidf_top_terms": _TFIDF_SQL,
    "lang_id": _LANG_ID_SQL,
    "doc_quality": _DOC_QUALITY_SQL,
    "doc_repetition": _DOC_REPETITION_SQL,
    "doc_dup_fraction": _DOC_DUP_FRACTION_SQL,
    "doc_oov": _DOC_OOV_SQL,
    "pii_scan": PII_SCAN_SQL,
    "pii_redact": PII_REDACT_SQL,
    "corpus_clean": CORPUS_CLEAN_SQL,
    "quality_filter": _QUALITY_FILTER_SQL.format(DQ=_DOC_QUALITY_SQL),
    "quality_percentile": _QUALITY_PCT_SQL.format(DQ=_DOC_QUALITY_SQL),
    "curriculum_order": _CURRICULUM_SQL.format(DQ=_DOC_QUALITY_SQL),
    "collocations": _COLLOCATIONS_SQL,
    "doc_sketches": _SKETCHES_SQL,
    "ann_topk": _ANN_SQL,
    # full-probe LSH (probe_hamming = bits) scans every bucket, so the
    # result is deterministically identical to brute force -- promoting
    # the LSH machinery itself under the hash gate (round-4 verdict
    # item 5); only ann_lsh_topk/ann_ivf_topk stay rows-only (approx)
    "ann_lsh_topk_fullprobe": _ANN_SQL,
    "knn_classify": _KNN_CLASSIFY_SQL,
    "knn_accuracy": _KNN_ACCURACY_SQL,
    "embedding_neardup": _NEARDUP_SQL,
    "embedding_neardup_planted": _NEARDUP_PLANTED_SQL,
    "label_centroids": _CENTROIDS_SQL,
    "kmeans_assign": KMEANS_ASSIGN_SQL,
    "kmeans_iter": KMEANS_ITER_SQL,
    # the 3-round training loop, unrolled into CTEs — an ITERATIVE
    # algorithm under the exact hash gate (quantized-integer arithmetic)
    "kmeans_train": kmeans_train_sql(),
    "embedding_gram": EMBEDDING_GRAM_SQL,
    # power iteration on the exact gram: truncating fixed-point
    # renormalization makes the iterative eigen-solve hash-verifiable
    "pca_power_iter": pca_power_iter_sql(),
    "q1_pricing": _Q1_SQL,
    "q3_shipping": _Q3_SQL,
    "q5_nation_revenue": _Q5_SQL,
    "q10_returned_items": _Q10_SQL,
    "q14_promo_revenue": _Q14_SQL,
    "q18_large_orders": _Q18_SQL,
    "q4_priority_semi": Q4_SQL,
    "q6_forecast_revenue": Q6_SQL,
    "q7_nation_volume": Q7_SQL,
    "q8_market_share": Q8_SQL,
    "q13_customer_distribution": Q13_SQL,
    "q15_top_supplier": Q15_SQL,
    "q17_small_qty_revenue": Q17_SQL,
    "q19_disjunctive_revenue": Q19_SQL,
    "q21_waiting_suppliers": Q21_SQL,
    "q22_dormant_customers": Q22_SQL,
    "user_journey": USER_JOURNEY_SQL,
    "scd2_dimension": SCD2_SQL,
    "mode_event_type": MODE_SQL,
    "pivot_hour_type": PIVOT_SQL,
    "purchase_periods_setop": SETOP_SQL,
    "sliding_distinct_users": SLIDING_DISTINCT_SQL,
    "time_weighted_value": TIME_WEIGHTED_SQL,
    "activity_streaks": STREAKS_SQL,
    "heavy_hitter_tokens": HEAVY_HITTERS_SQL,
    "weighted_sample": WEIGHTED_SAMPLE_SQL,
    "group_moments": GROUP_MOMENTS_SQL,
    "group_regression": GROUP_REGRESSION_SQL,
    "lexical_diversity": LEXICAL_DIVERSITY_SQL,
    "supplier_balance_by_nation": _SUPPLIER_BALANCE_SQL,
    "rollup_revenue": _ROLLUP_SQL,
    "cube_revenue": _CUBE_SQL,
    "asof_events_orders": _ASOF_SQL,
    "range_join_repeat_orders": _RANGE_JOIN_SQL,
    "butterfly_count": _BUTTERFLY_SQL_REF,
    "stream_stream_join": _STREAM_JOIN_SQL,
    "stream_stream_left_join": _STREAM_LEFT_JOIN_SQL,
    "stream_stream_full_join": _STREAM_FULL_JOIN_SQL,
    "tumbling_update_changelog": _UPDATE_CHANGELOG_SQL,
    "sliding_update_changelog": _SLIDING_UPDATE_SQL,
    "sliding_append_counts": _SLIDING_APPEND_SQL,
    "topk_changelog": _TOPK_CHANGELOG_SQL,
    "tumbling_complete_mode": _COMPLETE_MODE_SQL,
    "tumbling_update_outoforder": _UPDATE_OUTOFORDER_SQL,
    "sessions_update_changelog": _SESSIONS_UPDATE_SQL,
    "sessions_update_changelog_late": _SESSIONS_UPDATE_LATE_SQL,
    # the two-source run must reproduce the single-stream inner join
    "stream_join_two_sources": _STREAM_JOIN_SQL,
    "stream_join_outoforder": _STREAM_JOIN_SQL,
    "streaming_cep": _CEP_KLEENE_SQL,
    "streaming_cep_outoforder": _CEP_KLEENE_SQL,
    "scd2_changelog": SCD2_OPS_SQL,
    "scd2_changelog_outoforder": SCD2_OPS_SQL,
    "streaming_dedup": _STREAMING_DEDUP_SQL,
    "temporal_join": _TEMPORAL_JOIN_SQL,
    "broadcast_rules": _BROADCAST_RULES_SQL,
    "broadcast_rules_outoforder": _BROADCAST_RULES_SQL,
    # ... and its outer composition the batch FULL JOIN
    "stream_join_two_sources_full": _STREAM_FULL_JOIN_SQL,
    "bfs_hops": _BFS_HOPS_SQL_REF,
    "click_abandonment": _ABANDONMENT_SQL,
    "cep_kleene_funnel": _CEP_KLEENE_SQL,
    "conversion_latency_quantiles": _CONVERSION_LATENCY_SQL,
    "substring_span_coverage": _SUBSTRING_SPAN_SQL,
    "robust_value_stats": _ROBUST_STATS_SQL,
    "bloom_semi_join_events": _BLOOM_SEMI_SQL,
    "anti_join_events_urgent": _ANTI_JOIN_SQL,
    "group_sample": _GROUP_SAMPLE_SQL,
    "rolling_user_stats": _ROLLING_SQL,
    "error_context": _ERROR_CONTEXT_SQL,
    "topk_orders_per_customer": _TOPK_PER_CUST_SQL,
    "user_stats_by_type": _USER_STATS_SQL,
    "latest_event_per_user": _LATEST_EVENT_SQL,
    "event_transitions": EVENT_TRANSITIONS_SQL,
    "attribution_last_touch": ATTRIBUTION_SQL,
    "running_customer_revenue": RUNNING_REVENUE_SQL,
    "profile_events": PROFILE_EVENTS_SQL,
    "incremental_user_counts": INCREMENTAL_COUNTS_SQL,
    "skyline_orders": SKYLINE_SQL,
    "zorder_cells": zorder_cells_sql(),
    "approx_quantiles_by_type": _APPROX_QUANTILES_SQL,
    "hll_registers": _HLL_SQL,
    "cohort_retention": _COHORT_SQL,
    "dataset_split": _SPLIT_SQL,
    "media_hashes": _MEDIA_HASHES_SQL,
    # PNG round trip recovers the exact utf-8 bytes, so the oracle is the
    # same raw-text hash as media_hashes — equality certifies the codec
    "media_png_roundtrip": _MEDIA_HASHES_SQL,
    # JPEG round trip paints sha256(text) hex as constant 8x8 tiles at
    # q=100 (DC-only => bit-exact through the lossy pipeline) and reads
    # it back — the oracle recomputes the digest directly
    "media_jpeg_roundtrip": _JPEG_ROUNDTRIP_SQL,
    "media_jpeg_progressive_roundtrip": _JPEG_ROUNDTRIP_SQL,
    "media_webp_roundtrip": _JPEG_ROUNDTRIP_SQL,
    # animated GIF round trip recovers the exact utf-8 bytes across
    # LZW frames, same raw-text-hash oracle as PNG
    "media_gif_roundtrip": _MEDIA_HASHES_SQL,
    # MP4 round trip demuxes the exact utf-8 bytes out of mdat via the
    # stts/stsc/stsz/stco sample table, same raw-text-hash oracle
    "media_mp4_roundtrip": _MEDIA_HASHES_SQL,
    # Matroska round trip recovers the bytes from multi-cluster EBML
    # SimpleBlocks in timestamp order, same raw-text-hash oracle
    "media_mkv_roundtrip": _MEDIA_HASHES_SQL,
    # Motion-JPEG: sha256 hex painted as DC-only tiles across 4 JPEG
    # frames inside a real MP4 (even ids) / Matroska (odd ids) video
    # track — the digest oracle certifies container + JPEG jointly
    "media_mjpeg_roundtrip": _JPEG_ROUNDTRIP_SQL,
    # TIFF round trip recovers the exact utf-8 bytes through a
    # PackBits-compressed multi-strip file, same raw-text-hash oracle
    "media_tiff_roundtrip": _MEDIA_HASHES_SQL,
    # Paeth-predicted PNG: lossless spatial prediction + inverse
    # reconstruction under the same raw-text-hash oracle
    "media_png_paeth_roundtrip": _MEDIA_HASHES_SQL,
    "media_png_adam7_roundtrip": _MEDIA_HASHES_SQL,
    # G.711: the document bytes ARE the A-law code stream of a real
    # compressed-audio WAV; expand→compand is a bijection on all 256
    # codes, so the raw-text hash certifies RIFF framing + both tables
    "media_g711_roundtrip": _MEDIA_HASHES_SQL,
    "media_adpcm_roundtrip": _MEDIA_HASHES_SQL,
    # FLAC / QOI are lossless predictive codecs: the round trip recovers
    # the exact utf-8 bytes, so both oracles are the raw-text hash
    "media_flac_roundtrip": _MEDIA_HASHES_SQL,
    "media_qoi_roundtrip": _MEDIA_HASHES_SQL,
    # FLAC in BOTH real containers is lossless end to end too
    "media_flac_mkv_roundtrip": _MEDIA_HASHES_SQL,
    "media_flac_mp4_roundtrip": _MEDIA_HASHES_SQL,
    "media_h264_roundtrip": _MEDIA_HASHES_SQL,
    "deterministic_sample": _SAMPLE_SQL,
    "stratified_sample": _STRATIFIED_SQL,
    "top_customers": _TOP_CUSTOMERS_SQL,
    "events_by_type": _EVENTS_BY_TYPE_SQL,
}
