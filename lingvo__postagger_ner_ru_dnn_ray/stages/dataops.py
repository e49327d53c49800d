"""Large-scale training-data operations over the driver's ``documents``
table.

These are the document-statistics operators a corpus engine runs beside
the reference's NLP stages: lexical retrieval (TF-IDF, BM25) and text
analysis (language-ID, quality scoring, token counting, fingerprinting,
sampling, sketches, n-gram signals). Every operator is a streaming
``map_batches`` composition with explicit partial-aggregation before any
shuffle; small sides are broadcast with ``ray.put``.
"""
from __future__ import annotations

import math
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Max, Sum

from ..functions.hashing import _md5_u64

# --------------------------------------------------------------------------- #
# helpers

def _docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


_JOIN_SALTS = 512  # scale knob: ≈ 16-32 × cluster cores


def _key_salt(k: np.ndarray) -> np.ndarray:
    """Multiply-hash int64 keys into _JOIN_SALTS bounded partitions
    (vectorized; the partition is the map_groups unit so per-group Python
    dispatch is O(partitions), never O(keys))."""
    return (
        ((k.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33))
        % np.uint64(_JOIN_SALTS)
    ).astype(np.int64)


_WORD_HASH_MEMO: dict[str, int] = {}  # per-worker Zipfian word-hash cache


def _word_hash(w: str) -> int:
    h = _WORD_HASH_MEMO.get(w)
    if h is None:
        if len(_WORD_HASH_MEMO) > 1_000_000:  # bound worker heap
            _WORD_HASH_MEMO.clear()
        h = _WORD_HASH_MEMO[w] = _md5_u64(w)
    return h


# --------------------------------------------------------------------------- #
# token counting / quality scoring / language id — pure vectorized maps

_STOPWORDS = ("the", "a", "of", "and", "to")


def doc_token_count(sf_dir: str) -> ray.data.Dataset:
    def fn(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        n_ws = pc.list_value_length(toks)
        # BPE-ish regex token count (words + isolated non-word chars) —
        # Arrow's RE2 kernel, the same engine the DuckDB oracle uses
        # (Python re's Unicode \w would diverge on non-ASCII text)
        n_rx = pc.cast(
            pc.count_substring_regex(batch.column("text"), r"\w+|[^\w\s]"), pa.int64()
        )
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pc.cast(n_ws, pa.int64()), n_rx,
             pc.cast(pc.utf8_length(batch.column("text")), pa.int64())],
            names=["doc_id", "n_ws_tokens", "n_rx_tokens", "n_chars"],
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def doc_quality(sf_dir: str) -> ray.data.Dataset:
    """Integer quality signals (word count, stopword count, max word length)
    — integer-valued so the DuckDB comparison is exact."""

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_words, n_stop, max_wl = [], [], []
        stop = set(_STOPWORDS)
        for t in texts:
            ws = t.split(" ")
            n_words.append(len(ws))
            n_stop.append(sum(1 for w in ws if w in stop))
            max_wl.append(max((len(w) for w in ws), default=0))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(n_words, pa.int64()),
             pa.array(n_stop, pa.int64()), pa.array(max_wl, pa.int64())],
            names=["doc_id", "n_words", "n_stop", "max_word_len"],
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def doc_langid(sf_dir: str) -> ray.data.Dataset:
    """Script-ratio language heuristic: cyrillic vs latin letter counts —
    two Arrow count_substring_regex kernels, no Python per-row loop."""

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        cyr = pc.count_substring_regex(text, "[а-яА-ЯёЁ]")
        lat = pc.count_substring_regex(text, "[a-zA-Z]")
        preds = pc.if_else(pc.greater(cyr, lat), "ru", "en")
        return pa.Table.from_arrays(
            [batch.column("doc_id"), preds], names=["doc_id", "lang_pred"]
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def doc_len_histogram(sf_dir: str, bucket_chars: int = 100) -> ray.data.Dataset:
    """Document-length histogram (len//100 buckets) — the Corpus.cs:210-316
    token-length-histogram analogue as a partial-count → groupby-sum."""

    def partials(batch: pa.Table) -> pa.Table:
        b = pc.divide(pc.cast(pc.utf8_length(batch.column("text")), pa.int64()),
                      bucket_chars)
        t = pa.Table.from_arrays([b], names=["len_bucket"])
        g = t.group_by(["len_bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["len_bucket", "n_docs"])

    part = _docs(sf_dir, ["text"]).map_batches(partials, batch_format="pyarrow")
    return part.groupby("len_bucket").aggregate(Sum("n_docs", alias_name="n_docs"))


# --------------------------------------------------------------------------- #
# token frequency (vocab build): partial counts per batch -> small groupby

def doc_token_freq(sf_dir: str, top_k: int = 100) -> ray.data.Dataset:
    def partials(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        t = pa.Table.from_arrays([toks], names=["token"])
        g = t.group_by(["token"]).aggregate([([], "count_all")])
        return g.rename_columns(["token", "freq"])

    ds = _docs(sf_dir, ["text"]).map_batches(partials, batch_format="pyarrow")
    out = ds.groupby("token").aggregate(Sum("freq", alias_name="freq"))
    return out.sort(["freq", "token"], descending=[True, False]).limit(top_k)


# --------------------------------------------------------------------------- #
# winnowing fingerprint

def doc_fingerprint(sf_dir: str, window: int = 4) -> ray.data.Dataset:
    """Winnowing document fingerprint: min rolling-hash per window; emits
    (doc_id, n_fingerprints, min_fp, max_fp). Shingle hashes are md5-based,
    shifted to signed int64 BEFORE the min so Python and the SQL oracle
    compare in the same (signed) domain."""
    off = 1 << 63

    def fn(batch: pa.Table) -> pa.Table:
        n_out, mn_out, mx_out = [], [], []
        for text in batch.column("text").to_pylist():
            ws = text.split(" ")
            hs = np.array(
                [_md5_u64(" ".join(ws[i : i + 3])) - off
                 for i in range(max(1, len(ws) - 2))],
                dtype=np.int64,
            )
            if len(hs) <= window:
                fps = np.array([hs.min()])
            else:
                mins = np.lib.stride_tricks.sliding_window_view(hs, window).min(axis=1)
                fps = np.unique(mins)
            n_out.append(len(fps))
            mn_out.append(int(fps.min()))
            mx_out.append(int(fps.max()))
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(n_out, pa.int64()),
             pa.array(mn_out, pa.int64()), pa.array(mx_out, pa.int64())],
            names=["doc_id", "n_fp", "min_fp", "max_fp"],
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


FINGERPRINT_ORACLE_SQL = """
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), hl AS (
  SELECT doc_id, list_transform(generate_series(1, greatest(1, len(ws)-2)),
    i -> (md5_number_upper(array_to_string(list_slice(ws, i, i+2), ' '))::HUGEINT
          - 9223372036854775808::HUGEINT)::BIGINT) AS hs
  FROM d
), s AS (
  SELECT doc_id, unnest(hs) AS h, unnest(generate_series(1, len(hs))) AS i,
         len(hs) AS nh
  FROM hl
), wmin AS (
  SELECT doc_id, i, nh,
    min(h) OVER (PARTITION BY doc_id ORDER BY i
                 ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS fp
  FROM s
), fps AS (
  SELECT DISTINCT doc_id, fp FROM wmin WHERE i <= greatest(1, nh - 3)
)
SELECT doc_id, count(*)::BIGINT AS n_fp, min(fp) AS min_fp, max(fp) AS max_fp
FROM fps GROUP BY doc_id
"""


# --------------------------------------------------------------------------- #
# deterministic hash sampling — resumable, RNG-free corpus subsetting

_SAMPLE_PCT = 10


def doc_sample(sf_dir: str) -> ray.data.Dataset:
    """Keep ~10% of documents by a multiply-shift hash of doc_id — the
    deterministic sampling a resumable 100-TB pipeline uses instead of
    RNG state (same rows on re-run, no coordination, SQL-reproducible).
    The hash is one vectorized numpy expression (uint64 golden-ratio
    multiply >> 33, mod 100); DuckDB reproduces it exactly with HUGEINT
    arithmetic — no per-row Python/md5 in the hot path."""

    def fn(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        h = (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            >> np.uint64(33)
        ) % np.uint64(100)
        t = pa.Table.from_arrays(
            [batch.column("doc_id"),
             pc.cast(pc.utf8_length(batch.column("text")), pa.int64())],
            names=["doc_id", "n_chars"],
        )
        return t.filter(pa.array(h < _SAMPLE_PCT))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def doc_sample_oracle_sql() -> str:
    # 11400714819323198485 = 0x9E3779B97F4A7C15; // 8589934592 = >> 33
    return (
        "SELECT doc_id, length(text)::BIGINT AS n_chars FROM documents "
        "WHERE ((((doc_id::HUGEINT * 11400714819323198485) % 18446744073709551616)"
        f" // 8589934592) % 100)::BIGINT < {_SAMPLE_PCT}"
    )


# --------------------------------------------------------------------------- #
# char-n-gram LM perplexity — CCNet/KenLM-style quality filtering

_LM_TRAIN_CAP = 100  # doc_id < cap trains the LM (fixed, broadcastable)
_LM_N = 3


def _charlm_counts_distributed(train: ray.data.Dataset) -> tuple[dict, dict]:
    """DISTRIBUTED trigram trainer: per-batch Counter partials → salted
    combine → one driver pull bounded by the DISTINCT-GRAM vocabulary
    (≈ charset³ worst case, thousands in practice), never by the number
    of training documents. Exact integer counts — the same model as one
    sequential pass over the texts, any training-set size."""

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for t in batch.column("text").to_pylist():
            s = f"^^{t}$"
            for i in range(len(s) - _LM_N + 1):
                c[s[i : i + _LM_N]] += 1
        grams = list(c.keys())
        vals = np.fromiter(c.values(), dtype=np.int64, count=len(c))
        salt = np.fromiter(
            ((zlib.crc32(g.encode()) % _JOIN_SALTS) for g in grams),
            dtype=np.int64, count=len(grams),
        )
        return pa.Table.from_arrays(
            [pa.array(grams, pa.string()), pa.array(vals), pa.array(salt)],
            names=["g", "c", "salt"],
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("g", as_index=False)["c"].sum()
        return pd.DataFrame({
            "g": out["g"], "c": pd.Series(out["c"].to_numpy(), dtype="int64"),
        })

    agg = (
        train.map_batches(partials, batch_format="pyarrow")
        .groupby("salt")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()  # bounded by distinct grams
    )
    full = dict(zip(agg["g"], agg["c"].astype(int)))
    ctx: dict[str, int] = {}
    for g, n in full.items():
        c = g[:-1]
        ctx[c] = ctx.get(c, 0) + n
    return ctx, full


def doc_charlm_ppl(sf_dir: str) -> ray.data.Dataset:
    """Per-doc char-trigram LM surprise with add-1 smoothing: emits
    (doc_id, n_grams, sum_millibits) where sum_millibits is the INTEGER sum
    of round(1000·-log2 P(c|prev2)) per trigram — per-trigram rounding
    before the sum keeps the distributed result bit-exact and lets the
    DuckDB oracle reproduce it (integer sums are order-independent; a
    float mean would drift by summation order). Mean millibits/gram =
    sum_millibits/n_grams for downstream filters. The LM trains on docs
    with doc_id < 100 via the DISTRIBUTED partial-count trainer
    (_charlm_counts_distributed — driver pull bounded by the distinct-
    gram vocabulary, never by training-doc count) and broadcasts the
    count tables once via ray.put."""
    import math

    train = _docs(sf_dir, ["doc_id", "text"]).filter(expr=f"doc_id < {_LM_TRAIN_CAP}")
    ctx, full = _charlm_counts_distributed(train)
    vocab_size = len({g[-1] for g in full}) + 1
    ref = ray.put((ctx, full, vocab_size))

    def score(batch: pa.Table) -> pa.Table:
        ctx, full, V = ray.get(ref)
        cost_memo: dict[str, int] = {}
        n_out, s_out = [], []
        for t in batch.column("text").to_pylist():
            s = f"^^{t}$"
            total = 0
            n = len(s) - _LM_N + 1
            for i in range(n):
                g = s[i : i + _LM_N]
                c = cost_memo.get(g)
                if c is None:
                    p = (full.get(g, 0) + 1) / (ctx.get(g[:-1], 0) + V)
                    # floor(x+0.5) == DuckDB round() for positive values
                    c = cost_memo[g] = int(math.floor(1000.0 * -math.log2(p) + 0.5))
                total += c
            n_out.append(n)
            s_out.append(total)
        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(n_out, pa.int64()),
             pa.array(s_out, pa.int64())],
            names=["doc_id", "n_grams", "sum_millibits"],
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(score, batch_format="pyarrow")


CHARLM_ORACLE_SQL = """
WITH tr AS (
  SELECT '^^' || text || '$' AS s FROM documents WHERE doc_id < 100
), tg AS (
  SELECT unnest(list_transform(generate_series(1, length(s) - 2),
                               i -> substr(s, i, 3))) AS g
  FROM tr
), fc AS (
  SELECT g, count(*)::BIGINT AS c FROM tg GROUP BY g
), cc AS (
  SELECT substr(g, 1, 2) AS cx, sum(c)::BIGINT AS c FROM fc GROUP BY cx
), vs AS (
  SELECT (count(DISTINCT substr(g, 3, 1)) + 1)::BIGINT AS v FROM fc
), dg AS (
  SELECT doc_id,
    unnest(list_transform(generate_series(1, length('^^' || text || '$') - 2),
                          i -> substr('^^' || text || '$', i, 3))) AS g
  FROM documents
)
SELECT doc_id, count(*)::BIGINT AS n_grams,
  sum(round(1000.0 * -log2((coalesce(fc.c, 0) + 1)::DOUBLE
      / (coalesce(cc.c, 0) + (SELECT v FROM vs)))))::BIGINT AS sum_millibits
FROM dg LEFT JOIN fc USING (g) LEFT JOIN cc ON substr(dg.g, 1, 2) = cc.cx
GROUP BY doc_id
"""


# --------------------------------------------------------------------------- #
# stratified deterministic sampling — per-language rates over DETECTED language

_STRAT_RATES = {"ru": 20, "en": 5}  # keep % per detected language


def doc_sample_stratified(sf_dir: str) -> ray.data.Dataset:
    """Stratified deterministic sampling: language-ID (the doc_langid
    Arrow-kernel heuristic) picks the stratum, a multiply-shift hash of
    doc_id picks membership at that stratum's rate — 20 % of Russian
    docs, 5 % of English. RNG-free and coordination-free like
    doc_sample: the same rows survive any re-run/retry at any
    parallelism, which is what makes a 100 TB sampling job resumable.
    One fused map_batches — no shuffle at all."""

    def fn(batch: pa.Table) -> pa.Table:
        text = batch.column("text")
        cyr = pc.count_substring_regex(text, "[а-яА-ЯёЁ]")
        lat = pc.count_substring_regex(text, "[a-zA-Z]")
        lang = pc.if_else(pc.greater(cyr, lat), "ru", "en")
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        h = (
            (ids.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15))
            >> np.uint64(33)
        ) % np.uint64(100)
        rate = np.where(
            np.asarray(pc.equal(lang, "ru")), _STRAT_RATES["ru"], _STRAT_RATES["en"]
        )
        t = pa.Table.from_arrays(
            [batch.column("doc_id"), lang,
             pc.cast(pc.utf8_length(text), pa.int64())],
            names=["doc_id", "lang_pred", "n_chars"],
        )
        return t.filter(pa.array(h < rate))

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


def stratified_sample_oracle_sql() -> str:
    ru, en = _STRAT_RATES["ru"], _STRAT_RATES["en"]
    return (
        "WITH l AS (SELECT doc_id, length(text)::BIGINT AS n_chars, "
        "CASE WHEN len(regexp_extract_all(text, '[а-яА-ЯёЁ]')) > "
        "len(regexp_extract_all(text, '[a-zA-Z]')) THEN 'ru' ELSE 'en' END AS lang_pred "
        "FROM documents) "
        "SELECT doc_id, lang_pred, n_chars FROM l "
        "WHERE ((((doc_id::HUGEINT * 11400714819323198485) % 18446744073709551616) "
        "// 8589934592) % 100)::BIGINT < "
        f"(CASE WHEN lang_pred = 'ru' THEN {ru} ELSE {en} END)"
    )


# --------------------------------------------------------------------------- #
# HyperLogLog distinct-count sketch — O(m) memory where exact counting can't fit

_HLL_B = 10                 # register index bits
_HLL_M = 1 << _HLL_B        # 1024 registers


def _hll_register_partials(batch: pa.Table) -> pa.Table:
    """Per-batch HLL register partial-max: tokens -> md5 hash -> (register,
    rho); only the 1024-bounded register maxima leave the batch."""
    toks = pc.unique(pc.list_flatten(pc.split_pattern(batch.column("text"), " ")))
    if len(toks) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64())],
            names=["register", "max_rho"],
        )
    hs = np.fromiter(
        (_word_hash(w) for w in toks.to_pylist()), dtype=np.uint64, count=len(toks)
    )
    reg = (hs % np.uint64(_HLL_M)).astype(np.int64)
    v = ((hs >> np.uint64(_HLL_B)) & np.uint64(0xFFFFFFFF)).astype(np.int64)
    # rho = 32 - floor(log2(v)) for v>0 else 33; bit-exact via frexp
    # (v < 2^32 is exactly representable in float64, exponent == bit_length)
    rho = np.where(v > 0, 33 - np.frexp(v.astype(np.float64))[1], 33).astype(np.int64)
    maxima = np.zeros(_HLL_M, dtype=np.int64)
    np.maximum.at(maxima, reg, rho)
    used = np.nonzero(maxima)[0]
    return pa.Table.from_arrays(
        [pa.array(used.astype(np.int64)), pa.array(maxima[used])],
        names=["register", "max_rho"],
    )


def doc_token_hll_registers(sf_dir: str) -> ray.data.Dataset:
    """HyperLogLog(m=1024) register table over the corpus token stream —
    the mergeable sketch for COUNT DISTINCT when the distinct set itself
    is too large to shuffle.
    Register maxima are associative/commutative, so per-batch partials
    (≤1024 rows each) flow through one tiny groupby-max; duplicates never
    matter. Hashing is the engine's md5 word hash, reproduced exactly in
    SQL via md5_number_upper + bin()."""
    part = _docs(sf_dir, ["text"]).map_batches(
        _hll_register_partials, batch_format="pyarrow"
    )
    return part.groupby("register").aggregate(Max("max_rho", alias_name="max_rho"))


HLL_REGISTERS_ORACLE_SQL = """
WITH toks AS (
  SELECT DISTINCT unnest(string_split(text, ' ')) AS tok FROM documents
), r AS (
  SELECT (md5_number_upper(tok) % 1024)::BIGINT AS register,
         ((md5_number_upper(tok) // 1024) % 4294967296) AS v
  FROM toks
)
SELECT register,
  max(CASE WHEN v = 0 THEN 33 ELSE 33 - length(bin(v)) END)::BIGINT AS max_rho
FROM r GROUP BY register
"""


def doc_token_hll_estimate(sf_dir: str) -> pd.DataFrame:
    """The HLL cardinality estimate from the register table. The harmonic
    sum is kept INTEGER-exact (Σ 2^(33-rho) scaled by 2^33, empty
    registers contribute 2^33) so the only float op is one final
    division, identical in numpy and DuckDB; the estimate is floored to
    millis. Driver pull is the ≤1024-row register table — bounded by the
    sketch size, never by the data."""
    regs = doc_token_hll_registers(sf_dir).to_pandas()  # ≤ _HLL_M rows
    rho = regs["max_rho"].to_numpy(dtype=np.int64)
    n_used = len(regs)
    sum_scaled = int((np.int64(1) << (np.int64(33) - rho)).sum()) + (
        (_HLL_M - n_used) << 33
    )
    alpha = 0.7213 / (1 + 1.079 / _HLL_M)
    est = alpha * _HLL_M * _HLL_M * 8589934592.0 / sum_scaled
    n_empty = _HLL_M - n_used
    if est <= 2.5 * _HLL_M and n_empty > 0:
        # linear-counting small-range correction; math.log is libm's
        # double log — the same function DuckDB's ln() calls, so the
        # floats are bit-identical
        est = _HLL_M * math.log(_HLL_M / n_empty)
    return pd.DataFrame({
        "n_registers_used": pd.Series([n_used], dtype="int64"),
        "sum_scaled": pd.Series([sum_scaled], dtype="int64"),
        "est_millis": pd.Series([int(np.floor(est * 1000.0))], dtype="int64"),
    })


HLL_ESTIMATE_ORACLE_SQL = """
WITH toks AS (
  SELECT DISTINCT unnest(string_split(text, ' ')) AS tok FROM documents
), r AS (
  SELECT (md5_number_upper(tok) % 1024)::BIGINT AS register,
         ((md5_number_upper(tok) // 1024) % 4294967296) AS v
  FROM toks
), regs AS (
  SELECT register,
    max(CASE WHEN v = 0 THEN 33 ELSE 33 - length(bin(v)) END)::BIGINT AS max_rho
  FROM r GROUP BY register
), agg AS (
  SELECT count(*)::BIGINT AS n_used,
    (sum((1::BIGINT << (33 - max_rho))) +
     (1024 - count(*))::BIGINT * 8589934592)::BIGINT AS sum_scaled
  FROM regs
), raw AS (
  SELECT n_used, sum_scaled,
    (0.7213 / (1 + 1.079 / 1024)) * 1024 * 1024 * 8589934592.0
      / sum_scaled AS est
  FROM agg
)
SELECT n_used AS n_registers_used, sum_scaled,
  floor((CASE WHEN est <= 2.5 * 1024 AND n_used < 1024
              THEN 1024 * ln(1024 / (1024.0 - n_used))
              ELSE est END) * 1000.0)::BIGINT AS est_millis
FROM raw
"""


# --------------------------------------------------------------------------- #
# count-min sketch — the mergeable frequency sketch (complement of HLL's
# cardinality sketch): bounded-size register table, per-token overestimates

_CMS_W = 1024  # buckets per row
_CMS_D = 4  # independent hash rows
# universal hashing (a*h + b) mod the Mersenne prime 2^31-1: products stay
# below 2^62, so numpy-uint64 and DuckDB-BIGINT arithmetic agree exactly
_CMS_P = np.uint64((1 << 31) - 1)
_CMS_RNG = np.random.RandomState(99)
_CMS_A = _CMS_RNG.randint(1, int(_CMS_P), size=_CMS_D).astype(np.uint64)
_CMS_B = _CMS_RNG.randint(0, int(_CMS_P), size=_CMS_D).astype(np.uint64)


def _cms_register_partials(batch: pa.Table) -> pa.Table:
    """Per-batch count-min partial counts: token occurrences -> md5 word
    hash -> _CMS_D universal-hash buckets; only the ≤ D·W nonzero
    register sums leave the batch."""
    toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
    if len(toks) == 0:
        return pa.Table.from_arrays(
            [pa.array([], pa.int64()), pa.array([], pa.int64()),
             pa.array([], pa.int64())],
            names=["depth", "bucket", "cnt"],
        )
    vc = pa.Table.from_arrays([toks], names=["t"]).group_by(["t"]).aggregate(
        [([], "count_all")]
    )
    words = vc.column("t").to_pylist()
    counts = np.asarray(vc.column("count_all"), dtype=np.int64)
    wh = np.fromiter(
        (_word_hash(w) for w in words), dtype=np.uint64, count=len(words)
    ) % _CMS_P
    grid = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    for d in range(_CMS_D):
        b = ((_CMS_A[d] * wh + _CMS_B[d]) % _CMS_P % np.uint64(_CMS_W)).astype(np.int64)
        np.add.at(grid[d], b, counts)
    dd, bb = np.nonzero(grid)
    return pa.Table.from_arrays(
        [pa.array(dd.astype(np.int64)), pa.array(bb.astype(np.int64)),
         pa.array(grid[dd, bb])],
        names=["depth", "bucket", "cnt"],
    )


def doc_token_cms_registers(sf_dir: str) -> ray.data.Dataset:
    """Count-min sketch (4×1024) register table over the corpus token
    stream. Register sums are associative, so per-batch partials (≤4096
    rows) flow through one tiny groupby-sum; the sketch answers point
    frequency queries with one-sided error cnt_est ≥ cnt_true. Hashing
    is the engine's md5 word hash mod 2^31-1 under the (a·h+b) mod p
    universal family — BIGINT-safe, SQL-exact."""
    part = _docs(sf_dir, ["text"]).map_batches(
        _cms_register_partials, batch_format="pyarrow"
    )
    return part.groupby(["depth", "bucket"]).aggregate(Sum("cnt", alias_name="cnt"))


def _cms_hash_values_sql() -> str:
    return ", ".join(
        f"({d},{int(_CMS_A[d])},{int(_CMS_B[d])})" for d in range(_CMS_D)
    )


CMS_REGISTERS_ORACLE_SQL = f"""
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), h AS (
  SELECT (md5_number_upper(tok) % 2147483647)::BIGINT AS wh FROM toks
), d(depth, a, b) AS (VALUES {_cms_hash_values_sql()})
SELECT depth, ((a * wh + b) % 2147483647) % {_CMS_W} AS bucket,
       count(*)::BIGINT AS cnt
FROM h, d GROUP BY depth, bucket
"""


def doc_token_cms_estimate(sf_dir: str, k: int = 20) -> pd.DataFrame:
    """Heavy-hitter audit: the true top-k tokens (distributed partial
    top-k) next to their count-min estimates (min over the 4 hash rows).
    Driver pull is the ≤4096-row register table + k rows — bounded by the
    sketch, never by the corpus. est ≥ freq always (one-sided error)."""
    top = doc_token_freq(sf_dir, top_k=k).to_pandas()  # k rows
    regs = doc_token_cms_registers(sf_dir).to_pandas()  # ≤ D·W rows
    grid = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    grid[regs["depth"].to_numpy(dtype=np.int64),
         regs["bucket"].to_numpy(dtype=np.int64)] = regs["cnt"].to_numpy(dtype=np.int64)
    wh = np.fromiter(
        (_word_hash(w) for w in top["token"]), dtype=np.uint64, count=len(top)
    ) % _CMS_P
    ests = np.full(len(top), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(_CMS_D):
        b = ((_CMS_A[d] * wh + _CMS_B[d]) % _CMS_P % np.uint64(_CMS_W)).astype(np.int64)
        ests = np.minimum(ests, grid[d, b])
    return pd.DataFrame({
        "token": top["token"].astype(str),
        "freq": top["freq"].astype("int64"),
        "est": pd.Series(ests, dtype="int64"),
    })


CMS_ESTIMATE_ORACLE_SQL = f"""
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), top AS (
  SELECT tok AS token, count(*)::BIGINT AS freq FROM toks
  GROUP BY tok ORDER BY freq DESC, token LIMIT 20
), h AS (
  SELECT (md5_number_upper(tok) % 2147483647)::BIGINT AS wh FROM toks
), d(depth, a, b) AS (VALUES {_cms_hash_values_sql()}),
regs AS (
  SELECT depth, ((a * wh + b) % 2147483647) % {_CMS_W} AS bucket,
         count(*)::BIGINT AS cnt
  FROM h, d GROUP BY depth, bucket
), lk AS (
  SELECT t.token, t.freq, r.cnt
  FROM top t, d
  JOIN regs r ON r.depth = d.depth
    AND r.bucket = ((d.a * (md5_number_upper(t.token) % 2147483647)::BIGINT + d.b)
                    % 2147483647) % {_CMS_W}
)
SELECT token, freq, min(cnt)::BIGINT AS est FROM lk GROUP BY token, freq
"""


def _cms_grid(regs: pd.DataFrame) -> np.ndarray:
    grid = np.zeros((_CMS_D, _CMS_W), dtype=np.int64)
    grid[regs["depth"].to_numpy(np.int64), regs["bucket"].to_numpy(np.int64)] = (
        regs["cnt"].to_numpy(np.int64)
    )
    return grid


def _cms_point_est(grid: np.ndarray, wh: np.ndarray) -> np.ndarray:
    ests = np.full(len(wh), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(_CMS_D):
        b = ((_CMS_A[d] * wh + _CMS_B[d]) % _CMS_P % np.uint64(_CMS_W)).astype(np.int64)
        ests = np.minimum(ests, grid[d, b])
    return ests


def doc_token_heavy_hitters(sf_dir: str) -> ray.data.Dataset:
    """Sketch-guided EXACT heavy hitters: tokens whose count-min estimate
    is ≥ 1% of the token stream, with their exact frequencies.

    The 100-TB point: a full ``groupby(token)`` moves the whole
    vocabulary through the exchange; here the (4×1024)-register sketch —
    built distributed, pulled bounded, broadcast with ``ray.put`` — gates
    the second pass INSIDE ``map_batches``, so only candidate tokens'
    per-batch partial counts shuffle. CMS error is one-sided (est ≥
    freq), so no true heavy hitter is ever dropped; the ``est`` column
    records the bound that admitted each candidate (some may be
    collision-inflated false positives — their exact freq exposes them).
    Threshold = total_tokens // 100, derived from the sketch itself
    (row-0 register sum), so both sides compute it identically."""
    regs = doc_token_cms_registers(sf_dir).to_pandas()  # ≤ D·W rows
    grid = _cms_grid(regs)
    threshold = int(grid[0].sum()) // 100
    grid_ref = ray.put(grid)

    out_schema = pa.schema([("token", pa.string()), ("cnt", pa.int64())])

    def candidates(batch: pa.Table) -> pa.Table:
        grid = ray.get(grid_ref)
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        if len(toks) == 0:
            return out_schema.empty_table()
        vc = pa.Table.from_arrays([toks], names=["token"]).group_by(
            ["token"]
        ).aggregate([([], "count_all")])
        words = vc.column("token").to_pylist()
        wh = np.fromiter(
            (_word_hash(w) for w in words), dtype=np.uint64, count=len(words)
        ) % _CMS_P
        keep = _cms_point_est(grid, wh) >= threshold
        return pa.Table.from_arrays(
            [vc.column("token").filter(pa.array(keep)),
             pc.cast(vc.column("count_all").filter(pa.array(keep)), pa.int64())],
            schema=out_schema,
        )

    freq = (
        _docs(sf_dir, ["text"])
        .map_batches(candidates, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="freq"))
    )

    est_schema = pa.schema(
        [("token", pa.string()), ("freq", pa.int64()), ("est", pa.int64())]
    )

    def attach_est(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return est_schema.empty_table()
        grid = ray.get(grid_ref)
        words = batch.column("token").to_pylist()
        wh = np.fromiter(
            (_word_hash(w) for w in words), dtype=np.uint64, count=len(words)
        ) % _CMS_P
        return pa.Table.from_arrays(
            [batch.column("token"), pc.cast(batch.column("freq"), pa.int64()),
             pa.array(_cms_point_est(grid, wh))],
            schema=est_schema,
        )

    return freq.map_batches(attach_est, batch_format="pyarrow")


HEAVY_HITTERS_ORACLE_SQL = f"""
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), d(depth, a, b) AS (VALUES {_cms_hash_values_sql()}),
regs AS (
  SELECT d.depth,
         ((d.a * (md5_number_upper(tok) % 2147483647)::BIGINT + d.b)
          % 2147483647) % {_CMS_W} AS bucket,
         count(*)::BIGINT AS cnt
  FROM toks, d GROUP BY d.depth, bucket
), thr AS (
  SELECT sum(cnt) // 100 AS t FROM regs WHERE depth = 0
), tf AS (
  SELECT tok AS token, count(*)::BIGINT AS freq FROM toks GROUP BY tok
), est AS (
  SELECT tf.token, tf.freq, min(r.cnt)::BIGINT AS est
  FROM tf, d
  JOIN regs r ON r.depth = d.depth
    AND r.bucket = ((d.a * (md5_number_upper(tf.token) % 2147483647)::BIGINT
                     + d.b) % 2147483647) % {_CMS_W}
  GROUP BY tf.token, tf.freq
)
SELECT token, freq, est FROM est, thr WHERE est >= thr.t
"""


# --------------------------------------------------------------------------- #
# TF-IDF: per-document top-k terms

_TFIDF_K = 5
_TFIDF_IDF_SCALE = 1_000_000


def _term_salt(terms: pd.Series) -> np.ndarray:
    """Deterministic string-term → bounded partition router
    (hash_pandas_object uses a fixed default key → identical across
    worker processes)."""
    return (
        pd.util.hash_pandas_object(terms, index=False).to_numpy()
        % np.uint64(_JOIN_SALTS)
    ).astype(np.int64)


def doc_tfidf_topk(sf_dir: str, k: int = _TFIDF_K) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms, integer-exact: score =
    tf · ((N · 10^6) // df) — all floor arithmetic, so DuckDB reproduces
    ranks and scores bit-for-bit (no float log).

    Scale shape — two salted co-partitioned exchanges:
    1. per-batch (doc, term, tf) partials (a doc never spans batches, so
       tf is exact) PLUS per-batch df partials, both routed by
       salt(term): document frequency is summed partition-locally and
       attached to the term rows in the same pass — no separate DF join.
    2. re-key by salt(doc_id): per-doc top-k is one vectorized sort +
       cumcount per partition (partial top-k is already per-doc, so
       nothing quadratic).
    N (corpus size) is the only driver scalar. Emits
    (doc_id, rank, term, tf, df, score)."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    n_docs = docs.count()

    def tf_partials(df: pd.DataFrame) -> pd.DataFrame:
        ex = df[["doc_id"]].assign(term=df["text"].str.split(" ")).explode("term")
        g = ex.groupby(["doc_id", "term"], sort=False).size().reset_index(name="tf")
        t_salt = _term_salt(g["term"])
        tf_rows = pd.DataFrame({
            "salt": pd.Series(t_salt, dtype="int64"),
            "kind": pd.Series(np.ones(len(g), dtype=np.int8), dtype="int8"),
            "term": g["term"].astype(str),
            "doc_id": g["doc_id"].astype("int64"),
            "val": g["tf"].astype("int64"),
        })
        d = g.groupby("term", sort=False).size().reset_index(name="dfp")
        df_rows = pd.DataFrame({
            "salt": pd.Series(_term_salt(d["term"]), dtype="int64"),
            "kind": pd.Series(np.zeros(len(d), dtype=np.int8), dtype="int8"),
            "term": d["term"].astype(str),
            "doc_id": pd.Series(np.zeros(len(d), dtype=np.int64), dtype="int64"),
            "val": d["dfp"].astype("int64"),
        })
        return pd.concat([tf_rows, df_rows], ignore_index=True)

    def join_df(g: pd.DataFrame) -> pd.DataFrame:
        # all partials of a term share this partition → global df
        dfs = g[g["kind"] == 0].groupby("term", sort=False)["val"].sum()
        tf = g[g["kind"] == 1]
        if tf.empty:
            return pd.DataFrame({
                "salt": pd.Series([], dtype="int64"),
                "doc_id": pd.Series([], dtype="int64"),
                "term": pd.Series([], dtype="object"),
                "tf": pd.Series([], dtype="int64"),
                "df": pd.Series([], dtype="int64"),
            })
        ids = tf["doc_id"].to_numpy(dtype=np.int64)
        return pd.DataFrame({
            "salt": pd.Series(_key_salt(ids), dtype="int64"),
            "doc_id": pd.Series(ids, dtype="int64"),
            "term": tf["term"].reset_index(drop=True),
            "tf": tf["val"].astype("int64").reset_index(drop=True),
            "df": pd.Series(
                tf["term"].map(dfs).to_numpy(dtype=np.int64), dtype="int64"
            ),
        })

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        if g.empty:
            return pd.DataFrame({
                "doc_id": pd.Series([], dtype="int64"),
                "rank": pd.Series([], dtype="int64"),
                "term": pd.Series([], dtype="object"),
                "tf": pd.Series([], dtype="int64"),
                "df": pd.Series([], dtype="int64"),
                "score": pd.Series([], dtype="int64"),
            })
        idf = (n_docs * _TFIDF_IDF_SCALE) // g["df"].to_numpy(dtype=np.int64)
        g = g.assign(score=g["tf"].to_numpy(dtype=np.int64) * idf)
        g = g.sort_values(
            ["doc_id", "score", "term"], ascending=[True, False, True],
            kind="mergesort",
        )
        rank = g.groupby("doc_id", sort=False).cumcount().to_numpy() + 1
        g = g.assign(rank=rank.astype(np.int64))
        g = g[g["rank"] <= k]
        return pd.DataFrame({
            "doc_id": g["doc_id"].astype("int64").reset_index(drop=True),
            "rank": g["rank"].astype("int64").reset_index(drop=True),
            "term": g["term"].reset_index(drop=True),
            "tf": g["tf"].astype("int64").reset_index(drop=True),
            "df": g["df"].astype("int64").reset_index(drop=True),
            "score": g["score"].astype("int64").reset_index(drop=True),
        })

    return (
        docs.map_batches(tf_partials, batch_format="pandas")
        .groupby("salt")
        .map_groups(join_df, batch_format="pandas")
        .groupby("salt")
        .map_groups(topk, batch_format="pandas")
    )


def tfidf_oracle_sql(k: int = _TFIDF_K) -> str:
    """Reproduces doc_tfidf_topk exactly (same whitespace split, same
    integer idf scale, same (score DESC, term) tie order)."""
    return f"""
WITH t AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS term FROM documents
), tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM t GROUP BY doc_id, term
), df AS (
  SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term
), sc AS (
  SELECT tf.doc_id, tf.term, tf.tf, df.df,
         tf.tf * (((SELECT count(*) FROM documents) * {_TFIDF_IDF_SCALE}) // df.df)
           AS score
  FROM tf JOIN df USING (term)
)
SELECT doc_id,
       row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term) AS rank,
       term, tf, df, score::BIGINT AS score
FROM sc QUALIFY rank <= {k}"""


# --------------------------------------------------------------------------- #
# BM25 retrieval: inverted-index scoring for a fixed query workload

# (query_id, term) — the retrieval workload; a term may serve any number
# of queries. At scale this is the small side: stats for |terms| tokens.
_BM25_QUERIES: tuple[tuple[int, str], ...] = (
    (0, "hash"), (0, "join"),
    (1, "window"), (1, "sort"), (1, "merge"),
    (2, "spark"), (2, "stream"),
)
_BM25_K = 10
_BM25_IDF_SCALE = 1_000_000


def _bm25_scores(tf: np.ndarray, dl: np.ndarray, idf: np.ndarray,
                 n: int, t: int) -> np.ndarray:
    """Integer-exact BM25(k1=1.2, b=0.75) per (doc, term).

    term = idf · tf·(k1+1) / (tf + k1·(1−b + b·dl/avgdl)) with
    avgdl = T/N becomes, after multiplying through by 20·T,
        idf · 44·tf·T / (20·T·tf + 6·T + 18·dl·N)
    — an integer numerator/denominator. The one float64 division (and the
    fixed left-assoc multiply chain feeding it) is IEEE-deterministic, so
    DuckDB computes bit-identical doubles; flooring to int64 BEFORE the
    per-query sum makes the total order-independent. (Same
    quantize-before-decide discipline as doc_sample.)"""
    den = 20 * t * tf + 6 * t + 18 * dl * n  # int64, exact
    num = ((idf.astype(np.float64) * 44.0) * tf.astype(np.float64)) * float(t)
    return np.floor(num / den.astype(np.float64)).astype(np.int64)


def doc_bm25_topk(sf_dir: str, k: int = _BM25_K) -> ray.data.Dataset:
    """Top-k documents per query under BM25 — the lexical-retrieval
    complement of doc_tfidf_topk (per-doc terms).

    Scale shape:
    1. ONE stats pass, partial-aggregated: per-batch (term → per-doc df
       partial) for the |query terms| tokens only, plus corpus N and
       total-token T counters — a (key, val) partial table whose final
       groupby is O(|terms|+2); driver pull bounded by the same.
    2. ONE zero-shuffle scoring pass: tf per (doc, query-term) via
       Arrow list-flatten + is_in (never a full vocabulary explode),
       per-batch per-query partial top-k (a doc never spans batches).
    3. Final top-k over ≤ blocks × |queries| × k tiny partial rows.
    Emits (query_id, rank, doc_id, score)."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    terms = sorted({t for _, t in _BM25_QUERIES})
    terms_arr = pa.array(terms)

    def stats_partials(batch: pa.Table) -> pa.Table:
        ws = pc.split_pattern(batch.column("text"), " ")
        flat = pc.list_flatten(ws)
        parent = pc.list_parent_indices(ws)
        mask = pc.is_in(flat, value_set=terms_arr)
        hits = pa.Table.from_arrays(
            [flat.filter(mask), parent.filter(mask)], names=["term", "i"]
        )
        # df partial: docs-in-batch containing each term
        g = hits.group_by(["term", "i"]).aggregate([]).group_by("term").aggregate(
            [([], "count_all")]
        )
        keys = g.column("term").to_pylist() + ["__N__", "__T__"]
        vals = [int(v) for v in g.column("count_all").to_pylist()] + [
            batch.num_rows, int(pc.sum(pc.list_value_length(ws)).as_py() or 0)
        ]
        return pa.Table.from_arrays(
            [pa.array(keys, pa.string()), pa.array(vals, pa.int64())],
            names=["key", "val"],
        )

    stats = (
        docs.map_batches(stats_partials, batch_format="pyarrow")
        .groupby("key")
        .aggregate(Sum("val", alias_name="val"))
        .to_pandas()  # ≤ |terms|+2 rows
    )
    sd = dict(zip(stats["key"], stats["val"]))
    n_docs, n_tokens = int(sd.pop("__N__")), int(sd.pop("__T__"))
    # integer idf with +1 smoothing (never ≤0, df=0 terms simply no-op)
    idf = {
        t: ((n_docs - int(sd.get(t, 0)) + 1) * _BM25_IDF_SCALE)
        // (int(sd.get(t, 0)) + 1)
        for t in terms
    }
    qmap = pd.DataFrame(_BM25_QUERIES, columns=["query_id", "term"])

    out_schema = pa.schema(
        [("query_id", pa.int64()), ("doc_id", pa.int64()), ("score", pa.int64())]
    )

    def score_partials(batch: pa.Table) -> pa.Table:
        ws = pc.split_pattern(batch.column("text"), " ")
        dl_all = np.asarray(pc.list_value_length(ws), dtype=np.int64)
        flat = pc.list_flatten(ws)
        parent = pc.list_parent_indices(ws)
        mask = pc.is_in(flat, value_set=terms_arr)
        if int(pc.sum(pc.cast(mask, pa.int64())).as_py() or 0) == 0:
            return out_schema.empty_table()
        hits = pa.Table.from_arrays(
            [flat.filter(mask), parent.filter(mask)], names=["term", "i"]
        )
        tf = (
            hits.group_by(["i", "term"]).aggregate([([], "count_all")])
            .rename_columns(["i", "term", "tf"]).to_pandas()
        )
        ids = np.asarray(batch.column("doc_id"), dtype=np.int64)
        tf["score"] = _bm25_scores(
            tf["tf"].to_numpy(np.int64), dl_all[tf["i"].to_numpy()],
            tf["term"].map(idf).to_numpy(np.int64), n_docs, n_tokens,
        )
        sc = tf.merge(qmap, on="term").groupby(
            ["query_id", "i"], as_index=False
        )["score"].sum()
        sc["doc_id"] = ids[sc["i"].to_numpy()]
        # per-batch partial top-k (a doc never spans batches)
        sc = sc.sort_values(
            ["query_id", "score", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        sc = sc[sc.groupby("query_id", sort=False).cumcount() < k]
        return pa.Table.from_arrays(
            [pa.array(sc["query_id"].to_numpy(np.int64)),
             pa.array(sc["doc_id"].to_numpy(np.int64)),
             pa.array(sc["score"].to_numpy(np.int64))],
            schema=out_schema,
        )

    final_schema = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()),
         ("doc_id", pa.int64()), ("score", pa.int64())]
    )

    def final_topk(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["query_id", "score", "doc_id"], ascending=[True, False, True],
            kind="mergesort",
        )
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return df[["query_id", "rank", "doc_id", "score"]].astype("int64")

    partial = docs.map_batches(score_partials, batch_format="pyarrow")
    # ≤ blocks × |queries| × k partial rows → one block, one final sort
    return partial.repartition(1).map_batches(
        final_topk, batch_format="pandas", batch_size=None
    )


def bm25_oracle_sql(k: int = _BM25_K) -> str:
    """Reproduces doc_bm25_topk bit-for-bit: same integer idf, same
    left-assoc float64 multiply chain and single division (IEEE-identical
    in DuckDB), floor-to-int per term before the per-query sum."""
    qvals = ", ".join(f"({q}, '{t}')" for q, t in _BM25_QUERIES)
    return f"""
WITH d AS (
  SELECT doc_id, string_split(text, ' ') AS ws FROM documents
), dl AS (
  SELECT doc_id, len(ws)::BIGINT AS dl FROM d
), tot AS (
  SELECT count(*)::BIGINT AS n, sum(dl)::BIGINT AS t FROM dl
), q(query_id, term) AS (VALUES {qvals}),
tok AS (
  SELECT doc_id, unnest(ws) AS term FROM d
), tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok
  WHERE term IN (SELECT term FROM q) GROUP BY doc_id, term
), df AS (
  SELECT q.term, count(DISTINCT tf.doc_id)::BIGINT AS df
  FROM (SELECT DISTINCT term FROM q) q LEFT JOIN tf USING (term) GROUP BY q.term
), sc AS (
  SELECT q.query_id, tf.doc_id,
    sum(floor(
      ((((((tot.n - df.df + 1) * {_BM25_IDF_SCALE}) // (df.df + 1))::DOUBLE
        * 44) * tf.tf) * tot.t)
      / (20 * tot.t * tf.tf + 6 * tot.t + 18 * dl.dl * tot.n)
    ))::BIGINT AS score
  FROM tf JOIN q USING (term) JOIN df USING (term) JOIN dl USING (doc_id), tot
  GROUP BY q.query_id, tf.doc_id
)
SELECT query_id,
       row_number() OVER (PARTITION BY query_id ORDER BY score DESC, doc_id)
         AS rank,
       doc_id, score
FROM sc QUALIFY rank <= {k}"""


# --------------------------------------------------------------------------- #
# Gopher-style repetition signals — the quality filter a training-data
# pipeline runs before anything expensive (Rae et al. 2021 repetition
# heuristics). All signals are integer-valued so DuckDB reproduces them
# bit-for-bit.


def _batch_ngrams(doc: np.ndarray, w: np.ndarray, n: int):
    """Vectorized n-gram extraction over an exploded (doc_id, token) batch:
    returns (gram_doc_ids, gram_strings) for every n-token window that does
    not cross a document boundary. One pandas string concat per offset —
    no per-row Python loop."""
    m = len(doc) - n + 1
    if m <= 0:
        return doc[:0], np.array([], dtype=object)
    ok = np.ones(m, dtype=bool)
    for j in range(1, n):
        ok &= doc[:m] == doc[j:m + j]
    s = pd.Series(w[:m], dtype=object)
    for j in range(1, n):
        s = s + " " + pd.Series(w[j:m + j], dtype=object)
    return doc[:m][ok], s.to_numpy()[ok]


def _explode_tokens(df: pd.DataFrame):
    ex = (
        df[["doc_id"]]
        .assign(w=df["text"].str.split(" "))
        .explode("w")
        .reset_index(drop=True)
    )
    return ex["doc_id"].to_numpy(dtype=np.int64), ex["w"].to_numpy()


def doc_rep_ngram_signals(sf_dir: str) -> ray.data.Dataset:
    """Per-document n-gram repetition signals (the Gopher quality-filter
    family): total 2-gram positions, occurrences of the most frequent
    2-gram, total 3-gram positions, and positions covered by repeated
    3-grams. A row is a whole document, so one pure ``map_batches`` pass
    is exact — no shuffle at all. Downstream filters threshold the
    ratios (e.g. top2_cnt/n_2grams > 0.2 → drop)."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        doc, w = _explode_tokens(df)
        out = pd.DataFrame({"doc_id": df["doc_id"].astype("int64")})
        d2, g2 = _batch_ngrams(doc, w, 2)
        c2 = (
            pd.DataFrame({"d": d2, "g": g2})
            .groupby(["d", "g"], sort=False).size().reset_index(name="c")
        )
        a2 = c2.groupby("d", sort=False)["c"].agg(["sum", "max"])
        d3, g3 = _batch_ngrams(doc, w, 3)
        c3 = (
            pd.DataFrame({"d": d3, "g": g3})
            .groupby(["d", "g"], sort=False).size().reset_index(name="c")
        )
        a3 = c3.groupby("d", sort=False)["c"].sum()
        a3dup = c3[c3["c"] > 1].groupby("d", sort=False)["c"].sum()
        ids = out["doc_id"]
        out["n_2grams"] = ids.map(a2["sum"]).fillna(0).astype("int64")
        out["top2_cnt"] = ids.map(a2["max"]).fillna(0).astype("int64")
        out["n_3grams"] = ids.map(a3).fillna(0).astype("int64")
        out["dup3_pos"] = ids.map(a3dup).fillna(0).astype("int64")
        return out

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pandas")


REP_NGRAM_ORACLE_SQL = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS w FROM documents
), g2 AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] AS g
  FROM t, LATERAL unnest(generate_series(1, len(w)-1)) u(i)
), c2 AS (
  SELECT doc_id, g, count(*) AS c FROM g2 GROUP BY doc_id, g
), a2 AS (
  SELECT doc_id, sum(c)::BIGINT AS n_2grams, max(c)::BIGINT AS top2_cnt
  FROM c2 GROUP BY doc_id
), g3 AS (
  SELECT doc_id, w[i] || ' ' || w[i+1] || ' ' || w[i+2] AS g
  FROM t, LATERAL unnest(generate_series(1, len(w)-2)) u(i)
), c3 AS (
  SELECT doc_id, g, count(*) AS c FROM g3 GROUP BY doc_id, g
), a3 AS (
  SELECT doc_id, sum(c)::BIGINT AS n_3grams,
         sum(CASE WHEN c > 1 THEN c ELSE 0 END)::BIGINT AS dup3_pos
  FROM c3 GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(a2.n_2grams, 0)::BIGINT AS n_2grams,
       coalesce(a2.top2_cnt, 0)::BIGINT AS top2_cnt,
       coalesce(a3.n_3grams, 0)::BIGINT AS n_3grams,
       coalesce(a3.dup3_pos, 0)::BIGINT AS dup3_pos
FROM documents d
LEFT JOIN a2 ON a2.doc_id = d.doc_id
LEFT JOIN a3 ON a3.doc_id = d.doc_id
"""


# --------------------------------------------------------------------------- #
# sharded inverted-index build (search-engine posting lists)

_POSTING_SHARDS = 4


def doc_posting_lists(sf_dir: str) -> ray.data.Dataset:
    """Materialize a term → sorted-doc-id posting-list index, SHARDED by
    hash(doc) so a stopword's postings never concentrate on one reducer —
    the way web-scale indexes bound per-key list size (a term's global
    list is the shard-ordered concatenation). Per-batch distinct
    (term, doc) partials; assembly in (term, shard) hash partitions."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def term_doc(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern(batch.column("text"), " ")
        idx = pc.list_parent_indices(toks)
        flat = pc.list_flatten(toks)
        doc = pc.take(batch.column("doc_id"), idx)
        t = pa.Table.from_arrays([flat, doc], names=["token", "doc_id"])
        g = t.group_by(["token", "doc_id"]).aggregate([([], "count_all")])
        df = pd.DataFrame({
            "token": g.column("token").to_pylist(),
            "doc_id": np.asarray(g.column("doc_id"), dtype=np.int64),
        })
        df["shard"] = df["doc_id"] % _POSTING_SHARDS
        h = pd.util.hash_pandas_object(
            df["token"] + "\x00" + df["shard"].astype(str), index=False
        ).to_numpy()
        df["salt"] = (h % _JOIN_SALTS).astype("int64")
        return pa.Table.from_pandas(df, preserve_index=False)

    out_schema = pa.schema(
        [("token", pa.string()), ("shard", pa.int64()), ("df", pa.int64()),
         ("postings", pa.string())]
    )

    def assemble(g: pd.DataFrame) -> pa.Table:
        if g.empty:
            return out_schema.empty_table()
        g = g.drop_duplicates(["token", "shard", "doc_id"]).sort_values(
            ["token", "shard", "doc_id"]
        )
        g["doc_str"] = g["doc_id"].astype(str)
        out = g.groupby(["token", "shard"], sort=False)["doc_str"].agg(
            ["size", "|".join]
        )
        out.columns = ["df", "postings"]
        out = out.reset_index()
        return pa.Table.from_arrays(
            [pa.array(out["token"].to_numpy(dtype=object)),
             pa.array(out["shard"].to_numpy(np.int64)),
             pa.array(out["df"].to_numpy(np.int64)),
             pa.array(out["postings"].to_numpy(dtype=object))],
            schema=out_schema,
        )

    return (
        docs.map_batches(term_doc, batch_format="pyarrow")
        .groupby("salt").map_groups(assemble, batch_format="pandas")
    )


POSTING_LISTS_ORACLE_SQL = f"""
WITH td AS (
  SELECT DISTINCT doc_id, unnest(string_split(text, ' ')) AS token FROM documents
)
SELECT token, doc_id % {_POSTING_SHARDS} AS shard, count(*)::BIGINT AS df,
       string_agg(doc_id::VARCHAR, '|' ORDER BY doc_id) AS postings
FROM td GROUP BY 1, 2
"""


# --------------------------------------------------------------------------- #
# BPE-style pair statistics — the tokenizer-training primitive (one merge
# round = argmax over these counts; the reference's vocab build is the
# same count-then-truncate shape, Corpus/CorpusBatch.cs:98-149)

_BPE_TOP_K = 50


def doc_bpe_pair_counts(sf_dir: str) -> ray.data.Dataset:
    """Corpus-weighted character-bigram counts (the statistic one BPE merge
    step maximizes), top-_BPE_TOP_K. Pair counts are additive over token
    OCCURRENCES, so each batch dedupes its tokens with one Arrow group_by
    and explodes bigrams only once per distinct token (vocab-bounded
    Python; counts ride along) — partial (pair, cnt) rows, one tiny final
    groupby, top-k sort on O(distinct pairs)."""
    docs = _docs(sf_dir, ["text"])

    def partials(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(batch.column("text"), " "))
        g = pa.Table.from_arrays([toks], names=["tok"]).group_by(["tok"]).aggregate(
            [([], "count_all")]
        )
        pair_cnt: dict[str, int] = {}
        for tok, n in zip(g.column("tok").to_pylist(), g.column("count_all").to_pylist()):
            for i in range(len(tok) - 1):
                p = tok[i : i + 2]
                pair_cnt[p] = pair_cnt.get(p, 0) + n
        return pa.Table.from_arrays(
            [pa.array(list(pair_cnt.keys()), pa.string()),
             pa.array(list(pair_cnt.values()), pa.int64())],
            names=["pair", "cnt"],
        )

    out = (
        docs.map_batches(partials, batch_format="pyarrow")
        .groupby("pair").aggregate(Sum("cnt", alias_name="cnt"))
    )
    return out.sort(["cnt", "pair"], descending=[True, False]).limit(_BPE_TOP_K)


BPE_PAIR_ORACLE_SQL = f"""
WITH toks AS (
  SELECT unnest(string_split(text, ' ')) AS tok FROM documents
), tf AS (
  SELECT tok, count(*)::BIGINT AS n FROM toks WHERE length(tok) >= 2 GROUP BY tok
), pairs AS (
  SELECT substring(tok, i, 2) AS pair, sum(n)::BIGINT AS cnt
  FROM tf, unnest(generate_series(1, length(tok) - 1)) AS t(i)
  GROUP BY 1
)
SELECT pair, cnt FROM pairs ORDER BY cnt DESC, pair LIMIT {_BPE_TOP_K}
"""


# --------------------------------------------------------------------------- #
# order-independent table checksum — replica/migration validation at scale

_CHECKSUM_MOD = (1 << 61) - 1


def doc_table_checksum(sf_dir: str) -> ray.data.Dataset:
    """One-row (n_rows, checksum) fingerprint of the documents table:
    checksum = Σ md5_u64(doc_id ⊕ text) mod 2⁶¹−1. Addition is commutative
    so the result is independent of block order/partitioning — the
    cross-system validation primitive for a 100 TB copy (compare one row,
    not the data). Partials are one row per batch; the final fold is a
    single bounded task (modular sums commute with the per-row mod)."""
    docs = _docs(sf_dir, ["doc_id", "text"])

    def partials(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        s = 0
        for i, t in zip(ids, texts):
            s += _md5_u64(f"{i}\x00{t}")
        return pa.Table.from_arrays(
            [pa.array([batch.num_rows], pa.int64()),
             pa.array([s % _CHECKSUM_MOD], pa.int64())],
            names=["n_rows", "part_sum"],
        )

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "n_rows": pd.Series([int(g["n_rows"].sum())], dtype="int64"),
            "checksum": pd.Series(
                [int(g["part_sum"].astype(object).sum() % _CHECKSUM_MOD)], dtype="int64"
            ),
        })

    return (
        docs.map_batches(partials, batch_format="pyarrow")
        .repartition(1)
        .map_batches(fold, batch_format="pandas", batch_size=None)
    )


TABLE_CHECKSUM_ORACLE_SQL = f"""
SELECT count(*)::BIGINT AS n_rows,
       (sum(md5_number_upper(doc_id::VARCHAR || chr(0) || text)::HUGEINT)
        % {_CHECKSUM_MOD})::BIGINT AS checksum
FROM documents
"""
