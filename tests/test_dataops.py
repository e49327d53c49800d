"""Dataops operators vs their DuckDB oracles at sf0.001 (fast), mirroring
the driver's correctness gate. KG queries are covered by
tests/test_pipeline_ray.py against the single-process oracle."""
import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["documents"]

SQL_QUERIES = [
    "doc_dedup_exact",
    "doc_jaccard_pairs",
    "doc_minhash_pairs",
    "doc_dedup_minhash",
    "doc_clean_corpus",
    "doc_simhash",
    "doc_simhash_neardup_pairs",
    "doc_fingerprint",
    "doc_token_count",
    "doc_quality",
    "doc_langid",
    "doc_charlm_ppl",
    "doc_token_freq",
    "doc_len_histogram",
    "doc_sample",
    "doc_jaccard_join_prefix",
    "doc_sample_stratified",
    "doc_token_hll_registers",
    "doc_token_hll_estimate",
    "doc_token_cms_registers",
    "doc_token_cms_estimate",
    "doc_tfidf_topk",
    "doc_rep_ngram_signals",
    "doc_decontaminate",
    "doc_dup_spans",
    "doc_bm25_topk",
    "doc_token_heavy_hitters",
    "doc_posting_lists",
    "doc_bpe_pair_counts",
    "doc_table_checksum",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if str(df[c].dtype).startswith("datetime64"):
            df[c] = df[c].astype("datetime64[us]")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint")):
            df[c] = df[c].astype("int64")
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_dataops_vs_duckdb(ray_session, con, name):
    import __ray_entry__ as e

    got = e.queries()[name](SF)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    want = con.execute(e._dataops_sql()[name]).fetchdf()
    g, w = _canon(got), _canon(want)
    assert list(g.columns) == list(w.columns), (list(g.columns), list(w.columns))
    assert len(g) == len(w), (len(g), len(w))
    if not g.equals(w):
        assert g.astype(str).equals(w.astype(str)), f"{name} value mismatch"


def test_minhash_subset_of_exact(ray_session):
    # LSH candidates verified ≥ threshold must be a subset of the exact
    # all-pairs result at the same threshold (recall < 1 is expected)
    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import (
        doc_jaccard_pairs,
        doc_minhash_pairs,
    )

    mh = doc_minhash_pairs(SF).to_pandas()
    ex = doc_jaccard_pairs(SF).to_pandas()
    exact = set(zip(ex["doc_a"], ex["doc_b"]))
    assert all((a, b) in exact for a, b in zip(mh["doc_a"], mh["doc_b"]))


def test_simhash_deterministic(ray_session):
    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import doc_simhash

    a = doc_simhash(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = doc_simhash(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)
    assert a["simhash"].nunique() > 1


def test_charlm_ppl(ray_session):
    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import doc_charlm_ppl

    df = doc_charlm_ppl(SF).to_pandas()
    assert len(df) == 500
    mean_mb = df["sum_millibits"] / df["n_grams"]
    assert mean_mb.between(0, 64_000).all()
    # in-domain (training) docs should score no worse than the corpus mean
    train_mean = mean_mb[df["doc_id"] < 100].mean()
    assert train_mean <= mean_mb.mean() + 0.1
    # deterministic
    again = doc_charlm_ppl(SF).to_pandas()
    assert df.sort_values("doc_id").reset_index(drop=True).equals(
        again.sort_values("doc_id").reset_index(drop=True)
    )


def test_minhash_no_driver_materialization(ray_session, monkeypatch):
    """The scale-safe minhash path must never pull a dataset onto the
    driver: candidate verification is a reduce-side co-partitioned merge,
    not a broadcast of driver-materialized shingle sets (VERDICT r1
    §wrong #1)."""
    import ray.data
    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import doc_minhash_pairs

    def boom(self, *a, **k):
        raise AssertionError("driver-side to_pandas() in minhash pipeline")

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", boom)
    ds = doc_minhash_pairs(SF)
    assert ds.count() > 0  # stream fully executes without driver pull


def test_minhash_giant_duplicate_cluster_bounded(ray_session, tmp_path):
    """A giant identical-doc cluster (every LSH bucket holds all n docs,
    n ≫ cap): the pair LISTING must stay bounded by the per-bucket cap
    instead of emitting C(n,2) pairs, and the dedup REMOVAL must go
    through linear representative links and keep exactly the min doc_id
    of the cluster (VERDICT r2 Next #1)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import (
        _LSH_BUCKET_DOC_CAP,
        doc_dedup_minhash,
        doc_minhash_pairs,
    )

    n = 2_000  # ≫ the 256-doc cap; 10k exercises the same bound, slower
    text = "the quick brown fox jumps over the lazy dog again and again"
    ids = list(range(100, 100 + n)) + [5, 7]  # cluster + two unrelated docs
    texts = [text] * n + [
        "completely different words one two three four five six seven",
        "nothing shared here either alpha beta gamma delta epsilon zeta",
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        tmp_path / "documents.parquet",
    )

    pairs = doc_minhash_pairs(str(tmp_path)).to_pandas()
    cap_pairs = _LSH_BUCKET_DOC_CAP * (_LSH_BUCKET_DOC_CAP - 1) // 2
    assert 0 < len(pairs) <= cap_pairs  # bounded, not C(10k,2)
    # truncation is deterministic lowest-ids-win: every emitted pair is
    # within the first cap docs of the cluster
    assert pairs["doc_b"].max() < 100 + _LSH_BUCKET_DOC_CAP

    kept = doc_dedup_minhash(str(tmp_path)).to_pandas()["doc_id"].tolist()
    assert sorted(kept) == [5, 7, 100]  # min of the cluster + the two singles


def test_simhash_pairs_oracle_models_cap(ray_session, tmp_path):
    """Past the per-bucket doc cap the SQL oracle must reproduce the Ray
    side's deterministic lowest-ids-win truncation EXACTLY (found by the
    sf0.1 full replay: a 291-doc chunk bucket lost 2 pairs vs the uncapped
    oracle). 300 identical docs put every chunk bucket past the 256 cap."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import (
        _LSH_BUCKET_DOC_CAP,
        SIMHASH_NEARDUP_ORACLE_SQL,
        doc_simhash_neardup_pairs,
    )

    n = _LSH_BUCKET_DOC_CAP + 44  # 300 docs, one giant identical cluster
    text = "same words in every document of this oversized cluster row"
    ids = list(range(1000, 1000 + n)) + [3]
    texts = [text] * n + ["unrelated filler alpha beta gamma delta"]
    pq_mod.write_table(
        pa.table({"doc_id": pa.array(ids, pa.int64()), "text": pa.array(texts)}),
        tmp_path / "documents.parquet",
    )

    got = doc_simhash_neardup_pairs(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{tmp_path}/documents.parquet')"
    )
    exp = con.execute(SIMHASH_NEARDUP_ORACLE_SQL).df()
    cap_pairs = _LSH_BUCKET_DOC_CAP * (_LSH_BUCKET_DOC_CAP - 1) // 2
    assert len(exp) == cap_pairs  # the oracle caps too
    assert set(zip(got.doc_a, got.doc_b)) == set(zip(exp.doc_a, exp.doc_b))
    # deterministic lowest-ids-win on both sides
    assert got["doc_b"].max() == 1000 + _LSH_BUCKET_DOC_CAP - 1


def test_prefix_join_equals_brute_force(ray_session):
    """The recall-1 guarantee of prefix filtering: the prefix-join result
    must EQUAL the uncapped brute-force all-pairs join at the same
    threshold (not just be a subset, as LSH is)."""
    import duckdb

    from lingvo__postagger_ner_ru_dnn_ray.stages import dataops as d

    a = (
        d.doc_jaccard_join_prefix(SF)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    bf = con.execute("""
WITH d AS (SELECT doc_id, string_split(text,' ') AS ws FROM documents),
s AS (SELECT doc_id, list_distinct(list_transform(
  generate_series(1, greatest(1, len(ws)-2)),
  i -> array_to_string(list_slice(ws, i, i+2), ' '))) AS sh FROM d)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
  100*len(list_intersect(a.sh,b.sh)) //
  (len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) AS jaccard_pct
FROM s a, s b WHERE a.doc_id < b.doc_id AND len(list_intersect(a.sh,b.sh)) > 0
  AND 100*len(list_intersect(a.sh,b.sh)) //
      (len(a.sh)+len(b.sh)-len(list_intersect(a.sh,b.sh))) >= 50
""").df().sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(a) == len(bf) > 0
    assert a.astype("int64").equals(bf.astype("int64"))


def test_table_checksum_partition_invariant(ray_session, tmp_path):
    """The checksum must be identical regardless of how the table is
    blocked (that is its whole purpose: cross-system comparison)."""
    import pyarrow.parquet as pq
    import pyarrow as pa

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import doc_table_checksum

    import numpy as np

    src = pq.read_table(f"{SF}/documents.parquet")
    base = doc_table_checksum(SF).to_pandas()
    # same rows, shuffled order, single re-blocked file
    perm = np.random.RandomState(0).permutation(src.num_rows)
    pq.write_table(src.take(perm), tmp_path / "documents.parquet")
    again = doc_table_checksum(str(tmp_path)).to_pandas()
    assert base["checksum"].iloc[0] == again["checksum"].iloc[0]
    assert base["n_rows"].iloc[0] == again["n_rows"].iloc[0]


