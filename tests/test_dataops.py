"""Dataops operators vs their DuckDB oracles at sf0.001 (fast), mirroring
the driver's correctness gate. KG queries are covered by
tests/test_pipeline_ray.py against the single-process oracle."""
import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["documents"]

SQL_QUERIES = [
    "doc_fingerprint",
    "doc_token_count",
    "doc_quality",
    "doc_langid",
    "doc_charlm_ppl",
    "doc_token_freq",
    "doc_len_histogram",
    "doc_sample",
    "doc_sample_stratified",
    "doc_token_hll_registers",
    "doc_token_hll_estimate",
    "doc_token_cms_registers",
    "doc_token_cms_estimate",
    "doc_tfidf_topk",
    "doc_rep_ngram_signals",
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


