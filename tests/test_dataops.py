"""Dataops operators vs their DuckDB oracles at sf0.001 (fast), mirroring
the driver's correctness gate. KG queries are covered by
tests/test_pipeline_ray.py against the single-process oracle."""
import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = ["events", "documents"]

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
    "events_window",
    "events_window_sliding",
    "events_sessions",
    "events_user_cumsum",
    "events_value_quantiles",
    "doc_sample",
    "events_top_users",
    "doc_jaccard_join_prefix",
    "events_attribution",
    "events_distinct_users",
    "doc_sample_stratified",
    "doc_token_hll_registers",
    "doc_token_hll_estimate",
    "doc_token_cms_registers",
    "doc_token_cms_estimate",
    "doc_tfidf_topk",
    "doc_rep_ngram_signals",
    "doc_decontaminate",
    "doc_dup_spans",
    "events_funnel",
    "doc_bm25_topk",
    "events_daily_hll_registers",
    "events_daily_hll_estimate",
    "events_props_extract",
    "events_percent_rank",
    "events_type_pivot",
    "doc_token_heavy_hitters",
    "events_user_rolling",
    "events_retention_cohorts",
    "events_user_type_set",
    "doc_posting_lists",
    "doc_bpe_pair_counts",
    "doc_table_checksum",
    "events_type_transitions",
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


def test_sessions_extreme_skew(ray_session, tmp_path):
    """One bot user with ~50% of all events across many days: the two-phase
    sessionizer works on (user, day-bucket) cells in salted partitions so
    no single-user frame is ever built; output must still equal event-level sessionization."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.RandomState(7)
    base = 1_700_000_000_000_000  # us
    day = 86_400_000_000
    # bot: one event every ~20 min for 10 days (continuous mega-session
    # spanning every bucket boundary) plus a few >30min breaks
    n_bot = 720
    gaps = np.full(n_bot, 20 * 60_000_000, dtype=np.int64)
    gaps[rng.choice(np.arange(1, n_bot), 5, replace=False)] = 45 * 60_000_000
    bot_ts = base + np.cumsum(gaps)
    # 50 normal users with sparse events
    users, tss = [0] * n_bot, list(bot_ts)  # user 0 is the bot
    for u in range(1, 51):
        for e in range(rng.randint(3, 15)):
            users.append(u)
            tss.append(base + rng.randint(0, 12 * day))
    tbl = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(np.array(tss, dtype="int64"), pa.timestamp("us")),
    })
    pq.write_table(tbl, tmp_path / "events.parquet")

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import events_sessions

    got = events_sessions(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    import __ray_entry__ as e

    want = con.execute(e._dataops_sql()["events_sessions"]).fetchdf()
    g = _canon(got)
    w = _canon(want)
    assert len(g) == len(w)
    assert g.equals(w) or g.astype(str).equals(w.astype(str))
    # the bot's continuous run must survive all bucket-boundary merges
    bot = got[got["user_id"] == 0]
    assert len(bot) == 6  # 5 breaks -> 6 sessions
    assert int(bot["n_events"].sum()) == n_bot


def test_cumsum_cell_spanning_batches(ray_session, tmp_path):
    """A hot (user, day-bucket) cell with far more distinct timestamps than
    one map_batches batch (default 1024): bucket_totals then emits PER-BATCH
    partial maxes for the same (user, bucket), and user_offsets must collapse
    them to the true max before the per-user prefix sum — otherwise later
    buckets' offsets are inflated and rows are duplicated by the
    (user_id, bucket) merge (ADVICE r2, high)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = 1_700_000_000_000_000  # us
    day = 86_400_000_000
    # user 0: 3000 distinct timestamps inside ONE day-bucket, then a second
    # day with 500 more (so the inflated-offset symptom would show there)
    ts0 = base + np.arange(3000, dtype=np.int64) * 10_000_000
    ts1 = base + day + np.arange(500, dtype=np.int64) * 10_000_000
    # a few normal users
    rng = np.random.RandomState(3)
    extra_u, extra_ts = [], []
    for u in range(1, 6):
        for _ in range(20):
            extra_u.append(u)
            extra_ts.append(base + int(rng.randint(0, 2 * day)))
    users = np.concatenate([
        np.zeros(len(ts0) + len(ts1), dtype=np.int64),
        np.array(extra_u, dtype=np.int64),
    ])
    tss = np.concatenate([ts0, ts1, np.array(extra_ts, dtype=np.int64)])
    vals = (rng.rand(len(users)) * 50).round(2)
    tbl = pa.table({
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(tss, pa.timestamp("us")),
        "value": pa.array(vals, pa.float64()),
    })
    pq.write_table(tbl, tmp_path / "events.parquet")

    from ray.data import DataContext

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import events_user_cumsum

    # force tiny blocks so the hot cell's rows span many blocks (batches
    # never cross block boundaries -> bucket_totals sees split batches,
    # which is what happens at scale when a cell exceeds target block size)
    ctx = DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        got = events_user_cumsum(str(tmp_path)).to_pandas()
    finally:
        ctx.target_max_block_size = prev
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    import __ray_entry__ as e

    want = con.execute(e._dataops_sql()["events_user_cumsum"]).fetchdf()
    g = _canon(got)
    w = _canon(want)
    assert len(g) == len(w), f"{len(g)} rows vs oracle {len(w)} (duplicate rows?)"
    assert g.equals(w)


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


def test_attribution_asof_edge_semantics(ray_session, tmp_path):
    """Strict-before matching, same-microsecond tie-breaks (max event_id
    wins), and the no-preceding-click NULL case — pinned on a hand-built
    events table, cross-checked against the window-function oracle."""
    import duckdb
    import pandas as pd

    from lingvo__postagger_ner_ru_dnn_ray.stages import dataops as d

    t0 = pd.Timestamp("2024-01-01 00:00:00")
    us = pd.Timedelta(microseconds=1)
    rows = [
        # user 1: two clicks at the SAME microsecond before the purchase
        (10, t0, 1, "click"),
        (11, t0, 1, "click"),
        (12, t0 + us, 1, "purchase"),
        # user 2: click at the SAME ts as the purchase -> must NOT match
        (20, t0, 2, "click"),
        (21, t0, 2, "purchase"),
        # user 3: purchase with no click at all -> NULLs
        (30, t0, 3, "purchase"),
        # user 4: later click after the purchase is ignored
        (40, t0, 4, "click"),
        (41, t0 + 2 * us, 4, "purchase"),
        (42, t0 + 3 * us, 4, "click"),
    ]
    df = pd.DataFrame(rows, columns=["event_id", "ts", "user_id", "event_type"])
    df["value"] = 0.0
    df["props"] = "{}"
    path = str(tmp_path / "sf")
    import os

    os.makedirs(path)
    df.to_parquet(f"{path}/events.parquet")

    got = d.events_attribution(path).to_pandas().sort_values(
        "purchase_event_id"
    ).reset_index(drop=True)
    by = got.set_index("purchase_event_id")
    assert by.loc[12, "click_event_id"] == 11        # tie -> max event_id
    assert pd.isna(by.loc[21, "click_event_id"])     # same-ts click excluded
    assert pd.isna(by.loc[30, "click_event_id"])     # no click at all
    assert by.loc[41, "click_event_id"] == 40        # later click ignored

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{path}/events.parquet')"
    )
    want = con.execute(d.ATTRIBUTION_ORACLE_SQL).df().sort_values(
        "purchase_event_id"
    ).reset_index(drop=True)
    assert len(got) == len(want) == 4
    for c in got.columns:
        pd.testing.assert_series_equal(
            got[c].astype("Float64"), want[c].astype("Float64"), check_names=False
        )


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


def test_daily_hll_estimate_accuracy(ray_session, con):
    """Grouped sketch sanity: each day's HLL estimate must be within the
    standard-error envelope (~3.25%·3 for m=1024) of the exact per-day
    COUNT(DISTINCT user_id). Exactness vs the SQL re-derivation is
    covered by test_dataops_vs_duckdb; this pins that the sketch is a
    GOOD estimator, not just a reproducible one."""
    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import (
        events_daily_hll_estimate,
    )

    est = events_daily_hll_estimate(SF).to_pandas()
    exact = con.execute(
        "SELECT epoch_us(ts) // 86400000000 AS day, "
        "count(DISTINCT user_id)::BIGINT AS n FROM events GROUP BY 1"
    ).fetchdf()
    m = est.merge(exact, on="day")
    assert len(m) == len(est) > 0
    rel = (m["est_millis"] / 1000.0 - m["n"]).abs() / m["n"]
    assert rel.max() < 0.15, rel.describe()


def test_rolling_window_bucket_boundaries(ray_session, tmp_path):
    """events_user_rolling's two-phase plan: windows that reach across day
    buckets (including across EMPTY gap days), single-row cells (a row that
    is both cell head and cell tail), users with fewer than K total events,
    duplicate timestamps broken by event_id, and a hot cell spanning many
    tiny blocks — all must match the SQL window oracle exactly."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = 1_700_000_000_000_000
    day = 86_400_000_000
    rows = []  # (event_id, user_id, ts_us, value)
    eid = 0
    # user 0: dense day 0 (3000 events incl. duplicate timestamps), then
    # 2 events on day 2 (gap day 1), 1 on day 5, 1 on day 7
    for i in range(3000):
        rows.append((eid, 0, base + (i // 2) * 10_000_000, float(i % 97)))
        eid += 1
    for i in range(2):
        rows.append((eid, 0, base + 2 * day + i * 1_000_000, 7.5))
        eid += 1
    rows.append((eid, 0, base + 5 * day, 1.25)); eid += 1
    rows.append((eid, 0, base + 7 * day, 2.5)); eid += 1
    # user 1: a single event ever (window n=1)
    rows.append((eid, 1, base + day, 3.0)); eid += 1
    # user 2: two events on far-apart days (window n=2 crossing a gap)
    rows.append((eid, 2, base, 4.0)); eid += 1
    rows.append((eid, 2, base + 4 * day, 5.0)); eid += 1
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[2] for r in rows], dtype=np.int64), pa.timestamp("us")),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    pq.write_table(tbl, tmp_path / "events.parquet")

    from ray.data import DataContext

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import events_user_rolling

    ctx = DataContext.get_current()
    prev = ctx.target_max_block_size
    ctx.target_max_block_size = 16 * 1024
    try:
        got = events_user_rolling(str(tmp_path)).to_pandas()
    finally:
        ctx.target_max_block_size = prev
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    import __ray_entry__ as e

    want = con.execute(e._dataops_sql()["events_user_rolling"]).fetchdf()
    g, w = _canon(got), _canon(want)
    assert len(g) == len(w), f"{len(g)} rows vs oracle {len(w)}"
    assert g.equals(w)


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


def test_transitions_cross_bucket_boundaries(ray_session, tmp_path):
    """Transition pairs that straddle day-bucket boundaries (incl. chains
    of single-event days, where a cell's only row is both its first and
    last) must be counted exactly once by the boundary pass."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    base = 1_700_000_000_000_000
    day = 86_400_000_000
    rows = []
    eid = 0
    types = ["click", "view", "purchase"]
    # user 0: one event per day for 9 days (every pair is cross-bucket)
    for i in range(9):
        rows.append((eid, 0, base + i * day, types[i % 3])); eid += 1
    # user 1: dense day then a gap then dense day
    for i in range(50):
        rows.append((eid, 1, base + i * 1_000_000, types[i % 2])); eid += 1
    for i in range(50):
        rows.append((eid, 1, base + 3 * day + i * 1_000_000, types[(i + 1) % 2])); eid += 1
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array(np.array([r[2] for r in rows], dtype=np.int64), pa.timestamp("us")),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
    })
    pq.write_table(tbl, tmp_path / "events.parquet")

    from lingvo__postagger_ner_ru_dnn_ray.stages.dataops import (
        TYPE_TRANSITIONS_ORACLE_SQL,
        events_type_transitions,
    )

    got = events_type_transitions(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{tmp_path}/events.parquet')"
    )
    want = con.execute(TYPE_TRANSITIONS_ORACLE_SQL).fetchdf()
    g, w = _canon(got), _canon(want)
    assert len(g) == len(w) and g.equals(w)
    assert int(g["n"].sum()) == len(rows) - 2  # every consecutive pair counted once
