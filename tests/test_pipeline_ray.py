"""End-to-end distributed tests: the Ray pipeline must equal the
single-process oracle exactly, at different block/parallelism layouts, and
resume must complete only missing partitions (FIXTURES.md F5/F6)."""
import json
import shutil
from pathlib import Path

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data

from lingvo__postagger_ner_ru_dnn_ray.pipelines import kg
from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import (
    fused_linked_triples,
    mention_rows,
    read_transcripts,
    run_kg_job,
    tagged_sentences,
)
from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import (
    synth_transcripts_table,
    write_transcripts,
)
from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage, start_memo_stats
from lingvo__postagger_ner_ru_dnn_ray.stages.mentions import decode_bio

N_TURNS = 300
SEED = 7


@pytest.fixture(scope="module")
def fixture_path(ray_session, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("transcripts"))
    write_transcripts(synth_transcripts_table(N_TURNS, seed=SEED), out, 4)
    return out


@pytest.fixture(scope="module")
def oracle(fixture_path):
    return oracle_tables(pq.read_table(fixture_path))


def _sorted_df(tbl, keys):
    df = tbl.to_pandas() if not hasattr(tbl, "sort_values") else tbl
    return df.sort_values(keys).reset_index(drop=True)[sorted(df.columns)]


TRIPLE_KEYS = ["conv_id", "turn_idx", "sent_idx", "triple_idx"]


@pytest.mark.parametrize("num_blocks", [None, 2, 16])
def test_distributed_equals_oracle(fixture_path, oracle, num_blocks, monkeypatch):
    """The fused stage's triples, at 64-turn batches, equal the oracle's
    as read (None) and repartitioned into ``num_blocks`` blocks."""
    monkeypatch.setattr(kg, "TAG_BATCH_TURNS", 64)
    ds = read_transcripts(fixture_path)
    if num_blocks is not None:
        ds = ds.repartition(num_blocks)
    tri = fused_linked_triples(ds).to_pandas()
    want = oracle["triples"].to_pandas()
    assert _sorted_df(tri, TRIPLE_KEYS).equals(_sorted_df(want, TRIPLE_KEYS))


def test_fused_from_artifact(fixture_path, oracle, tmp_path_factory, monkeypatch):
    """The fused stage loading the sha-verified .npz artifacts in each
    worker process (the production model-shipped-as-file path) must
    reproduce the oracle exactly."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import save_taggers

    adir = str(tmp_path_factory.mktemp("models"))
    save_taggers(adir)
    monkeypatch.setattr(kg, "TAG_BATCH_TURNS", 64)
    ds = read_transcripts(fixture_path)
    tri = fused_linked_triples(ds, artifact_dir=adir).to_pandas()
    want = oracle["triples"].to_pandas()
    assert _sorted_df(tri, TRIPLE_KEYS).equals(_sorted_df(want, TRIPLE_KEYS))


def test_read_transcripts_drops_schema_metadata(ray_session, tmp_path):
    """Parquet written from pandas stores a ``pandas`` schema-metadata
    entry; Ray cannot hash such schemas and logs "Failed to hash the
    schemas" in every task, so the read must not carry it."""
    tbl = pa.Table.from_pandas(synth_transcripts_table(50, seed=5).to_pandas(),
                               preserve_index=False)
    assert b"pandas" in tbl.schema.metadata
    src = tmp_path / "src"
    src.mkdir()
    pq.write_table(tbl, src / "part-0.parquet")
    batch = next(iter(read_transcripts(str(src)).iter_batches(batch_format="pyarrow")))
    assert batch.num_rows > 0
    assert batch.schema.metadata is None


def test_job_reads_input_without_role(ray_session, tmp_path):
    """The job needs ``conv_id``, ``turn_idx`` and ``text``: an input
    without ``role`` is read, and its job equals the oracle."""
    tbl = synth_transcripts_table(60, seed=7).drop(["role"])
    out = tmp_path / "kg"
    run_kg_job(_write_input(tbl, tmp_path / "src"), str(out), num_partitions=2)
    _assert_job_equals_oracle(out, oracle_tables(tbl))


def test_mentions_match_oracle(fixture_path, oracle):
    m = mention_rows(tagged_sentences(read_transcripts(fixture_path))).to_pandas()
    want = oracle["mentions"].to_pandas()
    keys = ["conv_id", "turn_idx", "sent_idx", "mention_idx"]
    assert _sorted_df(m, keys).equals(_sorted_df(want, keys))


def test_memo_counters_follow_the_actor(ray_session):
    """A stage built without the counter actor posts nothing; one built
    while ``start_memo_stats`` runs posts its turns and computed turns."""
    table = synth_transcripts_table(20, seed=SEED).select(["conv_id", "turn_idx", "text"])
    stage = KgStage()
    assert stage._memo_stats is None
    stage(table)
    memo = start_memo_stats()
    try:
        KgStage()(table)
        got = ray.get(memo.get.remote())
        assert got["turns"] > 0 and got["computed"] > 0
    finally:
        ray.kill(memo)


def test_bio_decode():
    assert decode_bio(["O", "B-PER", "I-PER", "O", "B-LOC"]) == [(1, 3, "PER"), (4, 5, "LOC")]
    # leading I- repairs to a span start; type switch without B starts new span
    assert decode_bio(["I-ORG", "I-PER"]) == [(0, 1, "ORG"), (1, 2, "PER")]
    assert decode_bio(["B-PER", "B-PER"]) == [(0, 1, "PER"), (1, 2, "PER")]
    assert decode_bio([]) == []


def test_kg_job_and_resume(fixture_path, oracle, tmp_path):
    out = tmp_path / "kg"
    with pytest.raises(ValueError, match="removed actor-pool mode"):
        run_kg_job(fixture_path, str(out), tag_concurrency=2)
    assert not out.exists()
    res = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert res["rows"]["triples"] == oracle["triples"].num_rows

    full_triples = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(full_triples, TRIPLE_KEYS).equals(
        _sorted_df(oracle["triples"], TRIPLE_KEYS)
    )

    # second run is a no-op (all manifests complete)
    res2 = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert res2["skipped"]

    # kill-simulation: destroy partitions 1 and 2, resume rebuilds ONLY them
    untouched = (out / "triples" / "part=0" / "_manifest.json").stat().st_mtime_ns
    EDGE_SORT = ["part", "subj_id", "pred", "obj_id"]
    full_edges = pq.read_table(out / "edges")
    for t in ("triples", "edges", "nodes"):
        for p in (1, 2):
            shutil.rmtree(out / t / f"part={p}", ignore_errors=True)
    res3 = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert res3["partitions_run"] == [1, 2]
    assert (out / "triples" / "part=0" / "_manifest.json").stat().st_mtime_ns == untouched

    resumed = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(resumed, TRIPLE_KEYS).equals(_sorted_df(full_triples, TRIPLE_KEYS))
    # the aggregate tables must NOT double-count the untouched partitions:
    # the pre-fix resume derived edges from the FULL triples read and the
    # hive write appended duplicates into done edges/nodes partitions
    # (found by an end-of-round SIGKILL stress: part=0 weights doubled)
    resumed_edges = pq.read_table(out / "edges")
    assert _sorted_df(resumed_edges, EDGE_SORT).equals(
        _sorted_df(full_edges, EDGE_SORT)
    ), "resume duplicated edges in already-complete partitions"

    # staged manifests: triples complete but edges/nodes destroyed -> the
    # resume must rebuild aggregates WITHOUT re-running the tagging stage
    for t in ("edges", "nodes"):
        for p in range(4):
            shutil.rmtree(out / t / f"part={p}", ignore_errors=True)
    stats3: list = []
    res_staged = run_kg_job(fixture_path, str(out), num_partitions=4, stats_out=stats3)
    assert res_staged["partitions_run"] == [0, 1, 2, 3]
    names = [s[0] for s in stats3]
    assert "triples" not in names, "tag-skip resume must not execute the triples stage"
    assert "edges" in names
    assert _sorted_df(pq.read_table(out / "edges"), EDGE_SORT).equals(
        _sorted_df(full_edges, EDGE_SORT)
    )

    m = json.loads((out / "edges" / "part=3" / "_manifest.json").read_text())
    assert m["complete"] and m["rows"] >= 0 and m["config_hash"]

    # REAL crash shape: a killed run leaves partition files WITHOUT a
    # manifest (manifests publish last). The resume must clear such
    # orphans before re-writing, or the hive append would duplicate
    # every row the dead run had flushed.
    orphan_dir = out / "triples" / "part=1"
    orphan_rows = pq.read_table(orphan_dir).num_rows
    (orphan_dir / "_manifest.json").unlink()
    src = next(f for f in orphan_dir.glob("*.parquet"))
    shutil.copy(src, orphan_dir / "orphan_from_dead_run.parquet")
    res4 = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert res4["partitions_run"] == [1]
    assert pq.read_table(orphan_dir).num_rows == orphan_rows, (
        "resume must not append beside a dead run's orphan files"
    )
    resumed2 = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(resumed2, TRIPLE_KEYS).equals(_sorted_df(full_triples, TRIPLE_KEYS))


def test_kg_job_repartition_reuse(fixture_path, oracle, tmp_path):
    """Reusing an out_dir with a SMALLER num_partitions must clear the old
    run's out-of-range part dirs: the aggregate stages full-read the
    triples dir, so stale part=2..3 rows (same conversations, re-hashed
    into part=0..1 by the new config) would silently double every edge
    weight in the read-back view."""
    out = tmp_path / "kg_shrink"
    run_kg_job(fixture_path, str(out), num_partitions=4)
    res = run_kg_job(fixture_path, str(out), num_partitions=2)
    assert res["partitions_run"] == [0, 1]
    for t in ("triples", "edges", "nodes"):
        assert sorted(d.name for d in (out / t).glob("part=*")) == ["part=0", "part=1"], t
    got = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(got, TRIPLE_KEYS).equals(
        _sorted_df(oracle["triples"], TRIPLE_KEYS)
    )
    # edge weights must equal the oracle-derived conflation, not 2x
    got_e = pq.read_table(out / "edges").to_pandas()
    assert int(got_e["weight"].sum()) == oracle["triples"].num_rows


def test_edges_nodes_global_view(fixture_path, oracle, tmp_path):
    out = tmp_path / "kg2"
    run_kg_job(fixture_path, str(out), num_partitions=2)
    e = pq.read_table(out / "edges").to_pandas()
    e_glob = e.groupby(["subj_id", "pred", "obj_id"], as_index=False).agg(
        weight=("weight", "sum"),
        subj_type=("subj_type", "min"),
        obj_type=("obj_type", "min"),
        subj_canon=("subj_canon", "min"),
        obj_canon=("obj_canon", "min"),
    )
    keys = ["subj_id", "pred", "obj_id"]
    assert _sorted_df(e_glob, keys).equals(_sorted_df(oracle["edges"], keys))

    n = pq.read_table(out / "nodes").to_pandas()
    n_glob = n.groupby(["entity_id"], as_index=False).agg(
        n_mentions=("n_mentions", "sum"),
        canonical=("canonical", "min"),
        type=("type", "min"),
    )
    assert _sorted_df(n_glob, ["entity_id"]).equals(_sorted_df(oracle["nodes"], ["entity_id"]))


def test_long_turn_chunking_e2e(ray_session, monkeypatch):
    """A turn with a 500+-token sentence exercises Predict_Full chunking
    (SeqLabel.cs:259-311) through the full distributed pipeline."""
    import pyarrow as pa
    import ray.data

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import fused_linked_triples
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables

    long_text = " ".join(["Сергей Козлов посетил Москву и"] * 100) + " уехал."
    tbl = pa.table(
        {
            "conv_id": ["c0", "c0"],
            "turn_idx": pa.array([0, 1], pa.int32()),
            "role": ["user", "assistant"],
            "text": [long_text, "Иван Смирнов основал «Газпром»."],
            "tool": ["", ""],
            "ts": pa.array([0, 1], pa.timestamp("us")),
        }
    )
    monkeypatch.setattr(kg, "TAG_BATCH_TURNS", 8)
    ds = ray.data.from_arrow(tbl)
    got = fused_linked_triples(ds).to_pandas()
    want = oracle_tables(tbl)["triples"].to_pandas()
    keys = ["conv_id", "turn_idx", "sent_idx", "triple_idx"]
    assert len(got) == len(want) > 50
    assert _sorted_df(got, keys).equals(_sorted_df(want, keys))


def test_driver_entry_contract(ray_session):
    """The driver smoke-check: entry() runs under an already-initialised
    Ray session and yields rows with a stable schema."""
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as e

    ds = e.entry()
    assert ds.count() > 0
    cols = set(ds.schema().names)
    assert {"conv_id", "turn_idx", "subj", "pred", "obj", "subj_id", "obj_id"} <= cols
    qs = e.queries()
    sqls = e.oracle_sql()
    # every query has an oracle and every oracle a query, and they are
    # exactly the eight KG entries
    assert set(qs) == set(sqls) == {
        "kg_triples", "kg_mentions", "kg_edges", "kg_nodes",
        "kg_pos_label_counts", "kg_sentence_len_histogram",
        "kg_edges_artifact", "web_json_tagged",
    }


def test_extreme_conv_skew(ray_session, tmp_path):
    """One conversation owns ~95% of all turns (the 10^8-turn-conv story):
    the job must still partition, aggregate and match the oracle exactly —
    AND no single fused-stage task may process a disproportionate share.
    Work is split by row ranges (the job never sorts), never by
    conv_id, so a giant conversation spreads across tasks. Each map task
    writes its triples as ``t<task>.parquet`` in every partition it
    touches, so the per-task rows are read from disk: Ray's per-task
    output rows of the fused write operator count one result row per
    task. On the reduce side the hot conversation's partition holds
    about 95% of the triples in one task; its edges and nodes, summed
    over ``part``, must still equal the oracle's."""
    from collections import Counter

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table

    base = synth_transcripts_table(3000, seed=11).to_pandas()
    idx = base.index[: int(len(base) * 0.95)]
    base.loc[idx, "conv_id"] = "conv-hot"
    base.loc[idx, "turn_idx"] = np.arange(len(idx), dtype="int32")
    tbl = pa.Table.from_pandas(base, preserve_index=False)
    tbl = tbl.set_column(1, "turn_idx", tbl.column("turn_idx").cast(pa.int32()))

    src = tmp_path / "skew"
    src.mkdir()
    pq_mod.write_table(tbl, src / "part-0.parquet")

    out = tmp_path / "kg_skew"
    run_kg_job(str(src), str(out), num_partitions=4)
    got = pq_mod.read_table(out / "triples").drop(["part"])
    oracle = oracle_tables(tbl)
    want = oracle["triples"]
    assert _sorted_df(got, TRIPLE_KEYS).equals(_sorted_df(want, TRIPLE_KEYS))

    per_task, per_part = Counter(), Counter()
    for f in (out / "triples").glob("part=*/t*.parquet"):
        n = pq_mod.ParquetFile(f).metadata.num_rows
        per_task[f.name] += n
        per_part[f.parent.name] += n
    # fused-stage task balance: max per-task rows <= 2x mean, several tasks
    rows = list(per_task.values())
    assert sum(rows) == want.num_rows
    n_tasks, t_max, t_mean = len(rows), max(rows), sum(rows) / len(rows)
    assert n_tasks >= 2
    assert t_max <= 2 * t_mean, (per_task, n_tasks)

    # reduce side: the hot partition's task holds nearly all triples
    assert max(per_part.values()) >= 0.9 * want.num_rows, per_part
    edge_keys = ["subj_id", "pred", "obj_id"]
    assert _global(pq_mod.read_table(out / "edges"), edge_keys, EDGE_AGG).equals(
        _sorted_df(oracle["edges"], edge_keys))
    assert _global(pq_mod.read_table(out / "nodes"), ["entity_id"], NODE_AGG).equals(
        _sorted_df(oracle["nodes"], ["entity_id"]))


def _row_range_files(tbl: pa.Table, n: int, pdir: Path) -> list[Path]:
    """``tbl`` cut into ``n`` consecutive row ranges, one triples file
    each under ``pdir``, as ``n`` map tasks write one partition."""
    pdir.mkdir(parents=True)
    m = tbl.num_rows
    for i in range(n):
        pq.write_table(tbl.slice(i * m // n, (i + 1) * m // n - i * m // n),
                       pdir / f"t{i:05d}.parquet")
    return sorted(pdir.glob("*.parquet"))


# one partition's edge build in a fresh process, its Arrow allocations
# counted by one proxy pool installed before the first; the process ends
# by os._exit, so no buffer outlives the pool
_FOLD_PEAK = """
import json, os, sys
import pyarrow as pa
pool = pa.proxy_memory_pool(pa.default_memory_pool())
pa.set_memory_pool(pool)
from pathlib import Path
from lingvo__postagger_ner_ru_dnn_ray.pipelines import kg
from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import edge_partials
edges = kg._fold_edges(sorted(Path(sys.argv[1]).glob("*.parquet")), edge_partials)
print(json.dumps({"peak": pool.max_memory(), "edges": edges.nbytes}), flush=True)
os._exit(0)
"""


def test_partition_edges_hold_one_file(tmp_path):
    """A partition's edge build holds its largest triples file plus its
    distinct edges, not the partition's triples: on the hot partition of
    ``test_extreme_conv_skew``'s input, written as 8 row-range files, the
    build's peak Arrow allocation is at most 2 × (largest file's table +
    the output edges). Reading every file at once peaks at about the
    whole partition, above that bound."""
    import subprocess
    import sys

    import numpy as np

    from lingvo__postagger_ner_ru_dnn_ray.state.manifest import partition_of

    tbl = synth_transcripts_table(3000, seed=11)
    hot = int(tbl.num_rows * 0.95)
    convs = tbl.column("conv_id").to_pylist()
    turns = tbl.column("turn_idx").to_pylist()
    tbl = tbl.set_column(0, "conv_id", pa.array(["conv-hot"] * hot + convs[hot:]))
    tbl = tbl.set_column(1, "turn_idx", pa.array(list(range(hot)) + turns[hot:], pa.int32()))
    triples = oracle_tables(tbl)["triples"]
    parts = np.array([partition_of(c, 4) for c in triples.column("conv_id").to_pylist()])
    triples = triples.filter(pa.array(parts == partition_of("conv-hot", 4)))
    files = _row_range_files(triples, 8, tmp_path / "part=0")
    largest = max(pq.read_table(f).nbytes for f in files)
    assert largest * 4 < triples.nbytes

    root = Path(__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _FOLD_PEAK, str(files[0].parent)],
                          cwd=root, capture_output=True, text=True, check=True)
    got = json.loads(done.stdout.splitlines()[-1])
    assert got["peak"] <= 2 * (largest + got["edges"]), (got, largest, triples.nbytes)


def test_partition_bytes_do_not_depend_on_files(ray_session, oracle, tmp_path):
    """The same triples as 1 file and as 8 files give byte-identical edges
    and nodes data files: the fold's row order depends on the files, the
    written edges are sorted by their key."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import DATA_FILE, _build_graph
    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import edge_partials

    written = {}
    for n in (1, 8):
        src = tmp_path / f"triples_{n}"
        _row_range_files(oracle["triples"], n, src / "part=0")
        out = {t: str(tmp_path / f"out_{n}" / t) for t in ("edges", "nodes")}
        _build_graph([str(src)], edge_partials, out, [0], {})
        written[n] = {t: (Path(d) / "part=0" / DATA_FILE).read_bytes() for t, d in out.items()}
    assert written[1] == written[8]


def test_triples_sink_retry_safe(tmp_path):
    """A retried write task gets the same task index and the same input:
    it must replace its own files (same file set, rows not doubled), and
    neither a finished nor a failed attempt may leave a ``.tmp`` file or
    a partial file behind."""
    from ray.data._internal.execution.interfaces import TaskContext

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import TriplesSink
    from lingvo__postagger_ner_ru_dnn_ray.state.manifest import partition_of

    tbl = pa.table({"conv_id": [f"c{i % 7}" for i in range(200)], "x": list(range(200))})
    blocks = [tbl.slice(0, 120), tbl.slice(120)]
    root = tmp_path / "triples"
    sink = TriplesSink(str(root), 4)

    def files():
        return {str(f.relative_to(root)): pq.read_table(f) for f in root.rglob("*") if f.is_file()}

    sink.write(iter(blocks), TaskContext(task_idx=3, op_name="Write"))
    first = files()
    sink.write(iter(blocks), TaskContext(task_idx=3, op_name="Write"))
    again = files()
    assert sorted(again) == sorted(first)
    assert all(f.endswith("/t00003.parquet") for f in again), sorted(again)
    assert all(again[f].equals(first[f]) for f in first)
    assert sum(t.num_rows for t in again.values()) == tbl.num_rows
    for f, t in again.items():
        k = int(f.split("/")[0].split("=")[1])
        assert {partition_of(c, 4) for c in t.column("conv_id").to_pylist()} == {k}

    def dies():
        yield blocks[0]
        raise RuntimeError("worker died")

    with pytest.raises(RuntimeError, match="worker died"):
        sink.write(dies(), TaskContext(task_idx=5, op_name="Write"))
    assert sorted(files()) == sorted(first)


def test_kg_incremental_merge(ray_session, tmp_path):
    """Incremental maintenance: two conversation-disjoint delta runs,
    merged by merge_kg_runs over the AGGREGATED edge tables only, must
    produce byte-identical edges/nodes to one job over the full input."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import merge_kg_runs

    base = synth_transcripts_table(400, seed=13).to_pandas()
    convs = sorted(base["conv_id"].unique())
    half = set(convs[: len(convs) // 2])
    for name, mask in (("a", base["conv_id"].isin(half)),
                       ("b", ~base["conv_id"].isin(half)),
                       ("full", base["conv_id"].notna())):
        d = tmp_path / f"src_{name}"
        d.mkdir()
        t = pa.Table.from_pandas(base[mask], preserve_index=False)
        t = t.set_column(
            t.schema.get_field_index("turn_idx"), "turn_idx",
            t.column("turn_idx").cast(pa.int32()),
        )
        pq_mod.write_table(t, d / "part-0.parquet")

    outs = {}
    for name in ("a", "b", "full"):
        outs[name] = tmp_path / f"kg_{name}"
        run_kg_job(str(tmp_path / f"src_{name}"), str(outs[name]), num_partitions=4)

    merged = tmp_path / "kg_merged"
    res = merge_kg_runs([str(outs["a"]), str(outs["b"])], str(merged))
    assert res["edges"] > 0 and res["nodes"] > 0

    for t, keys in (("edges", ["part", "subj_id", "pred", "obj_id"]),
                    ("nodes", ["part", "entity_id"])):
        got = pq_mod.read_table(merged / t).to_pandas()
        want = pq_mod.read_table(outs["full"] / t).to_pandas()
        got["part"] = got["part"].astype("int64")
        want["part"] = want["part"].astype("int64")
        assert _sorted_df(got, keys).equals(_sorted_df(want, keys)), t

    # overlapping deltas must raise BEFORE writing anything: run "a" and
    # the full run share conversations, so merging them would silently
    # double-count edge weights
    with pytest.raises(ValueError, match="overlap"):
        merge_kg_runs([str(outs["a"]), str(outs["full"])],
                      str(tmp_path / "kg_bad"))
    assert not (tmp_path / "kg_bad" / "edges").exists()
    # merging the SAME run twice is the same mistake — caught upfront by
    # the duplicate-path guard (works even for pruned edges-only runs
    # that the exact check can't see)
    with pytest.raises(ValueError, match="appears twice"):
        merge_kg_runs([str(outs["a"]), str(outs["a"])],
                      str(tmp_path / "kg_bad2"))
    # an input run as out_dir holds output already (its edges/ is never
    # empty), so the merge refuses it
    with pytest.raises(FileExistsError, match="already contains output"):
        merge_kg_runs([str(outs["a"]), str(outs["b"])], str(outs["a"]))
    # a failed merge into a pre-existing merged view leaves it intact
    merged_keep = tmp_path / "kg_keep"
    merge_kg_runs([str(outs["a"]), str(outs["b"])], str(merged_keep))
    before = sorted(p.name for p in (merged_keep / "edges").rglob("*.parquet"))
    with pytest.raises(FileExistsError, match="already contains output"):
        merge_kg_runs([str(outs["a"]), str(outs["full"])], str(merged_keep))
    after = sorted(p.name for p in (merged_keep / "edges").rglob("*.parquet"))
    assert before == after and before, "failed merge must not destroy output"


def test_kg_merge_output_guard_and_pruned_triples(ray_session, tmp_path):
    """Round-5 merge hardening: (1) merging into an out_dir that already
    holds edges/ or nodes/ partitions raises (a hive write would APPEND
    beside them and double-count the merged view); deleting it and
    merging again reproduces the first merge exactly;
    (2) two disjoint runs staged through the same input path (so their
    manifests share one config hash) merge; (3) a run dir whose triples/
    was pruned (edges-only retention) merges with a warning — the exact
    conv_id overlap check is skipped for it, not failed."""
    import warnings

    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import merge_kg_runs

    base = synth_transcripts_table(200, seed=29).to_pandas()
    convs = sorted(base["conv_id"].unique())
    half = set(convs[: len(convs) // 2])
    outs = {}
    # both deltas staged through the SAME input path (the production
    # drop-dir pattern): their manifests share config_hash {v, partitions,
    # input path} even though the content is disjoint — the exact conv_id
    # check decides, and finds no overlap
    src = tmp_path / "drop_dir"
    for name, mask in (("a", base["conv_id"].isin(half)),
                       ("b", ~base["conv_id"].isin(half))):
        shutil.rmtree(src, ignore_errors=True)
        src.mkdir()
        t = pa.Table.from_pandas(base[mask], preserve_index=False)
        t = t.set_column(
            t.schema.get_field_index("turn_idx"), "turn_idx",
            t.column("turn_idx").cast(pa.int32()),
        )
        pq_mod.write_table(t, src / "part-0.parquet")
        outs[name] = tmp_path / f"kg_{name}"
        run_kg_job(str(src), str(outs[name]), num_partitions=2)

    runs = [str(outs["a"]), str(outs["b"])]
    merged = tmp_path / "kg_merged"
    merge_kg_runs(runs, str(merged))
    edges_before = pq_mod.read_table(merged / "edges").to_pandas()

    # re-merge into the SAME dir: must refuse (append would double-count)
    with pytest.raises(FileExistsError, match="already contains output"):
        merge_kg_runs(runs, str(merged))
    # delete-then-merge reproduces the same view
    shutil.rmtree(merged)
    merge_kg_runs(runs, str(merged))
    edges_after = pq_mod.read_table(merged / "edges").to_pandas()
    keys = ["part", "subj_id", "pred", "obj_id"]
    for df in (edges_before, edges_after):
        df["part"] = df["part"].astype("int64")
    assert _sorted_df(pa.Table.from_pandas(edges_before), keys).equals(
        _sorted_df(pa.Table.from_pandas(edges_after), keys)
    )
    # row count stayed flat (no silent append)
    assert len(edges_after) == len(edges_before)

    # prune run b's triples (edges-only retention): merge still works,
    # with a warning that b's exact overlap check was skipped
    shutil.rmtree(outs["b"] / "triples")
    merged2 = tmp_path / "kg_merged2"
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        merge_kg_runs(runs, str(merged2))
    assert any("no triples/ directory" in str(x.message) for x in w)
    edges2 = pq_mod.read_table(merged2 / "edges").to_pandas()
    edges2["part"] = edges2["part"].astype("int64")
    assert _sorted_df(pa.Table.from_pandas(edges2), keys).equals(
        _sorted_df(pa.Table.from_pandas(edges_before), keys)
    )


def test_kg_job_artifact_path(ray_session, tmp_path, tmp_path_factory):
    """run_kg_job(artifact_dir=) — the production deployment layout end to
    end: sha-verified .npz weights loaded per worker process, output
    identical to the lexicon-weights job; the lineage config hash folds the
    artifact dir in (a resume must never mix weight sources). All jobs run
    in one Ray session, so task workers are reused: an artifact whose NER
    labels B-PER and B-LOC are swapped must give its own triples, not the
    models or sentence memo a worker built for another weight source."""
    import pyarrow as pa
    import pyarrow.parquet as pq_mod

    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import (
        load_artifact,
        save_artifact,
        save_taggers,
    )
    from lingvo__postagger_ner_ru_dnn_ray.model.tagger import SeqLabelModel
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage

    src = tmp_path / "src"
    src.mkdir()
    t = synth_transcripts_table(200, seed=31)
    pq_mod.write_table(t, src / "part-0.parquet")
    adir = str(tmp_path_factory.mktemp("models2"))
    save_taggers(adir)

    out_lex = tmp_path / "kg_lex"
    out_art = tmp_path / "kg_art"
    run_kg_job(str(src), str(out_lex), num_partitions=2)
    run_kg_job(str(src), str(out_art), num_partitions=2, artifact_dir=adir)
    keys = ["part", "subj_id", "pred", "obj_id"]
    lex = pq_mod.read_table(out_lex / "edges").to_pandas()
    art = pq_mod.read_table(out_art / "edges").to_pandas()
    for df in (lex, art):
        df["part"] = df["part"].astype("int64")
    assert _sorted_df(pa.Table.from_pandas(lex), keys).equals(
        _sorted_df(pa.Table.from_pandas(art), keys)
    )
    # lineage hashes differ: the artifact run can't resume-skip into a
    # lexicon run's partitions
    m_lex = json.loads((out_lex / "triples" / "part=0" / "_manifest.json").read_text())
    m_art = json.loads((out_art / "triples" / "part=0" / "_manifest.json").read_text())
    assert m_lex["config_hash"] != m_art["config_hash"]

    ner = load_artifact(Path(adir) / "ner.npz")
    swap = {"B-PER": "B-LOC", "B-LOC": "B-PER"}
    sdir = tmp_path_factory.mktemp("models_swapped")
    save_artifact(SeqLabelModel(ner.src_vocab, tuple(swap.get(x, x) for x in ner.labels),
                                ner.w, dim=ner.dim, n_layers=ner.n_layers,
                                n_heads=ner.n_heads, max_ending_length=ner.max_ending_length),
                  sdir / "ner.npz")
    for f in ("pos.npz", "pos.npz.manifest.json"):
        shutil.copy(Path(adir) / f, sdir / f)
    out_swap = tmp_path / "kg_swap"
    run_kg_job(str(src), str(out_swap), num_partitions=2, artifact_dir=str(sdir))
    got = pq_mod.read_table(out_swap / "triples").drop(["part"])
    want = KgStage(artifact_dir=str(sdir))(t)
    lex_tri = pq_mod.read_table(out_lex / "triples").drop(["part"])
    assert not _sorted_df(want, TRIPLE_KEYS).equals(_sorted_df(lex_tri, TRIPLE_KEYS))
    assert _sorted_df(got, TRIPLE_KEYS).equals(_sorted_df(want, TRIPLE_KEYS))


def test_salted_final_agg_equals_arrow_group_by(ray_session):
    """The salted exchange must equal one in-process Arrow group_by over
    the same rows, null-keyed groups included."""
    import numpy as np
    import pandas as pd

    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import _salted_final_agg

    rng = np.random.RandomState(5)
    n = 20_000
    # every 97th k2 is NULL: null keys must aggregate as a real group
    tbl = pa.table({
        "k1": pa.array(rng.randint(0, 500, n), pa.int64()),
        "k2": pa.array([None if i % 97 == 0 else f"p{i%7}" for i in range(n)], pa.string()),
        "weight": pa.array(rng.randint(1, 9, n), pa.int64()),
        "canon": pa.array([f"c{rng.randint(0, 9)}" for _ in range(n)], pa.string()),
    })
    key = ["k1", "k2"]
    a = (tbl.group_by(key).aggregate([("weight", "sum"), ("canon", "min")])
         .rename_columns(key + ["weight", "canon"]).to_pandas())
    ds = ray.data.from_arrow(tbl).repartition(32)
    b = _salted_final_agg(ds, key, sums=["weight"], mins=["canon"]).to_pandas()
    a = a.sort_values(key).reset_index(drop=True)
    b = b[a.columns].sort_values(key).reset_index(drop=True)
    assert a["k2"].isna().any()  # the null-key groups survived
    pd.testing.assert_frame_equal(a, b)


def _write_input(tbl, d: Path) -> str:
    d.mkdir()
    pq.write_table(tbl, d / "part-0.parquet")
    return str(d)


def _global(tbl, keys, aggs):
    """Sum a per-partition aggregate over ``part``: the global view."""
    g = tbl.group_by(keys).aggregate(aggs).rename_columns(keys + [c for c, _ in aggs])
    return _sorted_df(g, keys)


EDGE_AGG = [("weight", "sum"), ("subj_type", "min"), ("obj_type", "min"),
            ("subj_canon", "min"), ("obj_canon", "min")]
NODE_AGG = [("n_mentions", "sum"), ("canonical", "min"), ("type", "min")]


def test_kg_job_empty_partitions_and_nodes_resume(ray_session, tmp_path):
    """More partitions than conversations: the empty partitions still get
    a complete 0-row manifest in every table and the output equals the
    oracle. Deleting only some nodes partitions rebuilds those partitions'
    edges and nodes from their triples, and leaves every other file
    untouched."""
    tbl = synth_transcripts_table(60, seed=7)
    n_convs = len(set(tbl.column("conv_id").to_pylist()))
    p = n_convs + 8
    src = _write_input(tbl, tmp_path / "src")
    out = tmp_path / "kg"
    run_kg_job(src, str(out), num_partitions=p)

    oracle = oracle_tables(tbl)
    empty = set(range(p)) - {int(d.name.split("=")[1])
                             for d in (out / "triples").glob("part=*")
                             if list(d.glob("*.parquet"))}
    assert len(empty) >= 8
    for t in ("triples", "edges", "nodes"):
        for k in range(p):
            m = json.loads((out / t / f"part={k}" / "_manifest.json").read_text())
            assert m["complete"] and m["partition"] == k
            if k in empty:
                assert m["rows"] == 0 and m["files"] == [], (t, k)
    got = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(got, TRIPLE_KEYS).equals(_sorted_df(oracle["triples"], TRIPLE_KEYS))
    edge_keys = ["subj_id", "pred", "obj_id"]
    assert _global(pq.read_table(out / "edges"), edge_keys, EDGE_AGG).equals(
        _sorted_df(oracle["edges"], edge_keys))
    assert _global(pq.read_table(out / "nodes"), ["entity_id"], NODE_AGG).equals(
        _sorted_df(oracle["nodes"], ["entity_id"]))

    nodes_before = pq.read_table(out / "nodes")
    edge_mtimes = {f: f.stat().st_mtime_ns for f in (out / "edges").rglob("*.parquet")}
    full = sorted(set(range(p)) - empty)
    gone = [full[0], full[-1], sorted(empty)[0]]
    for k in gone:
        shutil.rmtree(out / "nodes" / f"part={k}")
    stats: list = []
    res = run_kg_job(src, str(out), num_partitions=p, stats_out=stats)
    assert res["partitions_run"] == sorted(gone)
    assert [s[0] for s in stats] == ["edges"]
    now = {f: f.stat().st_mtime_ns for f in (out / "edges").rglob("*.parquet")}
    assert now.keys() == edge_mtimes.keys()
    assert {f for f in now if now[f] != edge_mtimes[f]} == {
        out / "edges" / f"part={k}" / "data.parquet" for k in gone if k not in empty}
    keys = ["part", "entity_id"]
    assert _sorted_df(pq.read_table(out / "nodes"), keys).equals(
        _sorted_df(nodes_before, keys))


def test_resume_rows_count_what_it_published(fixture_path, tmp_path):
    """``rows`` counts the rows of the manifests the run published: a
    resume that rebuilds only the graphs of partitions 0 (edges deleted)
    and 1 (nodes deleted) reports 0 triples, and the edges and nodes rows
    of the manifests it wrote for those two partitions."""
    out = tmp_path / "kg"
    res = run_kg_job(fixture_path, str(out), num_partitions=4)
    tables = ("triples", "edges", "nodes")
    assert res["rows"] == {t: pq.read_table(out / t).num_rows for t in tables}
    shutil.rmtree(out / "edges" / "part=0")
    shutil.rmtree(out / "nodes" / "part=1")
    res = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert res["partitions_run"] == [0, 1]
    published = {t: sum(json.loads((out / t / f"part={k}" / "_manifest.json").read_text())["rows"]
                        for k in (0, 1)) for t in ("edges", "nodes")}
    assert res["rows"] == {"triples": 0, **published}
    assert published["edges"] > 0 and published["nodes"] > 0


def test_resume_rebuilds_the_graph_of_retagged_triples(ray_session, tmp_path):
    """A partition whose triples a resume re-tags gets its graph rebuilt
    from them. The input is rewritten in place (seed 4 over seed 3, the
    same file names) and part 0's triples manifest deleted; the resume
    re-tags part 0, and in every partition Σ edge ``weight`` equals its
    triples rows and Σ node ``n_mentions`` twice that. A resume that kept
    part 0's old graph left 342 triples beside edges summing to 307."""
    src = tmp_path / "in"
    write_transcripts(synth_transcripts_table(2000, seed=3), str(src), 4)
    out = tmp_path / "kg"
    run_kg_job(str(src), str(out), num_partitions=4)
    write_transcripts(synth_transcripts_table(2000, seed=4), str(src), 4)
    (out / "triples" / "part=0" / "_manifest.json").unlink()
    res = run_kg_job(str(src), str(out), num_partitions=4)
    assert res["partitions_run"] == [0]
    for k in range(4):
        rows = pq.read_table(out / "triples" / f"part={k}").num_rows
        weight = pc.sum(pq.read_table(out / "edges" / f"part={k}").column("weight")).as_py()
        mentions = pc.sum(pq.read_table(out / "nodes" / f"part={k}").column("n_mentions")).as_py()
        assert (weight, mentions) == (rows, 2 * rows), k


def test_resume_rebuilds_a_graph_whose_triples_were_replaced(ray_session, tmp_path):
    """Each partition's graph records the triples manifest it was built
    from. Part 0's triples and triples manifest are replaced with those
    of a same-config run over other input (seed 4 over seed 3 at the same
    path), its edges and nodes kept: every manifest is intact, yet the
    resume rebuilds part 0's graph alone, and its Σ ``weight`` equals the
    new triples rows. A resume that trusted intact manifests alone kept
    the old graph and returned ``skipped``."""
    src, out, other = tmp_path / "in", tmp_path / "kg", tmp_path / "other"
    write_transcripts(synth_transcripts_table(2000, seed=3), str(src), 4)
    run_kg_job(str(src), str(out), num_partitions=4)
    write_transcripts(synth_transcripts_table(2000, seed=4), str(src), 4)
    run_kg_job(str(src), str(other), num_partitions=4)
    shutil.rmtree(out / "triples" / "part=0")
    shutil.copytree(other / "triples" / "part=0", out / "triples" / "part=0")
    rows = pq.read_table(out / "triples" / "part=0").num_rows
    old = pc.sum(pq.read_table(out / "edges" / "part=0").column("weight")).as_py()
    assert old != rows  # the kept graph disagrees with the new triples
    res = run_kg_job(str(src), str(out), num_partitions=4)
    assert res["partitions_run"] == [0] and res["rows"]["triples"] == 0
    weight = pc.sum(pq.read_table(out / "edges" / "part=0").column("weight")).as_py()
    mentions = pc.sum(pq.read_table(out / "nodes" / "part=0").column("n_mentions")).as_py()
    assert (weight, mentions) == (rows, 2 * rows)
    assert run_kg_job(str(src), str(out), num_partitions=4)["skipped"]


def test_graph_that_breaks_a_conservation_law_publishes_nothing(ray_session, oracle, tmp_path):
    """A per-file step that doubles the edge weights makes the graph task
    raise before it writes, as Σ weight then exceeds the triples rows
    recorded for the partition, and no manifest publishes."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import _build_graph
    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import edge_partials

    def doubled(t):
        e = edge_partials(t)
        return e.set_column(e.schema.get_field_index("weight"), "weight",
                            pc.multiply(e.column("weight"), 2))

    src = tmp_path / "triples"
    _row_range_files(oracle["triples"], 2, src / "part=0")
    out = {t: str(tmp_path / t) for t in ("edges", "nodes")}
    rows = oracle["triples"].num_rows
    with pytest.raises(RuntimeError, match=f"Σ weight {2 * rows}, .*want Σ weight = {rows}"):
        _build_graph([str(src)], doubled, out, [0], {}, {0: rows})
    assert not [f for t in out.values() for f in Path(t).rglob("*")]  # no data, no manifest


@pytest.mark.parametrize("col, yields_triples",
                         [("conv_id", True), ("conv_id", False), ("turn_idx", True)])
def test_null_key_raises_before_any_write(ray_session, tmp_path, col, yields_triples):
    """One turn with a null ``conv_id`` or ``turn_idx``, on a turn that
    yields triples or not: the oracle, the resume filter and the job each
    raise a ValueError that names the column and the count, and the job
    publishes no manifest. Through Ray Data the error arrives wrapped, so
    its message is matched."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import _drop_done_parts

    tbl = synth_transcripts_table(60, seed=7)
    tri = oracle_tables(tbl)["triples"]
    keyed = set(zip(tri.column("conv_id").to_pylist(), tri.column("turn_idx").to_pylist()))
    rows = tbl.to_pylist()
    i = next(i for i, r in enumerate(rows)
             if ((r["conv_id"], r["turn_idx"]) in keyed) == yields_triples)
    rows[i][col] = None
    bad = pa.Table.from_pylist(rows, schema=tbl.schema)
    msg = rf"1 turn\(s\) with a null {col}"
    with pytest.raises(ValueError, match=msg):
        oracle_tables(bad)
    with pytest.raises(ValueError, match=msg):
        _drop_done_parts(2, {0})(bad)
    out = tmp_path / "kg"
    with pytest.raises(Exception, match=msg):
        run_kg_job(_write_input(bad, tmp_path / "src"), str(out), num_partitions=2)
    assert not list(out.glob("*/part=*/_manifest.json"))


def _with_column(tbl: pa.Table, col: str, arr) -> pa.Table:
    return tbl.set_column(tbl.schema.get_field_index(col), col, arr)


@pytest.mark.parametrize("col", ["conv_id", "turn_idx"])
def test_key_of_another_type_or_range_raises(col):
    """An int64 ``conv_id``, or an int64 ``turn_idx`` that holds 2^40 on a
    turn that yields triples: the stage, the resume filter and the oracle
    each raise a ValueError that names the column, not an Arrow error from
    the output build."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import _drop_done_parts
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import kg_stage_fn

    tbl = synth_transcripts_table(60, seed=7)
    convs, turns = tbl.column("conv_id").to_pylist(), tbl.column("turn_idx").to_pylist()
    if col == "conv_id":
        code = {c: i for i, c in enumerate(sorted(set(convs)))}
        bad = _with_column(tbl, col, pa.array([code[c] for c in convs], pa.int64()))
    else:
        tri = oracle_tables(tbl)["triples"]
        hit = (tri.column("conv_id")[0].as_py(), tri.column("turn_idx")[0].as_py())
        bad = _with_column(tbl, col, pa.array(
            [1 << 40 if (c, t) == hit else t for c, t in zip(convs, turns)], pa.int64()))
    for fn in (kg_stage_fn, _drop_done_parts(2, {0}), oracle_tables):
        with pytest.raises(ValueError, match=col):
            fn(bad)


@pytest.mark.parametrize("typ", [pa.int64(), pa.binary()], ids=["int64", "binary"])
def test_text_of_a_non_string_type_raises(typ):
    """An int64 or a binary ``text``: the stage and the oracle each raise a
    ValueError that names ``text``, not an error from inside the tokenizer.
    A null ``text`` in a string column stays a turn without sentences."""
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import kg_stage_fn

    tbl = synth_transcripts_table(8, seed=7)
    n = tbl.num_rows
    texts = tbl.column("text").to_pylist()
    bad = _with_column(tbl, "text", pa.array(
        list(range(n)) if typ == pa.int64() else [x.encode() for x in texts], typ))
    for fn in (kg_stage_fn, oracle_tables):
        with pytest.raises(ValueError, match="text has type"):
            fn(bad)
    nulled = _with_column(tbl, "text", pa.array([None] * n, pa.string()))
    assert kg_stage_fn(nulled).num_rows == 0
    assert oracle_tables(nulled)["sentences"].num_rows == 0


@pytest.mark.parametrize("col, retype", [("text", lambda a: a.cast(pa.large_string())),
                                         ("conv_id", pc.dictionary_encode),
                                         ("turn_idx", lambda a: a.cast(pa.int64()))],
                         ids=["text", "conv_id", "turn_idx"])
def test_column_types_that_fit_equal_the_oracle(col, retype):
    """A large_string ``text``, a dictionary-encoded ``conv_id`` and an
    int64 ``turn_idx`` whose values fit in int32 are read as the plain
    types: the stage and the oracle over such a table give the triples of
    the oracle over the plain one."""
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import kg_stage_fn

    tbl = synth_transcripts_table(60, seed=7)
    retyped = _with_column(tbl, col, retype(tbl.column(col)))
    key = lambda r: (r["conv_id"], r["turn_idx"], r["sent_idx"], r["triple_idx"])  # noqa: E731
    want = sorted(oracle_tables(tbl)["triples"].to_pylist(), key=key)
    assert len(want) > 10
    assert sorted(kg_stage_fn(retyped).to_pylist(), key=key) == want
    assert sorted(oracle_tables(retyped)["triples"].to_pylist(), key=key) == want


def test_kg_merge_refuses_mismatched_partitions(ray_session, tmp_path):
    """Runs written with different num_partitions hash a conversation into
    different part=k, so a per-partition merge would be wrong: refuse,
    writing nothing."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import merge_kg_runs

    tbl = synth_transcripts_table(60, seed=3)
    convs = sorted(set(tbl.column("conv_id").to_pylist()))
    half = pa.array(convs[: len(convs) // 2])
    in_half = pc.is_in(tbl.column("conv_id"), value_set=half)
    runs = []
    for name, mask, p in (("a", in_half, 2), ("b", pc.invert(in_half), 4)):
        src = _write_input(tbl.filter(mask), tmp_path / f"src_{name}")
        runs.append(str(tmp_path / f"kg_{name}"))
        run_kg_job(src, runs[-1], num_partitions=p)
    merged = tmp_path / "kg_merged"
    with pytest.raises(ValueError, match="num_partitions"):
        merge_kg_runs(runs, str(merged))
    assert not merged.exists()


def _disjoint_runs(tbl, n: int, root: Path, p: int) -> list[str]:
    """``tbl``'s sorted conversations cut into ``n`` consecutive slices,
    one ``run_kg_job`` with ``p`` partitions over each."""
    convs = sorted(set(tbl.column("conv_id").to_pylist()))
    runs = []
    for i in range(n):
        part = pa.array(convs[i * len(convs) // n:(i + 1) * len(convs) // n])
        src = _write_input(tbl.filter(pc.is_in(tbl.column("conv_id"), value_set=part)),
                           root / f"src_{i}")
        runs.append(str(root / f"kg_{i}"))
        run_kg_job(src, runs[-1], num_partitions=p)
    return runs


def test_kg_merge_refuses_damaged_runs(ray_session, tmp_path):
    """The merge trusts a run's edges partition only when its manifest is
    intact, by the rule a resume uses. A listed data file deleted, a
    manifest deleted, or an unlisted copy beside a listed file each raise
    before ``out_dir/edges`` exists; with the damage undone the merge
    succeeds. A run directory copied under another name holds the same
    conversations, so merging it with its original raises "overlap"."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import DATA_FILE, merge_kg_runs

    runs = _disjoint_runs(synth_transcripts_table(120, seed=13), 2, tmp_path, p=4)
    pdir = next(d for d in sorted((Path(runs[1]) / "edges").glob("part=*"))
                if (d / DATA_FILE).exists())
    data, manifest, copy = pdir / DATA_FILE, pdir / "_manifest.json", pdir / "copy.parquet"
    saved = {f: f.read_bytes() for f in (data, manifest)}
    out = tmp_path / "kg_merged"

    def refused(match: str) -> None:
        with pytest.raises(ValueError, match=match):
            merge_kg_runs(runs, str(out))
        assert not (out / "edges").exists()

    data.unlink()
    refused(rf"missing or damaged: .*kg_1.*\[{pdir.name[5:]}\]")
    data.write_bytes(saved[data])
    manifest.unlink()
    refused("missing or damaged")
    manifest.write_bytes(saved[manifest])
    shutil.copy(data, copy)
    refused("missing or damaged")
    copy.unlink()
    merge_kg_runs(runs, str(out))

    twin = tmp_path / "kg_twin"
    shutil.copytree(runs[0], twin)
    with pytest.raises(ValueError, match="overlap"):
        merge_kg_runs([runs[0], str(twin)], str(tmp_path / "kg_bad"))
    assert not (tmp_path / "kg_bad" / "edges").exists()


def test_kg_merged_view_merges_again(ray_session, tmp_path):
    """A merged view is an accepted merge input: merge(merge(a, b), c)
    equals one run over a ∪ b ∪ c, for edges and nodes summed over
    ``part``. The view has no triples/, so the second merge checks it
    through the triples of a and b, which its manifests record, and warns
    of nothing."""
    import warnings

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import merge_kg_runs

    tbl = synth_transcripts_table(150, seed=17)
    a, b, c = _disjoint_runs(tbl, 3, tmp_path, p=4)
    full = tmp_path / "kg_full"
    run_kg_job(_write_input(tbl, tmp_path / "src_full"), str(full), num_partitions=4)
    ab, abc = tmp_path / "kg_ab", tmp_path / "kg_abc"
    merge_kg_runs([a, b], str(ab))
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        merge_kg_runs([str(ab), c], str(abc))
    assert not [x for x in w if str(x.message).startswith("merge_kg_runs")]
    edge_keys = ["subj_id", "pred", "obj_id"]
    assert _global(pq.read_table(abc / "edges"), edge_keys, EDGE_AGG).equals(
        _global(pq.read_table(full / "edges"), edge_keys, EDGE_AGG))
    assert _global(pq.read_table(abc / "nodes"), ["entity_id"], NODE_AGG).equals(
        _global(pq.read_table(full / "nodes"), ["entity_id"], NODE_AGG))


def test_kg_merge_checks_a_view_through_its_runs(ray_session, tmp_path):
    """merge(merge(a, b), a) would count a's conversations twice. The view
    has no triples/, but its manifests record a and b, so the overlap check
    reads their triples and raises before the merge writes anything."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import merge_kg_runs

    a, b = _disjoint_runs(synth_transcripts_table(80, seed=17), 2, tmp_path, p=2)
    ab = tmp_path / "kg_ab"
    merge_kg_runs([a, b], str(ab))
    out = tmp_path / "kg_again"
    with pytest.raises(ValueError, match="overlap"):
        merge_kg_runs([str(ab), a], str(out))
    assert not out.exists()


def test_second_writer_raises_before_it_clears(fixture_path, oracle, tmp_path, monkeypatch):
    """Two jobs on one ``out_dir``: the second starts just as the first is
    about to publish its first triples manifest, and dies after its
    clearing pass. It raises at once, naming the first as the lock's
    holder, and removes nothing, so the first job publishes and returns
    every row of the oracle and releases the lock. The second job runs in
    a thread that must end within 30 s, so a lock that waits for its
    holder fails here rather than hanging."""
    import os
    import threading

    out, publish, second = tmp_path / "kg", kg.mf.write_manifest, []

    def dies(*args, **kwargs):
        raise RuntimeError("the second job died after its clearing pass")

    def second_job():
        try:
            run_kg_job(fixture_path, str(out), num_partitions=4)
        except RuntimeError as e:
            second.append(str(e))

    def second_job_first(*args, **kwargs):
        if not second:
            with monkeypatch.context() as m:
                m.setattr(kg, "read_transcripts", dies)
                t = threading.Thread(target=second_job, daemon=True)
                t.start()
                t.join(timeout=30)
                if t.is_alive():
                    pytest.fail("the second job still waits for the lock after 30 s")
        return publish(*args, **kwargs)

    monkeypatch.setattr(kg.mf, "write_manifest", second_job_first)
    res = run_kg_job(fixture_path, str(out), num_partitions=4)
    assert "another writer" in second[0] and f'"pid": {os.getpid()}' in second[0]
    assert res["rows"]["triples"] == oracle["triples"].num_rows
    _assert_job_equals_oracle(out, oracle)
    assert not (out / "_writer.lock").exists()


_DIE_HOLDING_LOCK = """
import os, sys
from lingvo__postagger_ner_ru_dnn_ray.state.manifest import writer_lock
held = writer_lock(sys.argv[1])
held.__enter__()
os._exit(0)
"""


def test_dead_writers_lock_is_taken_over(fixture_path, oracle, tmp_path):
    """A writer that dies holding ``out_dir``'s lock leaves its file behind;
    the kernel released its ``flock``, so the next job equals the oracle
    and removes the file. Any leftover file blocks nothing, whatever it
    records: a live pid that holds no lock, another host, or nothing."""
    import json
    import os
    import socket
    import subprocess
    import sys

    from lingvo__postagger_ner_ru_dnn_ray.state import manifest as mf

    out = tmp_path / "kg"
    subprocess.run([sys.executable, "-c", _DIE_HOLDING_LOCK, str(out)],
                   cwd=Path(__file__).resolve().parents[1], check=True)
    lock = out / mf.LOCK_NAME
    assert json.loads(lock.read_text())["pid"] != os.getpid()
    run_kg_job(fixture_path, str(out), num_partitions=4)
    _assert_job_equals_oracle(out, oracle)
    assert not lock.exists()

    me = {"host": socket.gethostname(), "pid": os.getpid()}
    for left in (json.dumps(me), json.dumps(dict(me, host=me["host"] + "-elsewhere")), ""):
        lock.write_text(left)
        run_kg_job(fixture_path, str(out), num_partitions=4)
        _assert_job_equals_oracle(out, oracle)
        assert not lock.exists()


_HOLD_LOCK = """
import select, sys
from lingvo__postagger_ner_ru_dnn_ray.state.manifest import writer_lock
with writer_lock(sys.argv[1]):
    print("held", flush=True)
    select.select([sys.stdin], [], [], 5.0)  # until stdin closes, at most 5 s
"""


def test_live_writer_in_another_process_is_refused(fixture_path, tmp_path):
    """A job on an ``out_dir`` whose lock another live process holds raises
    at once, naming that process's pid. The holder releases after at most
    5 s, so a lock that waits for it fails here rather than hanging."""
    import subprocess
    import sys
    import time

    out = tmp_path / "kg"
    holder = subprocess.Popen([sys.executable, "-c", _HOLD_LOCK, str(out)],
                              cwd=Path(__file__).resolve().parents[1],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=f'another writer.*"pid": {holder.pid}'):
            run_kg_job(fixture_path, str(out), num_partitions=4)
        assert time.monotonic() - t0 < 2.0
    finally:
        holder.stdin.close()
        assert holder.wait(timeout=30) == 0
    assert not (out / "_writer.lock").exists()


def _manifest_mtimes(table_dir: Path) -> dict:
    return {str(m): m.stat().st_mtime_ns for m in table_dir.glob("part=*/_manifest.json")}


def test_reduce_task_failure_then_resume(fixture_path, oracle, tmp_path, monkeypatch):
    """A partition task of the reduce raises: the job raises after the
    step's other tasks have finished, and publishes no edges or nodes
    manifest. The resume then rebuilds only edges and nodes, leaves the
    triples manifests untouched and equals the oracle exactly."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines import kg
    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import edge_partials
    from lingvo__postagger_ner_ru_dnn_ray.state.manifest import partition_of

    p, bad_part = 4, 2
    convs = sorted(set(oracle["triples"].column("conv_id").to_pylist()))
    hot = next(c for c in convs if partition_of(c, p) == bad_part)

    def failing_edges(t):
        if hot in t.column("conv_id").to_pylist():
            raise RuntimeError("injected reduce failure")
        return edge_partials(t)

    out = tmp_path / "kg"
    monkeypatch.setattr(kg, "edge_partials", failing_edges)
    with pytest.raises(RuntimeError, match="injected reduce failure"):
        run_kg_job(fixture_path, str(out), num_partitions=p)
    monkeypatch.undo()
    for t in ("edges", "nodes"):
        assert not list((out / t).glob("part=*/_manifest.json")), t
    # every other task of the step ran to its end before the raise
    for k in set(range(p)) - {bad_part}:
        assert (out / "edges" / f"part={k}" / kg.DATA_FILE).exists(), k
        assert (out / "nodes" / f"part={k}" / kg.DATA_FILE).exists(), k
    triples_before = _manifest_mtimes(out / "triples")
    assert len(triples_before) == p

    stats: list = []
    res = run_kg_job(fixture_path, str(out), num_partitions=p, stats_out=stats)
    assert res["partitions_run"] == list(range(p))
    assert [s[0] for s in stats] == ["edges"]
    assert _manifest_mtimes(out / "triples") == triples_before
    got = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(got, TRIPLE_KEYS).equals(_sorted_df(oracle["triples"], TRIPLE_KEYS))
    edge_keys = ["subj_id", "pred", "obj_id"]
    assert _global(pq.read_table(out / "edges"), edge_keys, EDGE_AGG).equals(
        _sorted_df(oracle["edges"], edge_keys))
    assert _global(pq.read_table(out / "nodes"), ["entity_id"], NODE_AGG).equals(
        _sorted_df(oracle["nodes"], ["entity_id"]))


# the two line forms of a Ray Data operator in ``Dataset.stats()`` text
_OP_LINE = r"Operator \d+ (.+?): (\d+) tasks .*in ([\d.]+)s$"
_WALL_LINE = r"Remote wall time: .* ([\d.]+)(us|ms|s) total"


def _reduce_stats(text: str) -> tuple[int, float, float]:
    """(tasks, elapsed s, summed task wall s) of a reduce step's text."""
    import re

    units = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    (op,) = [m for line in text.splitlines() if (m := re.match(_OP_LINE, line))]
    (wall,) = [m for line in text.splitlines() if (m := re.search(_WALL_LINE, line))]
    return int(op.group(2)), float(op.group(3)), float(wall.group(1)) * units[wall.group(2)]


def test_reduce_stats_text(fixture_path, tmp_path):
    """The reduce step's ``stats_out`` entry states its task count, its
    elapsed seconds and the tasks' summed wall time, which is the sum of
    the per-task times."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import _build_graph
    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import edge_partials

    out = tmp_path / "kg"
    stats: list = []
    run_kg_job(fixture_path, str(out), num_partitions=4, stats_out=stats)
    assert [s[0] for s in stats] == ["triples", "edges"]
    n, ran_s, total_s = _reduce_stats(stats[1][1])
    assert n == 4 and ran_s > 0 and total_s > 0

    parts = [0, 1, 2, 3]
    rebuilt = {t: str(tmp_path / "again" / t) for t in ("edges", "nodes")}
    step, rows = _build_graph([str(out / "triples")], edge_partials, rebuilt, parts, {})
    assert rows == {t: pq.read_table(d).num_rows for t, d in rebuilt.items()}
    assert len(step.task_s) == 4 and all(s > 0 for s in step.task_s)
    n, ran_s, total_s = _reduce_stats(step.stats())
    assert n == 4 and ran_s == pytest.approx(step.elapsed_s, abs=1e-6)
    assert total_s > 0 and total_s == pytest.approx(sum(step.task_s), abs=1e-6)


def _assert_job_equals_oracle(out: Path, oracle) -> None:
    """The job's triples, and the global views of its edges and nodes,
    equal the oracle's."""
    got = pq.read_table(out / "triples").drop(["part"])
    assert _sorted_df(got, TRIPLE_KEYS).equals(_sorted_df(oracle["triples"], TRIPLE_KEYS))
    edge_keys = ["subj_id", "pred", "obj_id"]
    assert _global(pq.read_table(out / "edges"), edge_keys, EDGE_AGG).equals(
        _sorted_df(oracle["edges"], edge_keys))
    assert _global(pq.read_table(out / "nodes"), ["entity_id"], NODE_AGG).equals(
        _sorted_df(oracle["nodes"], ["entity_id"]))


def test_resume_checks_manifest_files(fixture_path, oracle, tmp_path):
    """A complete manifest counts only while its partition holds exactly
    the files it lists, at their listed sizes. (a) One listed triples
    file of part=1 and all of edges/part=1 gone: the resume tags part 1
    again instead of building its edges from the triples left. (b)
    edges/part=2's data file gone under its complete manifest: the resume
    rebuilds it instead of reporting the job done. (c) An unlisted copy of
    a triples file beside part=3's files: the resume rewrites part 3
    instead of reading the copy's rows twice."""
    out = tmp_path / "kg"
    run_kg_job(fixture_path, str(out), num_partitions=4)
    listed = json.loads((out / "triples" / "part=1" / "_manifest.json").read_text())["files"]
    (out / "triples" / "part=1" / listed[0]["name"]).unlink()
    shutil.rmtree(out / "edges" / "part=1")
    assert run_kg_job(fixture_path, str(out), num_partitions=4)["partitions_run"] == [1]
    _assert_job_equals_oracle(out, oracle)

    (out / "edges" / "part=2" / "data.parquet").unlink()
    assert run_kg_job(fixture_path, str(out), num_partitions=4)["partitions_run"] == [2]
    _assert_job_equals_oracle(out, oracle)

    part3 = out / "triples" / "part=3"
    shutil.copy(next(part3.glob("*.parquet")), part3 / "copy.parquet")
    assert run_kg_job(fixture_path, str(out), num_partitions=4)["partitions_run"] == [3]
    _assert_job_equals_oracle(out, oracle)


def test_batch_splits_and_cache_clears(fixture_path, oracle, tmp_path, monkeypatch,
                                       counting_caches):
    """The job's stage gives the oracle's triples at any batch size, also
    when its caches clear between batches. One ``KgStage`` takes the
    fixture's turns, 60 of them again under other conversations, and the
    reference lines, at batch sizes 1, 7, 64 and 512, with the bound of
    the sentence memo, the token memo and the surface memo small, so that
    all three clear during every pass. ``run_kg_job`` at 7-turn batches
    (``TAG_BATCH_TURNS``) equals the oracle too."""
    from reference_lines import reference_lines

    from lingvo__postagger_ner_ru_dnn_ray.stages import kernel as kernel_mod
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage

    base = synth_transcripts_table(N_TURNS, seed=SEED).select(["conv_id", "turn_idx", "text"])
    rows = base.to_pylist()
    rows += [dict(r, conv_id="again-" + r["conv_id"]) for r in rows[:60]]
    rows += [{"conv_id": "ref", "turn_idx": i, "text": x} for i, x in enumerate(reference_lines())]
    table = pa.Table.from_pylist(rows, schema=base.schema)
    key = lambda r: (r["conv_id"], r["turn_idx"], r["sent_idx"], r["triple_idx"])  # noqa: E731
    want = sorted(oracle_tables(table)["triples"].to_pylist(), key=key)

    monkeypatch.setattr(kernel_mod, "_CACHE_ENTRIES", 250)
    stage = KgStage()
    caches = counting_caches(stage.kernel)
    for size in (1, 7, 64, 512):
        before = [c.clears for c in caches]
        got = [stage(table.slice(a, size)) for a in range(0, table.num_rows, size)]
        assert all(c.clears > n for c, n in zip(caches, before)), size
        assert sorted(pa.concat_tables(got).to_pylist(), key=key) == want, size

    out = tmp_path / "kg"
    monkeypatch.setattr(kg, "TAG_BATCH_TURNS", 7)
    run_kg_job(fixture_path, str(out), num_partitions=4)
    _assert_job_equals_oracle(out, oracle)
