"""The flagship pipeline: transcripts Parquet → knowledge-graph Parquet.

    read_parquet (column-pruned, schema metadata dropped)
      -> [resume filter: drop conversations whose triples partition is done]
      -> map_batches(kg_stage_fn)      # fused tokenize → tag → extract → link
      -> TriplesSink: part = crc32(conv_id) % P, file triples/part=k/t<task>.parquet
      -> triples manifests
      -> one task per partition k: triples/part=k -> edges/part=k -> nodes/part=k
      -> edges and nodes manifests

One Ray Data execution, then one plain Ray task per partition: Ray fuses
the read, the fused stage and the sink into one operator, so each map task
writes its own rows and nothing is exchanged; then one ``ray.remote`` task
per partition (``_build_graph``) builds that partition's edges and, from
the edges table it holds, its nodes: a partition's graph, which resumes
and publishes as one unit. The fused stage runs as
stateless tasks: each worker process keeps one ``KgStage`` per
``artifact_dir`` (stages/fused.py), so the scheduler uses every free CPU
and no pool size is tuned. The partition id is a pure function of the
data, so a resumed run reproduces identical partition contents. Every
stage is idempotent and deterministic: every output row is keyed by
(conv_id, turn_idx, ...), so the row set does not depend on block order,
and an edges file is sorted by its key, so its bytes do not either.

Skew. Extraction is per turn (no cross-turn state) and the fused stage
splits work by row ranges, never by conv_id, so a huge conversation
spreads across map tasks and so across triples files. Edges and nodes are
keyed by (part, ...), and ``triples/part=k/`` holds every triple of
partition k, so each partition's edges and nodes are aggregated by ONE
task reading that directory — no exchange. The task folds the directory
one file at a time (``_fold_edges``), so it holds its largest file plus
the partition's distinct edges, never the partition's triples.
``test_extreme_conv_skew`` checks both sides: the map tasks' triples and
the reduce output of a partition holding one dominant conversation.
"""
from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.block import BlockAccessor
from ray.data.datasource import Datasink

from ..stages.conflate import EDGE_KEYS, combine_edges, edge_node_partials, edge_partials
from ..stages.fused import kg_stage_fn
from ..stages.kernel import check_turn_keys, kernel, sentence_table, turn_keys
from ..stages.mentions import mentions_batch
from ..state import manifest as mf

TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text"]
# turns per task of the fused stage and of the sentence stage
TAG_BATCH_TURNS = 512


def _crc_parts(conv_ids: list[str], p: int) -> np.ndarray:
    return np.array([mf.partition_of(c, p) for c in conv_ids], dtype=np.int32)


def read_transcripts(input_path: str, override_num_blocks: int | None = None) -> ray.data.Dataset:
    """Column-pruned read of ``TRANSCRIPT_COLUMNS``, ``role`` only when the
    input has it (``turn_keys`` reads a missing one as "");
    ``override_num_blocks`` sets the number of read tasks. The blocks
    carry the input's column types without its schema metadata:
    pandas-written Parquet stores a ``pandas`` entry there, and Ray cannot
    hash such schemas when it unifies blocks, so every task would log
    "Failed to hash the schemas"."""
    schema = pads.dataset(input_path, format="parquet").schema
    cols = [c for c in TRANSCRIPT_COLUMNS if c != "role" or c in schema.names]
    return ray.data.read_parquet(
        input_path, columns=cols, override_num_blocks=override_num_blocks,
        schema=pa.schema([schema.field(c) for c in cols]),
    )


def _sentences_batch(batch: pa.Table) -> pa.Table:
    return sentence_table(turn_keys(batch), kernel().tag_texts(batch.column("text").to_pylist()))


def tagged_sentences(ds: ray.data.Dataset) -> ray.data.Dataset:
    """transcripts → tagged sentence rows (stages/kernel.py SENT_SCHEMA):
    the kernel's first step as stateless tasks of ``TAG_BATCH_TURNS``
    turns, models loaded once per worker process."""
    return ds.map_batches(_sentences_batch, batch_format="pyarrow", batch_size=TAG_BATCH_TURNS)


def mention_rows(sent_ds: ray.data.Dataset) -> ray.data.Dataset:
    return sent_ds.map_batches(mentions_batch, batch_format="pyarrow")


def fused_linked_triples(
    ds: ray.data.Dataset, *, batch_size: int = TAG_BATCH_TURNS, artifact_dir: str | None = None,
) -> ray.data.Dataset:
    """transcripts → linked triples in ONE fused stage (stages/fused.py),
    as stateless tasks. ``artifact_dir`` loads the models from its
    sha-verified .npz artifacts (model/artifact.py) instead of the
    lexicon-built ones; each worker process loads them once."""
    return ds.map_batches(kg_stage_fn, batch_format="pyarrow", batch_size=batch_size,
                          fn_kwargs={"artifact_dir": artifact_dir})


def _drop_done_parts(p: int, done: set[int]):
    done_arr = pa.array(sorted(done), pa.int32())

    def fn(batch: pa.Table) -> pa.Table:
        check_turn_keys(batch)
        parts = pa.array(_crc_parts(batch.column("conv_id").to_pylist(), p), pa.int32())
        keep = pc.invert(pc.is_in(parts, value_set=done_arr))
        return batch.filter(keep)

    return fn


DATA_FILE = "data.parquet"  # the one file of an edges/ or nodes/ partition


def _part_files(base: str | Path, part: int) -> list[Path]:
    """The data files of ``base/part=k/`` (``part`` itself is not a column)."""
    return sorted(mf.partition_dir(base, part).glob("*.parquet"))


def _fold_edges(files: list[Path], per_file) -> pa.Table | None:
    """The edges of ``files``, or None when there are none: each file is
    read alone, reduced by ``per_file`` (None when it holds edges
    already) and folded into the running edges with ``combine_edges``. So
    the caller holds one file and the distinct edges, never every row of
    ``files``. The fold's row order depends on how the rows are split into
    files; the result is sorted by ``EDGE_KEYS``, so it does not."""
    edges = None
    for f in files:
        t = pq.read_table(f)
        t = per_file(t) if per_file else t
        edges = t if edges is None else combine_edges(
            pa.concat_tables([edges, t], promote_options="default"))
    return None if edges is None else edges.sort_by([(k, "ascending") for k in EDGE_KEYS])


def _run_part(fn, part: int) -> tuple:
    t0 = time.perf_counter()
    out = fn(part)
    return out, time.perf_counter() - t0


# the contract of Ray Data's own tasks (ray/data/_internal/remote_fn.py):
# one CPU, retried without limit on system errors (a lost worker), never
# on an error the task itself raises
_part_task = ray.remote(num_cpus=1, max_retries=-1,
                        retry_exceptions=[ray.exceptions.RaySystemError])(_run_part)


class _Step(NamedTuple):
    """What ``_per_partition`` ran: each task's result and wall seconds, in
    partition order, and the step's elapsed seconds on the driver."""

    results: list
    task_s: list[float]
    elapsed_s: float

    def stats(self) -> str:
        """The step in the two line forms of a Ray Data ``Dataset.stats()``
        operator, which ``stats_out`` readers parse."""
        ts = self.task_s
        mean = sum(ts) / len(ts) if ts else 0.0
        return (f"Operator 0 PartitionTasks: {len(ts)} tasks executed in {self.elapsed_s:.6f}s\n"
                f"* Remote wall time: {min(ts, default=0.0):.6f}s min, "
                f"{max(ts, default=0.0):.6f}s max, {mean:.6f}s mean, {sum(ts):.6f}s total\n")


def _per_partition(parts: list[int], fn) -> _Step:
    """``fn(k)`` for each partition id k, one Ray task each. If a task
    fails, this raises only after every other task has finished, so a
    resume never runs beside a task of the failed step."""
    t0 = time.perf_counter()
    fn_ref = ray.put(fn)
    refs = [_part_task.remote(fn_ref, k) for k in parts]
    ray.wait(refs, num_returns=len(refs), fetch_local=False)
    done = ray.get(refs)
    return _Step([r for r, _ in done], [s for _, s in done], time.perf_counter() - t0)


def _write_data(base: str, part: int, table: pa.Table | None) -> None:
    """``base/part=k/DATA_FILE`` = ``table``, written through a temp file
    and ``os.replace``; None writes no file (the manifest records 0 rows)."""
    if table is None:
        return
    pdir = mf.partition_dir(base, part)
    pdir.mkdir(parents=True, exist_ok=True)
    tmp = pdir / (DATA_FILE + ".tmp")
    pq.write_table(table, tmp)
    os.replace(tmp, pdir / DATA_FILE)


def _sum(t: pa.Table | None, col: str) -> int:
    """Σ ``col`` of ``t``; 0 for no table or no rows."""
    return 0 if t is None else pc.sum(t.column(col)).as_py() or 0


def _build_graph(srcs: list[str], per_file, out: dict[str, str], parts: list[int],
                 cfg: dict, weights: dict[int, int] | None = None,
                 digests: dict[int, str] | None = None) -> tuple[_Step, dict[str, int]]:
    """A partition's edges and nodes, built and published as one unit. One
    task per partition k of ``parts`` writes ``edges/part=k`` =
    ``_fold_edges`` over the files of ``src/part=k/`` of every ``src``,
    each reduced by ``per_file``, then ``nodes/part=k`` from the edges it
    holds. Before it writes, the task checks that Σ ``n_mentions`` is
    twice Σ ``weight`` (each edge has two endpoints) and, when
    ``weights`` is given, that Σ ``weight`` equals ``weights[k]``, a count
    recorded when the partition's input was published; it raises on a
    violation. Once every task has ended, both tables' manifests of
    ``parts`` publish with lineage config ``cfg``, their inputs also
    recording ``digests[k]`` as "triples" when given: the digest of the
    triples manifest the graph was built from. Returns the step and the
    rows each table published."""

    def build(part: int) -> None:
        edges = _fold_edges([f for s in srcs for f in _part_files(s, part)], per_file)
        nodes = None if edges is None else edge_node_partials(edges)
        weight, mentions = _sum(edges, "weight"), _sum(nodes, "n_mentions")
        want = weight if weights is None else weights[part]
        if weight != want or mentions != 2 * weight:
            raise RuntimeError(
                f"graph of partition {part}: Σ weight {weight}, Σ n_mentions {mentions}; "
                f"want Σ weight = {want} and Σ n_mentions = 2 × Σ weight")
        _write_data(out["edges"], part, edges)
        _write_data(out["nodes"], part, nodes)

    step = _per_partition(parts, build)
    ch = mf.config_hash(cfg)
    inputs = {k: cfg if digests is None else {**cfg, "triples": digests[k]} for k in parts}
    rows = {t: sum(mf.write_manifest(out[t], k, ch, inputs=inputs[k])["rows"] for k in parts)
            for t in ("edges", "nodes")}
    return step, rows


class TriplesSink(Datasink):
    """The fused stage's rows straight into ``root/part=k/``, k =
    ``mf.partition_of(conv_id, P)``: each write task streams its rows of
    partition k through one ``pq.ParquetWriter`` to
    ``t{task_idx:05d}.parquet.tmp`` and publishes it with ``os.replace``
    once its input is done. The file name is a function of the task index
    alone, so a retried task replaces its own files instead of adding
    second copies, and a reader never sees a half-written file. A task
    killed mid-write leaves files in partition directories that have no
    manifest; the next run clears them."""

    def __init__(self, root: str, num_partitions: int):
        self.root = root
        self.p = num_partitions

    def write(self, blocks, ctx) -> None:
        name = f"t{ctx.task_idx:05d}.parquet"
        writers: dict[int, pq.ParquetWriter] = {}
        try:
            for block in blocks:
                t = BlockAccessor.for_block(block).to_arrow()
                if t.num_rows == 0:
                    continue
                parts = _crc_parts(t.column("conv_id").to_pylist(), self.p)
                for k in np.unique(parts).tolist():
                    if k not in writers:
                        pdir = mf.partition_dir(self.root, k)
                        pdir.mkdir(parents=True, exist_ok=True)
                        writers[k] = pq.ParquetWriter(pdir / (name + ".tmp"), t.schema)
                    writers[k].write_table(t.filter(pa.array(parts == k)))
        except BaseException:
            for k, w in writers.items():
                w.close()
                (mf.partition_dir(self.root, k) / (name + ".tmp")).unlink(missing_ok=True)
            raise
        for k, w in writers.items():
            w.close()
            pdir = mf.partition_dir(self.root, k)
            os.replace(pdir / (name + ".tmp"), pdir / name)


def run_kg_job(
    input_path: str,
    out_dir: str,
    *,
    num_partitions: int = 8,
    resume: bool = True,
    tag_concurrency: None = None,
    tag_batch_size: int = TAG_BATCH_TURNS,
    stats_out: list | None = None,
    artifact_dir: str | None = None,
) -> dict:
    """End-to-end job: writes triples/, edges/, nodes/ under ``out_dir``,
    each hash-partitioned by conv_id (edges/nodes aggregated per partition —
    the global view is the sum over partitions) with lineage manifests.
    Every input turn needs a ``conv_id`` and a ``turn_idx``: a null in
    either raises ``ValueError`` before its batch writes, and no manifest
    publishes.

    Idempotent: a partition has two resume states, its triples and its
    graph (its edges and nodes, which one task builds from that
    partition's triples and one step publishes, ``_build_graph``). A
    re-run after a partial failure completes only the missing states: a
    kill after the triples are published rebuilds only the graph (the
    expensive tagging stage is skipped), a partition missing either
    graph table rebuilds both, and one whose triples are re-tagged
    rebuilds its graph too. A graph stands only while its edges manifest
    records the digest (``mf.files_digest``) of the partition's current
    triples manifest, so triples replaced by any other means also get
    their graph rebuilt. Partitions being (re)computed are first
    cleared of any un-manifested orphan files a dead run flushed (they
    would otherwise sit beside the new files and double-count). So the
    job holds ``out_dir``'s writer lock (``mf.writer_lock``) from before
    it reads that state: a second writer raises at once.
    Returns {"skipped", "partitions_done", "partitions_run", "rows"}, where
    ``rows`` counts, per table, the rows this run published (0 for a table
    it did not write); a job with nothing to do returns only the first two.

    The read makes ``2 × cluster CPUs`` blocks: two map tasks per CPU
    balance the load, and each writes at most one triples file per
    partition, so the table holds at most 2·CPUs·P files (on one CPU, 4
    read blocks measured no faster than 2). ``artifact_dir`` selects the
    model weights (see ``fused_linked_triples``) and is part of the
    lineage config.
    ``stats_out``: optional list that receives (name, stats text) per
    step: "triples" (the Ray Data execution's ``ds.stats()``), then
    "edges", the graph step, which also builds the nodes
    (``_Step.stats``: the task count, the elapsed seconds and the tasks'
    summed wall time); perfbench reads it for its per-layer metrics.
    ``tag_concurrency`` accepts only None: the actor-pool mode it selected
    is gone."""
    if tag_concurrency is not None:
        raise ValueError(
            f"run_kg_job: tag_concurrency {tag_concurrency!r} selects the removed "
            "actor-pool mode; the fused stage runs as stateless tasks, pass None")
    p = num_partitions
    cfg = {"v": 1, "num_partitions": p, "input": str(input_path)}
    if artifact_dir is not None:
        # different weights -> different lineage: a resume must never mix
        # partitions produced by lexicon weights with artifact-loaded ones
        cfg["artifact_dir"] = str(artifact_dir)
    ch = mf.config_hash(cfg)
    tables = ("triples", "edges", "nodes")
    out = {t: str(Path(out_dir) / t) for t in tables}

    # one writer at a time: a second job's clearing pass below would remove
    # the files of partitions this one has not published yet
    with mf.writer_lock(out_dir):
        found = {t: {k: m for k, m in (mf.intact_manifests(out[t]) if resume else {}).items()
                     if m.get("config_hash") == ch} for t in tables}
        done_by = {t: set(found[t]) for t in tables}
        # a graph is built from its partition's triples, so it stands only
        # while they do and are the ones it was built from: every partition
        # this run re-tags gets a new graph, and so does one whose triples
        # manifest differs from the one its edges manifest records
        done = done_by["graph"] = {
            k for k in done_by["triples"] & done_by["edges"] & done_by["nodes"]
            if found["edges"][k]["inputs"].get("triples") == mf.files_digest(found["triples"][k])}
        todo = sorted(set(range(p)) - done)
        if not todo:
            return {"skipped": True, "partitions_done": sorted(done)}
        # a kill after the triples manifests are published leaves the graph
        # missing: the resume then skips the expensive tagging stage entirely
        # and rebuilds only the graph from the written triples
        retag = [part for part in todo if part not in done_by["triples"]]

        # crash hygiene: a killed run may have flushed partition files WITHOUT
        # publishing their manifests, and a config change reuses partition
        # paths with stale contents — either way the new files would land
        # BESIDE the orphans and duplicate rows in the read-back view
        # (out-of-range stale dirs double-count too: a previous
        # num_partitions=8 run's part=4..7 holds the same conversations a
        # num_partitions=4 rerun hashes into part=0..3). Invariant after this
        # pass: every partition dir present under out_dir holds a complete
        # SAME-CONFIG manifest, for an edges or nodes dir in the triples and
        # both graph tables — anything else (orphans of a dead run,
        # any-config stale dirs, out-of-range parts, half a graph, the graph
        # of re-tagged triples) is cleared; done partitions are never touched.
        for t in tables:
            root = Path(out[t])
            if not root.exists():
                continue
            keep = done_by["triples" if t == "triples" else "graph"]
            for pdir in root.glob("part=*"):
                try:
                    part = int(pdir.name.split("=", 1)[1])
                except ValueError:
                    part = -1
                if part not in keep:
                    if pdir.is_dir() and not pdir.is_symlink():
                        shutil.rmtree(pdir)
                    else:  # stray file / dangling or linked entry: heal, not crash
                        pdir.unlink()

        rows = dict.fromkeys(tables, 0)
        if retag:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            ds = read_transcripts(input_path, override_num_blocks=2 * cpus)
            skip = set(range(p)) - set(retag)
            if skip:
                ds = ds.map_batches(_drop_done_parts(p, skip), batch_format="pyarrow")
            triples = fused_linked_triples(ds, batch_size=tag_batch_size,
                                           artifact_dir=artifact_dir)
            triples.write_datasink(TriplesSink(out["triples"], p))
            if stats_out is not None:
                stats_out.append(("triples", triples.stats()))
            rows["triples"] = sum(mf.write_manifest(out["triples"], part, ch, inputs=cfg)["rows"]
                                  for part in retag)

        # edges and nodes are keyed by (part, ...): each partition's are built
        # from its own directory, so only the partitions being rebuilt are read
        # each triple adds 1 to its edge's weight: Σ weight is the rows its
        # triples manifest recorded when they were published
        recorded = mf.intact_manifests(out["triples"])
        built, graph_rows = _build_graph([out["triples"]], edge_partials, out, todo, cfg,
                                         {k: recorded[k]["rows"] for k in todo},
                                         {k: mf.files_digest(recorded[k]) for k in todo})
        rows.update(graph_rows)
        if stats_out is not None:
            stats_out.append(("edges", built.stats()))
        return {"skipped": False, "partitions_done": sorted(done), "partitions_run": todo,
                "rows": rows}


def _num_partitions(run_dirs: list[str]) -> int:
    """The one ``num_partitions`` P every run records, each run holding an
    intact edges manifest (``mf.intact_manifests``) for every partition
    0..P-1; raise otherwise: a per-partition merge of runs of different P,
    or of a partition that lost or gained files, would be wrong."""
    found = {d: mf.intact_manifests(f"{d}/edges") for d in run_dirs}
    recorded = {d: {m["inputs"].get("num_partitions") for m in ms.values()}
                for d, ms in found.items()}
    ps = set().union(*recorded.values())
    if len(ps) != 1 or None in ps:
        raise ValueError(
            "merge_kg_runs: runs must share one num_partitions recorded in their "
            f"intact edges manifests; found {recorded}"
        )
    p = ps.pop()
    missing = {d: sorted(set(range(p)) - ms.keys()) for d, ms in found.items()}
    missing = {d: parts for d, parts in missing.items() if parts}
    if missing:
        raise ValueError(
            f"merge_kg_runs: every run needs an intact edges manifest for each of "
            f"its num_partitions={p} partitions; missing or damaged: {missing}"
        )
    return p


def _recorded_triples(run: str, gone: list[str]) -> list[str]:
    """The triples directories that hold ``run``'s conversations: its own
    triples/, or for a merged view, which has none, those of the runs its
    edges manifests record in ``merged_from``, expanded the same way. A run
    with neither, whose triples are gone, is appended to ``gone``."""
    if Path(run, "triples").exists():
        return [f"{run}/triples"]
    merged = sorted({r for m in mf.intact_manifests(f"{run}/edges").values()
                     for r in m["inputs"].get("merged_from", [])})
    if not merged:
        gone.append(run)
    return [t for r in merged for t in _recorded_triples(r, gone)]


def _assert_disjoint_runs(run_dirs: list[str], p: int) -> None:
    """Raise if two runs share a conversation: merged edge weights would
    double-count. Each run is checked through its triples, a merged view
    through those of the runs it records (``_recorded_triples``), so a
    run merged again beside a view that holds it is caught. The runs share
    ``p``, so a conversation lives in the same ``part=k`` of every run;
    one task per partition reads the triples ``conv_id`` column there, one
    file at a time, and raises on any conversation seen in >= 2 of them,
    naming at most 5. A run whose triples are gone (a pruned fact log) is
    left out of the check with a warning: the merge itself reads only
    edges/."""
    import warnings

    gone: list[str] = []
    checked = [t for d in run_dirs for t in _recorded_triples(d, gone)]
    for d in gone:
        warnings.warn(
            f"merge_kg_runs: {d!r} has no triples/ directory and records no merged "
            "runs (a pruned fact log) — skipping its exact conv_id overlap check",
            stacklevel=2,
        )
    if len(checked) < 2:
        return

    def overlaps(part: int) -> list[str]:
        runs_of = Counter()
        for base in checked:
            runs_of.update({c for f in _part_files(base, part) for c in pc.unique(
                pq.read_table(f, columns=["conv_id"]).column("conv_id")).to_pylist()})
        return sorted(c for c, n in runs_of.items() if n > 1)[:5]

    sample = [c for bad in _per_partition(list(range(p)), overlaps).results for c in bad][:5]
    if sample:
        raise ValueError(
            "merge_kg_runs: delta runs overlap — conversations present in "
            f">=2 runs (sample: {sample}); merging would double-count edge weights"
        )


def merge_kg_runs(run_dirs: list[str], out_dir: str) -> dict:
    """Incremental KG maintenance: merge the AGGREGATED graph views of
    several delta runs (disjoint conversation sets — e.g. daily transcript
    drops each processed by ``run_kg_job``) into one edges/nodes view
    WITHOUT re-running extraction.

    Accepted inputs are finished runs of ``run_kg_job`` and merged views:
    each run records one shared ``num_partitions`` P and holds an intact
    edges manifest for every partition 0..P-1 (``_num_partitions``, by
    the rule a resume uses). Disjointness has one rule: no conversation
    may appear in the triples of two runs, a merged view's being those of
    the runs it records (``_assert_disjoint_runs``, exact, column-pruned,
    one task per partition); a run whose triples are gone is left out of
    it with a warning. Any violation raises before anything is written,
    and the writing holds ``out_dir``'s writer lock, as a job does.

    Edge rows are aggregates keyed (part, subj_id, pred, obj_id) with
    mergeable stats (weight = sum, canon/type = min), so the merge of
    partition k folds the runs' ``edges/part=k`` files one at a time with
    ``combine_edges``, as ``run_kg_job`` folds its triples files
    (``_fold_edges``): it holds O(distinct edges), never O(triples). The
    same task then derives the partition's nodes from the merged edges it
    holds (each triple contributes 1 to each endpoint, same identity
    ``run_kg_job`` uses): the job's graph step, ``_build_graph``, which
    then publishes both tables' manifests, so a merged view can itself be
    merged. Returns the rows each table published and the runs' triples
    dirs. Triples stay where each delta wrote them: they are an
    append-only fact log partitioned by hash(conv_id), and
    conversation-disjoint deltas never produce the same triple twice, so
    their union needs no rewrite.

    ``out_dir`` must not already hold edges/ or nodes/ partitions: merging
    into a previous merge's directory would silently mix two views, so a
    non-empty target raises. An input run is such a target too (its
    edges/ is never empty). To redo a merge, delete its out_dir first.

    This merged-view-equals-one-shot-run identity is pinned by
    tests/test_pipeline_ray.py::test_kg_incremental_merge."""
    # duplicate run dirs are the cheapest-to-catch double-count (and would
    # dodge the exact check entirely when their triples/ were pruned)
    seen_paths: set[str] = set()
    for d in run_dirs:
        rp = str(Path(d).resolve())
        if rp in seen_paths:
            raise ValueError(f"merge_kg_runs: {d!r} appears twice in run_dirs")
        seen_paths.add(rp)
    # every check runs before anything is written
    out = {t: str(Path(out_dir) / t) for t in ("edges", "nodes")}
    _refuse_written(out)
    p = _num_partitions(run_dirs)
    _assert_disjoint_runs(run_dirs, p)
    cfg = {"v": 1, "num_partitions": p, "merged_from": sorted(seen_paths)}
    with mf.writer_lock(out_dir):
        _refuse_written(out)  # again: another writer may have written since
        _, rows = _build_graph([f"{d}/edges" for d in run_dirs], None, out, list(range(p)),
                               cfg)
    return {**rows, "triples_dirs": [f"{d}/triples" for d in run_dirs]}


def _refuse_written(out: dict[str, str]) -> None:
    """Raise ``FileExistsError`` if the merge's edges/ or nodes/ holds anything."""
    for tdir in map(Path, out.values()):
        if tdir.exists() and any(tdir.iterdir()):
            raise FileExistsError(
                f"merge_kg_runs: {tdir} already contains output — merging "
                "into it would mix two views. Merge into a fresh out_dir."
            )


def _main() -> None:
    """CLI driver — `ray job submit -- python -m \
    lingvo__postagger_ner_ru_dnn_ray.pipelines.kg --input DIR --out DIR`.
    Owns its Ray session (guarded); library callers never init Ray."""
    import argparse
    import json

    # a flag not given is left out, so run_kg_job's own default applies
    parser = argparse.ArgumentParser(description="KG construction job",
                                     argument_default=argparse.SUPPRESS)
    parser.add_argument("--input", required=True, help="transcript Parquet dir")
    parser.add_argument("--out", required=True, help="output dir (triples/edges/nodes)")
    parser.add_argument("--partitions", type=int, dest="num_partitions")
    parser.add_argument("--no-resume", action="store_false", dest="resume")
    parser.add_argument("--batch-size", type=int, dest="tag_batch_size")
    parser.add_argument("--num-cpus", type=int)
    kw = vars(parser.parse_args())
    input_path, out_dir, num_cpus = kw.pop("input"), kw.pop("out"), kw.pop("num_cpus", None)

    import ray as _ray

    if not _ray.is_initialized():
        _ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    res = run_kg_job(input_path, out_dir, **kw)
    print(json.dumps(res))
    _ray.shutdown()


if __name__ == "__main__":
    _main()
