"""Oracle correctness gate.

``expected_tables`` runs the package's single-process oracle
(``pipelines.oracle.oracle_tables``) on the workload input; ``mismatches``
compares a job's written output with it:

* triples as multisets (every column but the hive ``part``);
* edges summed over ``part`` per (subj_id, pred, obj_id);
* nodes summed over ``part`` per entity_id.
"""
from __future__ import annotations

import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

EDGE_KEYS = ["subj_id", "pred", "obj_id"]
EDGE_AGG = [("weight", "sum"), ("subj_type", "min"), ("obj_type", "min"),
            ("subj_canon", "min"), ("obj_canon", "min")]
NODE_AGG = [("n_mentions", "sum"), ("canonical", "min"), ("type", "min")]


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _combine(t: pa.Table, keys: list[str], aggs: list[tuple[str, str]]) -> pa.Table:
    g = t.group_by(keys).aggregate(aggs)
    cols = {k: g.column(k) for k in keys} | {c: g.column(f"{c}_{fn}") for c, fn in aggs}
    return _sorted(pa.table(cols))


def canonical(triples: pa.Table, edges: pa.Table, nodes: pa.Table) -> dict[str, pa.Table]:
    return {
        "triples": _sorted(triples),
        "edges": _combine(edges, EDGE_KEYS, EDGE_AGG),
        "nodes": _combine(nodes, ["entity_id"], NODE_AGG),
    }


def expected_tables(input_dir: str) -> tuple[dict[str, pa.Table], float]:
    """Canonical oracle tables for the transcripts under ``input_dir``, and
    the oracle's own wall seconds (the single-process baseline)."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables

    transcripts = pq.read_table(input_dir)
    t0 = time.perf_counter()
    o = oracle_tables(transcripts)
    baseline_s = time.perf_counter() - t0
    return canonical(o["triples"], o["edges"], o["nodes"]), baseline_s


def _read_table(path: Path, like: pa.Table) -> pa.Table:
    t = pq.read_table(path)
    return t.select(like.column_names).cast(like.schema)


def mismatches(expected: dict[str, pa.Table], out_dir: str) -> list[str]:
    """Names of the tables under ``out_dir`` that differ from the oracle."""
    out = Path(out_dir)
    got = {name: _read_table(out / name, expected[name]) for name in expected}
    got = canonical(got["triples"], got["edges"], got["nodes"])
    return [name for name in expected if not got[name].equals(expected[name])]
