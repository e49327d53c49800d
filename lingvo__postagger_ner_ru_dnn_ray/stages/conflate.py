"""Conflation / canonicalization of linked triples into edge and node tables.

    edges: (subj_id, pred, obj_id)        weight = count
    nodes: entity_id                      n_mentions = count

Canonical forms and types resolve deterministically via ``min`` (not
"first seen", which would depend on block arrival order).

The kernels are plain Arrow hash aggregations (``Table.group_by``):
``edge_partials`` (triples → edges), ``node_partials`` (triples → nodes),
``edge_node_partials`` (edges → nodes: each triple contributes exactly 1 to
its subject and to its object, so the per-endpoint sum of edge weights is
the node's mention count) and ``combine_edges`` (edges → edges). Applied
to ALL rows of a key, each is the final aggregate: ``pipelines.kg`` takes
``edge_partials`` of each triples file of a hive partition and folds them
with ``combine_edges``, one task per partition, because every key carries
its partition and ``triples/part=k/`` holds every triple of partition k.

``conflate_edges`` and ``nodes_from_edges`` are the Dataset-level forms for
streams that are not partitioned by key: the kernel runs per batch as a
partial combine (one row per key per batch, so a hot key contributes one
row per batch, not one per mention), then ``_salted_final_agg`` routes
the partials through one hash exchange for the final combine. Neither the
job nor the driver calls them; they remain only for perfbench's traced
probe, which imports them.
"""
from __future__ import annotations

import pyarrow as pa

from ray.data import Dataset

EDGE_KEYS = ["subj_id", "pred", "obj_id"]
EDGE_MINS = ["subj_type", "obj_type", "subj_canon", "obj_canon"]
NODE_MINS = ["canonical", "type"]

_N_SALTS = 512  # final-combine hash partitions (≈16× cluster cores)


def arrow_agg(t: pa.Table, keys: list[str], sums: list[str], mins: list[str]) -> pa.Table:
    """One row per key (null keys form a group): ``sums`` summed, ``mins``
    min'd. Columns: keys + sums + mins."""
    g = t.group_by(keys).aggregate([(c, "sum") for c in sums] + [(c, "min") for c in mins])
    return g.rename_columns(keys + sums + mins)


def edge_partials(batch: pa.Table, extra_keys: list[str] | None = None) -> pa.Table:
    keys = (extra_keys or []) + EDGE_KEYS
    t = batch.select(keys + EDGE_MINS)
    g = t.group_by(keys).aggregate([([], "count_all")] + [(c, "min") for c in EDGE_MINS])
    return g.rename_columns(keys + ["weight"] + EDGE_MINS)


def combine_edges(edges: pa.Table) -> pa.Table:
    """Edge rows of several files or runs → one row per edge key."""
    return arrow_agg(edges, EDGE_KEYS, ["weight"], EDGE_MINS)


def node_partials(batch: pa.Table) -> pa.Table:
    """Each triple contributes its two endpoints."""
    parts = []
    for side in ("subj", "obj"):
        parts.append(
            pa.Table.from_arrays(
                [
                    batch.column(f"{side}_id"),
                    batch.column(f"{side}_canon"),
                    batch.column(f"{side}_type"),
                ],
                names=["entity_id", "canonical", "type"],
            )
        )
    t = pa.concat_tables(parts)
    g = t.group_by(["entity_id"]).aggregate(
        [("canonical", "min"), ("type", "min"), ([], "count_all")]
    )
    return g.rename_columns(["entity_id", "canonical", "type", "n_mentions"])


def edge_node_partials(edges: pa.Table, extra_keys: list[str] | None = None) -> pa.Table:
    """Edges → nodes: each endpoint gets its edges' weights summed."""
    extra = extra_keys or []
    parts = [
        pa.Table.from_arrays(
            [edges.column(k) for k in extra]
            + [edges.column(f"{side}_id"), edges.column(f"{side}_canon"),
               edges.column(f"{side}_type"), edges.column("weight")],
            names=extra + ["entity_id", "canonical", "type", "n_mentions"],
        )
        for side in ("subj", "obj")
    ]
    return arrow_agg(pa.concat_tables(parts), extra + ["entity_id"], ["n_mentions"], NODE_MINS)


def _salted_final_agg(
    partial: Dataset, keys: list[str], sums: list[str], mins: list[str]
) -> Dataset:
    """Final combine of partial-aggregate rows via salted hash partitions:
    Ray's sort-based ``groupby().aggregate()`` pays per-group overhead at
    tens of thousands of distinct keys (measured 15-40 s on the edge
    table); hashing rows into _N_SALTS bounded partitions and running ONE
    ``arrow_agg`` per partition is O(partitions) dispatch.
    Row→partition uses pd.util.hash_pandas_object (fixed hash key —
    deterministic across processes), so all partials of a key co-locate."""
    import pandas as pd

    def add_salt(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("salt", pa.array([], pa.int64()))
        h = pd.util.hash_pandas_object(
            batch.select(keys).to_pandas(), index=False
        ).to_numpy()
        return batch.append_column("salt", pa.array((h % _N_SALTS).astype("int64")))

    return (
        partial.map_batches(add_salt, batch_format="pyarrow")
        .groupby("salt")
        .map_groups(lambda g: arrow_agg(g, keys, sums, mins), batch_format="pyarrow")
    )


def conflate_edges(triples: Dataset, extra_keys: list[str] | None = None) -> Dataset:
    keys = (extra_keys or []) + EDGE_KEYS
    partial = triples.map_batches(
        edge_partials, batch_format="pyarrow", fn_kwargs={"extra_keys": extra_keys}
    )
    return _salted_final_agg(partial, keys, sums=["weight"], mins=EDGE_MINS)


def nodes_from_edges(edges: Dataset, extra_keys: list[str] | None = None) -> Dataset:
    """Node table derived from the already-aggregated edge table — the
    same result as counting endpoints over the raw triples, at a fraction
    of the input size."""
    partial = edges.map_batches(
        edge_node_partials, batch_format="pyarrow", fn_kwargs={"extra_keys": extra_keys}
    )
    keys = (extra_keys or []) + ["entity_id"]
    return _salted_final_agg(partial, keys, sums=["n_mentions"], mins=NODE_MINS)
