"""Single-process oracle: the per-turn kernel (stages/kernel.py) run ONCE
over the whole transcripts table in plain Python (no Ray, no memo).

This is FIXTURES.md F5's golden generator: the distributed pipeline at any
parallelism must produce exactly these tables (compared order-insensitively)
— the test that the job's sentence memo, its batching, partitioning and Ray
add nothing to the kernel. The reference's analogous oracle is its
single-threaded console path (ConsoleDemo/Program.cs:243-315).
"""
from __future__ import annotations

import pyarrow as pa

from ..stages.conflate import edge_partials, node_partials
from ..stages.kernel import Kernel, check_turn_keys, linked_table, sentence_table, turn_keys
from ..stages.mentions import mentions_batch


def oracle_tables(transcripts: pa.Table) -> dict[str, pa.Table]:
    """sentences, mentions, triples, edges, nodes from a transcripts table;
    a key the job refuses raises, as in the job (``check_turn_keys``)."""
    check_turn_keys(transcripts)
    i = transcripts.schema.get_field_index("conv_id")
    if pa.types.is_dictionary(transcripts.schema[i].type):  # sort_by cannot order one
        transcripts = transcripts.set_column(i, "conv_id", transcripts[i].cast(pa.string()))
    transcripts = transcripts.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    k = Kernel()
    keys = turn_keys(transcripts)
    tagged = list(k.tag_texts(transcripts.column("text").to_pylist()))
    sents = sentence_table(keys, tagged)
    mentions = mentions_batch(sents)
    triples = linked_table([(c, t, si) + row for (c, t, _), ss in zip(keys, tagged)
                            for si, s in enumerate(ss) for row in k.link(s)])

    # final aggregates: the per-batch partial over the WHOLE table is exact
    edges = edge_partials(triples)
    edges = edges.sort_by([(c, "ascending") for c in ("subj_id", "pred", "obj_id")])
    nodes = node_partials(triples)
    nodes = nodes.sort_by([("entity_id", "ascending")])
    return {
        "sentences": sents,
        "mentions": mentions,
        "triples": triples,
        "edges": edges,
        "nodes": nodes,
    }
