"""Pins of the per-turn kernel's output: digests of all five
``oracle_tables`` outputs on a seeded fixture, and literal triple rows for
turns that yield triples, checked on the oracle and on the job's stage.

The digest is sha256 over the table's schema and its rows as sorted JSON
lines, so it is independent of row order and the same in any process."""
import hashlib
import json

import pyarrow as pa
import pytest

from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table

# synth_transcripts_table(300, seed=7): table -> (rows, digest)
PINNED = {
    "sentences": (611, "64d0e8aebf7f6709a126be80d6d0b16dcb9217fa0f9fe279dfa1746857c825a9"),
    "mentions": (596, "9849ebe1d7796ca30aef452a5eed833c3a97920da755b012b45a33f56611b2d1"),
    "triples": (243, "59f2aa1413e39bba359e764a0ee497cb26adcf764c4accfaa3f898d73ddb23e1"),
    "edges": (214, "047a6709d13a69edad8d9174dc0a8e1dcbf95b62d5a0ec9cb87c952bfaeed457"),
    "nodes": (21, "159a144485d03b2781a01ea3db17c897a0c267a52a6e51134c27c8b83a75e59f"),
}

TURNS = pa.table({
    "conv_id": ["c0", "c1"],
    "turn_idx": pa.array([0, 3], pa.int32()),
    "role": ["user", "assistant"],
    "text": [
        "Иван Смирнов основал «Газпром».",
        "Гло́кая ку́здра встретил штаб, но штаб не встретил.\n"
        "Виктор Нечаев посетил Россию и направил приказ…",
    ],
})

# the triple rows of TURNS: the second turn's triple is in its second
# sentence, and its subject is not in the entity dictionary (NIL link)
TRIPLE_ROWS = [
    {"conv_id": "c0", "turn_idx": 0, "sent_idx": 0, "triple_idx": 0,
     "subj": "Иван Смирнов", "subj_type": "PER", "pred": "основал",
     "obj": "Газпром", "obj_type": "ORG",
     "subj_start": 0, "subj_len": 12, "obj_start": 22, "obj_len": 7,
     "subj_id": "P0001", "subj_canon": "Иван Смирнов",
     "obj_id": "O0006", "obj_canon": "Газпром"},
    {"conv_id": "c1", "turn_idx": 3, "sent_idx": 1, "triple_idx": 0,
     "subj": "Виктор Нечаев", "subj_type": "PER", "pred": "посетил",
     "obj": "Россию", "obj_type": "LOC",
     "subj_start": 52, "subj_len": 13, "obj_start": 74, "obj_len": 6,
     "subj_id": "NIL", "subj_canon": "виктор нечаев",
     "obj_id": "L0015", "obj_canon": "Россия"},
]


def digest(table: pa.Table) -> str:
    lines = sorted(json.dumps(r, sort_keys=True, ensure_ascii=False)
                   for r in table.to_pylist())
    return hashlib.sha256((str(table.schema) + "\n" + "\n".join(lines)).encode()).hexdigest()


@pytest.fixture(scope="module")
def oracle():
    return oracle_tables(synth_transcripts_table(300, seed=7))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_oracle_tables_digest(oracle, name):
    rows, want = PINNED[name]
    assert oracle[name].num_rows == rows
    assert digest(oracle[name]) == want


def test_oracle_triple_rows():
    assert oracle_tables(TURNS)["triples"].to_pylist() == TRIPLE_ROWS


def test_job_stage_triple_rows():
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage

    assert KgStage()(TURNS).to_pylist() == TRIPLE_ROWS
