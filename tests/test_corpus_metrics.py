"""CoNLL corpus source + distributed F-score metric + debug formatter tests
(SURVEY.md §2.1 corpus reader, §2.5 metrics, §2.6 split)."""
import pyarrow as pa
import pytest
import ray.data

from lingvo__postagger_ner_ru_dnn_ray.functions.format import tagged_lines, validation_lines
from lingvo__postagger_ner_ru_dnn_ray.functions.metrics import seq_fscore, triple_prf
from lingvo__postagger_ner_ru_dnn_ray.sources.conll import (
    build_vocab_table,
    filter_too_long,
    parse_conll_text,
    read_conll,
    train_valid_split,
)

CONLL = """Вася\tB-PER
Козлов\tI-PER
работает\tO

в\tO
Москве B-LOC
"""


def test_parse_conll_text():
    sents = parse_conll_text(CONLL)
    assert sents == [
        (["Вася", "Козлов", "работает"], ["B-PER", "I-PER", "O"]),
        (["в", "Москве"], ["O", "B-LOC"]),
    ]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("conll")
    for i in range(3):
        (d / f"shard{i}.txt").write_text(CONLL, encoding="utf-8")
    return str(d)


def test_read_conll_distributed(ray_session, corpus_dir):
    ds = read_conll(corpus_dir)
    rows = ds.take_all()
    assert len(rows) == 6  # 2 sentences × 3 shards
    assert sorted(len(r["src_tokens"]) for r in rows) == [2, 2, 2, 3, 3, 3]


def test_filter_too_long(ray_session, corpus_dir):
    ds = read_conll(corpus_dir)
    kept = filter_too_long(ds, max_len=2, truncate=False)
    assert kept.count() == 3
    trunc = filter_too_long(ds, max_len=2, truncate=True)
    assert all(len(r["src_tokens"]) <= 2 for r in trunc.take_all())


def test_train_valid_split(ray_session, corpus_dir):
    ds = read_conll(corpus_dir)
    tr, va = train_valid_split(ds, valid_fraction=0.34)
    assert tr.count() + va.count() == 6
    assert va.count() >= 1


def test_build_vocab_table(ray_session, corpus_dir):
    tbl = build_vocab_table(read_conll(corpus_dir), vocab_size=6)
    assert tbl.num_rows == 3  # vocab_size - 3 reserved
    assert tbl.column("id").to_pylist() == [3, 4, 5]
    # all tokens appear 3× (3 shards): ties broken by token string
    assert tbl.column("token").to_pylist() == sorted(tbl.column("token").to_pylist())


def test_seq_fscore(ray_session):
    ds = ray.data.from_arrow(
        pa.table(
            {
                "ref": [["B-PER", "O", "B-LOC"], ["O", "O"]],
                "hyp": [["B-PER", "O", "O"], ["O", "B-LOC"]],
            }
        )
    )
    df = seq_fscore(ds).set_index("label")
    # B-PER: hyp 1 ref 1 match 1
    assert df.loc["B-PER", "f1"] == 1.0
    # B-LOC: hyp 1 ref 1 match 0
    assert df.loc["B-LOC", "f1"] == 0.0
    # 'all' excludes O: hyp 2 ref 2 match 1 -> P=R=0.5
    assert df.loc["all", "precision"] == 0.5
    assert df.loc["all", "recall"] == 0.5


def test_triple_prf():
    import pandas as pd

    got = pd.DataFrame({"s": ["a", "b"], "o": ["x", "y"]})
    want = pd.DataFrame({"s": ["a", "c"], "o": ["x", "z"]})
    m = triple_prf(got, want, ["s", "o"])
    assert m["precision"] == 0.5 and m["recall"] == 0.5


def test_length_histogram(ray_session, corpus_dir):
    from lingvo__postagger_ner_ru_dnn_ray.functions.metrics import length_histogram

    ds = read_conll(corpus_dir)
    df = length_histogram(ds, "src_tokens", bucket=3)
    # sentences of len 2 and 3 -> buckets 0 (len 2) and 1 (len 3)
    assert df["n"].sum() == 6
    assert set(df["bucket"]) == {0, 1}


def test_tagger_dict_ratio(ray_session):
    from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import taggers
    from lingvo__postagger_ner_ru_dnn_ray.stages.tag import _model_token_cached
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text

    sents = tokenize_text("Вася Козлов посетил Москву.")
    pos_model, ner_model = taggers()
    # SeqLabel.cs:194-216 WordsInDictRatio per sentence, over each model's tokens
    pos_ratio = pos_model.words_in_dict_ratio(
        [[_model_token_cached(w.value, w.input_type, 4) for w in ws] for ws in sents])
    ner_ratio = ner_model.words_in_dict_ratio(
        [[_model_token_cached(w.value, w.input_type, 10000) for w in ws] for ws in sents])
    assert len(pos_ratio) == len(sents)
    r = ner_ratio[0]
    assert 0.0 <= r <= 1.0


def test_tagged_lines():
    s = tagged_lines(["Вася", "работает", "."], ["B-PER", "O", "O"])
    lines = s.splitlines()
    assert lines[0].startswith("Вася")
    assert lines[1].startswith("B-PER")
    assert "-" in lines[1]  # 'O' renders as '-'


def test_validation_lines():
    s = validation_lines(["a", "b"], ["O", "B-LOC"], ["O", "O"])
    assert s == "src: a b\nref: O B-LOC\nhyp: O O\n"
