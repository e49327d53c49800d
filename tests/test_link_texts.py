"""The job's kernel path tags for the triples: ``Kernel.link_texts`` runs NER
on every sentence and the POS model only on sentences where a triple can
form, i.e. where some consecutive pair of NER mentions has a token between
them. These tests pin its edge cases and check it against ``Kernel.link``
over full tagging (``tag_texts``), including which sentences reach the POS
model.

The sentences POS must see are derived here without the kernel's
predicate: a sentence can form a triple iff extraction with every token
tagged as a verb returns one."""
import json
import os

import pyarrow as pa
import pytest

from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table
from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel, _sent_key
from lingvo__postagger_ner_ru_dnn_ray.stages.tag import _model_token_cached
from lingvo__postagger_ner_ru_dnn_ray.stages.triples import extract_sentence_triples
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import split_texts

_TRIPLE_AT_218 = "штаб " * 218 + "Иван Смирнов купил Газпром "
_CHUNKED = _TRIPLE_AT_218 + "штаб " * 27 + "."  # 250 tokens
_TRUNCATED = _TRIPLE_AT_218 + "штаб " * 7 + "."  # 230 tokens

EDGE_TURNS = pa.table({
    "conv_id": ["e0", "e0", "e0", "e1", "e1"],
    "turn_idx": pa.array([0, 1, 2, 0, 1], pa.int32()),
    "text": [
        # two adjacent mentions: no gap, no POS, no triple
        "Сергей Козлов Иван Смирнов купил.",
        # gaps but no verb in them: POS runs, no triple
        "Сергей Козлов и Иван Смирнов в Москве.",
        # three mentions, only the second pair has a gap
        "Сергей Козлов Иван Смирнов купил «Газпром».",
        # over 242 tokens: Predict_Full chunks at 220, between the subject
        # and the predicate
        _CHUNKED,
        # 221-242 tokens: Predict_Full truncates at 220, so the object (token
        # 221) gets no NER label and the sentence has one mention
        _TRUNCATED,
    ],
})

EDGE_ROWS = [
    {"conv_id": "e0", "turn_idx": 2, "sent_idx": 0, "triple_idx": 0,
     "subj": "Иван Смирнов", "subj_type": "PER", "pred": "купил",
     "obj": "Газпром", "obj_type": "ORG",
     "subj_start": 14, "subj_len": 12, "obj_start": 34, "obj_len": 7,
     "subj_id": "P0001", "subj_canon": "Иван Смирнов",
     "obj_id": "O0006", "obj_canon": "Газпром"},
    {"conv_id": "e1", "turn_idx": 0, "sent_idx": 0, "triple_idx": 0,
     "subj": "Иван Смирнов", "subj_type": "PER", "pred": "купил",
     "obj": "Газпром", "obj_type": "ORG",
     "subj_start": 1090, "subj_len": 12, "obj_start": 1109, "obj_len": 7,
     "subj_id": "P0001", "subj_canon": "Иван Смирнов",
     "obj_id": "O0006", "obj_canon": "Газпром"},
]


@pytest.fixture
def pos_inputs(monkeypatch):
    """The id sentences every POS ``predict_ids`` call receives, in call
    order (the lexicon models are process singletons, so this sees every
    Kernel's calls)."""
    from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import taggers

    pos_model = taggers()[0]
    seen: list[list[int]] = []
    real = pos_model.predict_ids

    def spy(sents):
        seen.extend(map(list, sents))
        return real(sents)

    monkeypatch.setattr(pos_model, "predict_ids", spy)
    return seen


def _can_form(s) -> bool:
    all_verbs = ["Verb"] * len(s.values)
    return bool(extract_sentence_triples(s.values, s.starts, s.lens, all_verbs, s.ner))


def _pos_tokens(s) -> list[int]:
    """The POS vocabulary ids of a tagged sentence's model-token strings."""
    from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import taggers

    return taggers()[0].src_vocab.ids(
        _model_token_cached(v, it, 4) for v, it in zip(s.values, s.input_types))


def _pos_tokens_once(texts: list[str], tagged: list) -> list[list[int]]:
    """``_pos_tokens`` of the sentences of ``texts`` that can form a triple,
    given their ``tag_texts`` sentences ``tagged``, once per memo key
    (``_sent_key``): ``link_texts`` forwards each missed sentence once."""
    keys = [_sent_key(tk.ub, s) for tk, sents in split_texts(texts, {}) for s in sents
            if tk.tokenize(s)]
    first = {}
    for key, s in zip(keys, tagged, strict=True):
        first.setdefault(key, s)
    return [_pos_tokens(s) for s in first.values() if _can_form(s)]


def _fixture_sentences() -> list[list]:
    from lingvo__postagger_ner_ru_dnn_ray.textkit.features import INPUT_TYPE_NAMES
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import Word

    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures", "reference_input_tokens.json")
    type_id = {name: i for i, name in enumerate(INPUT_TYPE_NAMES)}
    return [[Word(w["v"], w["s"], w["l"], type_id[w["t"]], w["x"]) for w in s]
            for line in json.load(open(fx, encoding="utf-8"))
            for s in line["simple"] + [line["console"]]]


def test_edge_cases_pinned(pos_inputs):
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage

    assert KgStage()(EDGE_TURNS).to_pylist() == EDGE_ROWS
    # the gap-without-verb, three-mention and chunked sentences, in any order
    assert sorted(len(s) for s in pos_inputs) == [8, 9, 250]


def test_edge_cases_stage_equals_oracle(pos_inputs):
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage

    want = oracle_tables(EDGE_TURNS)
    tagged = Kernel().tag_texts(EDGE_TURNS["text"].to_pylist())
    want_pos = sorted(tuple(_pos_tokens(s)) for ss in tagged for s in ss if _can_form(s))
    del pos_inputs[:]
    assert KgStage()(EDGE_TURNS).to_pylist() == want["triples"].to_pylist()
    assert sorted(map(tuple, pos_inputs)) == want_pos


def test_pos_forward_only_on_gap_sentences(pos_inputs):
    """237 distinct sentences of the table's 611 reach POS, each once (a
    sentence is keyed from its first word, so one after a newline shares
    its key with the same sentence at a text's start); an appended
    sentence of two adjacent mentions (no synthetic turn has one) does
    not."""
    texts = synth_transcripts_table(300, seed=7).column("text").to_pylist()
    adjacent = EDGE_TURNS["text"][0].as_py()
    k = Kernel()
    tagged = [s for ss in k.tag_texts(texts) for s in ss]
    del pos_inputs[:]
    rows = k.link_texts(texts + [adjacent])
    assert sum(map(len, rows)) == len(tagged) + 1 == 612
    assert pos_inputs == _pos_tokens_once(texts, tagged)
    assert len(pos_inputs) == 237


def test_link_equals_link_over_full_tagging(pos_inputs):
    """On the synthetic table with the edge turns appended, and on the
    fixture's tokenized reference sentences: ``link_texts`` and
    ``_link_sentences`` rows equal ``link`` over ``tag_texts`` and
    ``tag_sentences``, and POS saw exactly the sentences that can form a
    triple, each sentence of ``link_texts`` once."""
    k = Kernel()
    texts = (synth_transcripts_table(300, seed=7).column("text").to_pylist()
             + EDGE_TURNS["text"].to_pylist())
    words = _fixture_sentences()
    full_texts = list(k.tag_texts(texts))
    full_words = k.tag_sentences(words)
    del pos_inputs[:]

    assert k.link_texts(texts) == [[k.link(s) for s in ss] for ss in full_texts]
    assert pos_inputs == _pos_tokens_once(texts, [s for ss in full_texts for s in ss])
    del pos_inputs[:]
    assert k._link_sentences(words) == [k.link(s) for s in full_words]
    assert pos_inputs == [_pos_tokens(s) for s in full_words if _can_form(s)]
    assert len(pos_inputs) == 9
