"""The kernel's id path: each word maps to both models' vocabulary ids,
kept in the kernel's token memo with the word, the tagger deduplicates and forwards
sentences by their id tuples, and the job's stage runs each batch with the
cyclic collector paused. Each test checks the id path against the string
path it replaces (``_model_token_cached`` and ``predict_batch``)."""
import gc

import pyarrow as pa
import pytest
from test_link_texts import _fixture_sentences
from test_model import _mixed_batch

from lingvo__postagger_ner_ru_dnn_ray.model.artifact import save_artifact
from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import _iter_word_labels, taggers
from lingvo__postagger_ner_ru_dnn_ray.model.tagger import build_lexical_tagger
from lingvo__postagger_ner_ru_dnn_ray.model.vocab import UNK_ID
from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
from lingvo__postagger_ner_ru_dnn_ray.stages.tag import _model_token_cached
from lingvo__postagger_ner_ru_dnn_ray.textkit.features import (
    EX_INTEGER_NUMBER,
    IT_EMAIL,
    IT_NUM,
    IT_OTHER,
    IT_URL,
    POS_LABELS,
    to_model_token,
    to_model_token_str,
)
from lingvo__postagger_ner_ru_dnn_ray.textkit.resources import NUM_PLACEHOLDER, URL_PLACEHOLDER
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import Word, tokenize_texts


@pytest.fixture
def id_inputs(monkeypatch):
    """The id sentences each model's ``predict_ids`` receives, by model."""
    pos, ner = taggers()
    seen: dict[str, list[list[int]]] = {"pos": [], "ner": []}
    for name, model in (("pos", pos), ("ner", ner)):
        def spy(sents, real=model.predict_ids, name=name):
            seen[name].extend(map(list, sents))
            return real(sents)

        monkeypatch.setattr(model, "predict_ids", spy)
    return seen


# (value, input type, POS model token at mel 4, NER model token at mel 10000),
# derived by hand from ToPosTaggerToken: lower-invariant, ё→е, non-spacing
# marks dropped, then a fold longer than mel becomes "_" + its last mel chars
_EDGE_WORDS = [
    ("Иван", IT_OTHER, "иван", "иван"),                     # fold of exactly 4
    ("Павел", IT_OTHER, "_авел", "павел"),                  # fold of exactly 5
    ("Па\u0301вел", IT_OTHER, "_авел", "павел"),            # acute dropped: 6 units, fold 5
    ("Па\U0001D167вел", IT_OTHER, "_авел", "павел"),        # astral Mn dropped
    ("Фёдоров", IT_OTHER, "_оров", "федоров"),
    ("ФЁДОРОВ", IT_OTHER, "_оров", "федоров"),
    ("Ёж", IT_OTHER, "еж", "еж"),
    ("𝔘𝔫𝔦𝔳𝔢", IT_OTHER, "_𝔫𝔦𝔳𝔢", "𝔘𝔫𝔦𝔳𝔢"),           # astral letters stay
    ("_банк", IT_OTHER, "_банк", "_банк"),                  # value starts with "_"
    ("_Газпром", IT_OTHER, "_пром", "_газпром"),
    ("1999", IT_NUM, NUM_PLACEHOLDER, NUM_PLACEHOLDER),
    ("Павел", IT_NUM, NUM_PLACEHOLDER, NUM_PLACEHOLDER),
    ("http://Павел.рф", IT_URL, URL_PLACEHOLDER, URL_PLACEHOLDER),
    ("Ivan@Pavel.ru", IT_EMAIL, URL_PLACEHOLDER, URL_PLACEHOLDER),
    (NUM_PLACEHOLDER, IT_OTHER, NUM_PLACEHOLDER, NUM_PLACEHOLDER),
]


def test_id_map_equals_model_token_ids(id_inputs):
    """One kernel gives each word ``vocab.id(to_model_token(value,
    input_type, mel))`` for both models, and ``_labels`` equals
    ``predict_batch`` over ``_model_token_cached`` strings: on the reference
    sentences, on ``_mixed_batch()``, on the tokenized reference lines with
    every word retyped as Num, and on ``_EDGE_WORDS``. The
    same kernel sees a value under several input types, so ids keyed by
    value alone (or by value and the type it was first seen with) fail.
    Then the reference lines go through the kernel's own tokenizer
    (``tag_texts``) three times: the second pass stores each word's entry,
    with its ids, and the third reads every word's ids from the memo."""
    pos, ner = taggers()
    lines = [" ".join(w.value for w in ws) for ws in _fixture_sentences()]
    groups = [
        _fixture_sentences(),
        [[Word(t, 0, len(t), IT_OTHER, 0) for t in toks] for toks in _mixed_batch()],
        [[Word(w.value, w.start, w.length, IT_NUM, EX_INTEGER_NUMBER) for w in ws]
         for sents in tokenize_texts(lines) for ws in sents],
        [[Word(v, 0, len(v), it, 0) for v, it, _, _ in _EDGE_WORDS]],
    ]
    assert all(w.input_type == IT_NUM for ws in groups[2] for w in ws)
    # values the kernel sees typed otherwise first, then as Num
    assert len({w.value for ws in groups[0] for w in ws if w.input_type != IT_NUM}
               & {w.value for ws in groups[2] for w in ws}) > 100
    k = Kernel()
    for sents in groups:
        del id_inputs["pos"][:], id_inputs["ner"][:]
        k.tag_sentences(sents)
        for name, model in (("pos", pos), ("ner", ner)):
            mel = model.max_ending_length
            want = [[model.src_vocab.id(to_model_token(w.value, w.input_type, mel)) for w in ws]
                    for ws in sents]
            assert id_inputs[name] == want
            strings = [[_model_token_cached(w.value, w.input_type, mel) for w in ws]
                       for ws in sents]
            assert k._labels(model, k._word_ids(sents)) == model.predict_batch(strings)
    for _ in range(3):
        del id_inputs["pos"][:], id_inputs["ner"][:]
        tagged = [s for ss in k.tag_texts(lines) for s in ss]
        for name, model in (("pos", pos), ("ner", ner)):
            mel = model.max_ending_length
            want = [[model.src_vocab.id(to_model_token(v, it, mel))
                     for v, it in zip(s.values, s.input_types)] for s in tagged]
            assert id_inputs[name] == want
    entries = [e for e in k._tokens.values() if isinstance(e, tuple)]
    assert len(entries) > 100
    assert all(e[3] == k._model_ids(e[0], e[1]) for e in entries)


def test_model_token_edge_cases():
    """``to_model_token`` gives each of ``_EDGE_WORDS`` its hand-derived
    model tokens, so the id map, which equals their vocabulary ids, folds
    once and cuts the fold. The POS tokens of the 4-, 5- and 6-unit words
    and of "_банк" are in the POS vocabulary, so cutting the raw value
    instead of its fold, or dropping the "_", also changes their ids."""
    pos, ner = taggers()
    mels = pos.max_ending_length, ner.max_ending_length
    assert mels == (4, 10000)  # predict_pos.json:8-9, predict_ner.json:6-7
    for v, it, pos_t, ner_t in _EDGE_WORDS:
        assert tuple(to_model_token(v, it, mel) for mel in mels) == (pos_t, ner_t)
    assert UNK_ID not in pos.src_vocab.ids(["иван", "_авел", "_банк"])


def test_id_map_uses_each_models_ending_length(tmp_path):
    """A kernel loaded from artifacts cuts each word's model token at the
    ``max_ending_length`` its model carries: with a POS model built at
    ending length 3, ``_labels`` equals ``predict_batch`` over the mel-3
    model tokens, which label the fixture sentences with more than one
    class."""
    token_label: dict[str, str] = {}
    for w, label, _ner in _iter_word_labels():
        token_label.setdefault(to_model_token_str(w, 3), label)
    pos3 = build_lexical_tagger(token_label, POS_LABELS, max_ending_length=3, seed=42)
    save_artifact(pos3, tmp_path / "pos.npz")
    save_artifact(taggers()[1], tmp_path / "ner.npz")
    k = Kernel(str(tmp_path))
    assert k.pos_model.max_ending_length == 3
    sents = _fixture_sentences()
    want = k.pos_model.predict_batch(
        [[to_model_token(w.value, w.input_type, 3) for w in ws] for ws in sents])
    assert len({lab for labs in want for lab in labs}) > 1
    assert k._labels(k.pos_model, k._word_ids(sents)) == want


def test_out_of_vocabulary_variants_forward_once():
    """Two sentences that differ only in out-of-vocabulary tokens have one
    id tuple, so they go through one forward row set, and each gets the
    labels it gets alone."""
    _, ner = taggers()
    known = [t for t in ("иван", "смирнов", "купил", "газпром") if t in ner.src_vocab.word_to_index]
    assert len(known) == 4
    a, b = known + ["qqqzz1"], known + ["qqqzz2"]
    assert ner.src_vocab.ids(a) == ner.src_vocab.ids(b)
    alone = [ner.predict_batch([a])[0], ner.predict_batch([b])[0]]
    rows = []
    forward = ner._forward_logits
    ner.__dict__["_forward_logits"] = lambda ids: rows.append(ids.shape[0]) or forward(ids)
    try:
        both = ner.predict_batch([a, b])
    finally:
        ner.__dict__.pop("_forward_logits")
    assert rows == [1]
    assert both == alone


def test_stage_fn_pauses_the_collector_per_batch(monkeypatch):
    """``kg_stage_fn`` runs a batch with the cyclic collector paused and
    enables it again afterwards, also when the kernel raises."""
    from lingvo__postagger_ner_ru_dnn_ray.stages import fused

    stage = fused.KgStage()
    monkeypatch.setitem(fused._STAGES, None, stage)  # built: no gc.freeze() here
    batch = pa.table({"conv_id": ["c"], "turn_idx": pa.array([0], pa.int32()),
                      "text": ["Иван Смирнов купил Газпром."]})
    link_texts = stage.kernel.link_texts
    enabled = []

    def spy(texts):
        enabled.append(gc.isenabled())
        return link_texts(texts)

    monkeypatch.setattr(stage.kernel, "link_texts", spy)
    assert gc.isenabled()
    assert fused.kg_stage_fn(batch).num_rows == 1
    assert enabled == [False] and gc.isenabled()

    def boom(texts):
        enabled.append(gc.isenabled())
        raise RuntimeError("kernel failed")

    monkeypatch.setattr(stage.kernel, "link_texts", boom)
    with pytest.raises(RuntimeError, match="kernel failed"):
        fused.kg_stage_fn(batch)
    assert enabled == [False, False] and gc.isenabled()
