"""Tagger model + vocab tests (SURVEY.md §2.2 rows 10-13, §2.3 row 1)."""
import hashlib
import pickle

import numpy as np

from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import (
    entity_dictionary,
    ner_token_label,
    pos_token_label,
    taggers,
)
from lingvo__postagger_ner_ru_dnn_ray.model.tagger import (
    MAX_PREDICT_SENT_LENGTH,
    SeqLabelModel,
    sinusoidal_pos_emb,
)
from lingvo__postagger_ner_ru_dnn_ray.model.vocab import BOS_ID, EOS_ID, UNK_ID, Vocab


def test_vocab_reserved_ids():
    v = Vocab(["a", "b"])
    assert v.id("</s>") == EOS_ID == 0
    assert v.id("<s>") == BOS_ID == 1
    assert v.id("<unk>") == UNK_ID == 2
    assert v.id("a") == 3 and v.id("b") == 4
    assert v.id("zzz") == UNK_ID


def test_tagger_reproduces_lexicon():
    pos, ner = taggers()
    for model, tl in ((pos, pos_token_label()), (ner, ner_token_label())):
        tokens = list(tl)
        labels = model.predict_batch([tokens])[0]
        assert labels == [tl[t] for t in tokens]


def test_tagger_unknown_token_default_label():
    pos, ner = taggers()
    assert pos.predict_batch([["_xyz9"]]) == [["Other"]]
    assert ner.predict_batch([["qqqq"]]) == [["O"]]


def test_long_sentence_chunking():
    # SeqLabel.Predict_Full (SeqLabel.cs:259-311): ≤10% overflow truncates
    # (excess tokens unlabeled), larger overflow chunks and labels all.
    _, ner = taggers()
    tok = list(ner_token_label())[0]
    lab = ner_token_label()[tok]

    n_trunc = MAX_PREDICT_SENT_LENGTH + 10  # 10 <= 22 -> truncate
    got = ner.predict_batch([[tok] * n_trunc])[0]
    assert len(got) == MAX_PREDICT_SENT_LENGTH and set(got) == {lab}

    n_chunk = MAX_PREDICT_SENT_LENGTH * 2 + 50  # > 10% -> chunked, all labeled
    got = ner.predict_batch([[tok] * n_chunk])[0]
    assert len(got) == n_chunk and set(got) == {lab}


def test_batched_equals_single():
    pos, _ = taggers()
    sents = [list(pos_token_label())[:7], list(pos_token_label())[7:12], ["_xyz9"]]
    batched = pos.predict_batch(sents)
    single = [pos.predict_batch([s])[0] for s in sents]
    assert batched == single


def test_predict_batch_padding_invariant():
    """A sentence's labels must not depend on batch composition: alone,
    next to a 200-token straggler, duplicated, or in a later batch — all
    identical. The forward runs exact-length chunks (tagger.py
    predict_batch/_forward_unique), so a straggler lands in a chunk of its
    own and nothing is padded; this pins that a batch's other sentences
    cannot change a sentence's labels."""
    pos, _ = taggers()
    vocab_toks = list(pos_token_label())
    short = vocab_toks[:5] + ["_unk_pad_x"]
    long = (vocab_toks * 40)[:200]

    alone = pos.predict_batch([short])[0]
    with_straggler = pos.predict_batch([long, short, short])
    assert with_straggler[1] == alone and with_straggler[2] == alone
    # replay (same worker, later batch)
    assert pos.predict_batch([short])[0] == alone
    # straggler second
    assert pos.predict_batch([short, long])[0] == alone


def test_predict_batch_is_pure():
    """``predict_batch`` changes nothing in the model, and a batch and its
    reversal get the same labels."""
    pos, _ = taggers()
    sents = _mixed_batch()
    before = pickle.dumps(vars(pos))
    ids = {k: id(v) for k, v in vars(pos).items()}
    labels = pos.predict_batch(sents)
    assert pos.predict_batch(sents[::-1]) == labels[::-1]
    assert pickle.dumps(vars(pos)) == before
    assert {k: id(v) for k, v in vars(pos).items()} == ids


def test_entity_dictionary_shape():
    rows = entity_dictionary()
    ids = [r["entity_id"] for r in rows]
    assert len(ids) == len(set(ids))
    assert all(r["type"] in ("PER", "ORG", "LOC") for r in rows)
    canons = {r["canonical"] for r in rows}
    assert "Виктор Нечаев" not in canons  # deliberate NIL entity


def test_artifact_roundtrip(tmp_path):
    """save_artifact -> load_artifact reproduces identical predictions
    (the .s2s save/load analogue, BaseSeq2SeqFramework.cs:172-228)."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import (
        load_artifact,
        save_artifact,
    )

    pos, _ = taggers()
    manifest = save_artifact(pos, tmp_path / "pos.npz")
    assert manifest == {
        "format": "npz-v1",
        "sha256": hashlib.sha256((tmp_path / "pos.npz").read_bytes()).hexdigest(),
    }
    loaded = load_artifact(tmp_path / "pos.npz")
    assert loaded.src_vocab.word_to_index == pos.src_vocab.word_to_index
    assert loaded.labels == pos.labels
    toks = list(pos_token_label())[:50]
    assert loaded.predict_batch([toks]) == pos.predict_batch([toks])
    for k in pos.w:
        np.testing.assert_array_equal(loaded.w[k], pos.w[k])


def test_artifact_tamper_detection(tmp_path):
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import (
        load_artifact,
        save_artifact,
    )

    pos, _ = taggers()
    save_artifact(pos, tmp_path / "pos.npz")
    data = (tmp_path / "pos.npz").read_bytes()
    (tmp_path / "pos.npz").write_bytes(data[:-8] + b"\x00" * 8)
    import pytest

    with pytest.raises(ValueError, match="hash mismatch"):
        load_artifact(tmp_path / "pos.npz")


def test_save_taggers_roundtrip(tmp_path):
    """``load_taggers`` reads back what ``save_taggers`` wrote: the two
    lexicon models, each with its own ending length."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import load_taggers, save_taggers

    save_taggers(tmp_path)
    pos, ner = load_taggers(tmp_path)
    assert pos.max_ending_length == 4 and ner.max_ending_length == 10000
    for got, want in zip((pos, ner), taggers()):
        assert got.labels == want.labels
        assert got.src_vocab.word_to_index == want.src_vocab.word_to_index


def _mixed_batch():
    """Three sentences of every length 1..40 drawn from the POS vocab plus
    unknown words, each twice, and one 250-token sentence (> 10% over
    MAX_PREDICT_SENT_LENGTH, so Predict_Full chunks it)."""
    vocab_toks = list(pos_token_label())
    sents = [
        [vocab_toks[(7 * n + 5 * v + j) % len(vocab_toks)] if j % 3 else f"_unk{n}_{v}_{j}"
         for j in range(n)]
        for n in range(1, 41) for v in range(3)
    ]
    sents += [list(s) for s in sents[::-1]]
    sents.append((vocab_toks * 3)[:MAX_PREDICT_SENT_LENGTH + 30])
    return sents


def test_chunks_have_one_length():
    """Every ids chunk the forward receives holds sentences of a single
    length with no padding slot, within _AREA_CAP (lowered here so that
    groups split), and the batched labels equal each sentence predicted
    alone."""
    pos, _ = taggers()
    sents = _mixed_batch()
    seen = []
    forward = pos._forward_logits
    pos.__dict__["_forward_logits"] = lambda ids: seen.append(ids.copy()) or forward(ids)
    pos.__dict__["_AREA_CAP"] = 64
    try:
        batched = pos.predict_batch(sents)
    finally:
        pos.__dict__.pop("_forward_logits")
        pos.__dict__.pop("_AREA_CAP")
    assert seen
    for ids in seen:
        # a sentence longer than the cap is a chunk of its own
        assert ids.ndim == 2 and (ids.shape[0] == 1 or ids.size <= 64)
        assert (ids != EOS_ID).all()  # no token slot is padding
    assert len(seen) > len({ids.shape[1] for ids in seen})  # groups were split
    # each unique id sentence (and each piece of the long one) went through
    # the forward exactly once: the slots sum to the real token count
    uniq = {tuple(pos.src_vocab.ids(s)) for s in sents if len(s) <= MAX_PREDICT_SENT_LENGTH}
    long_toks = sum(len(s) for s in sents if len(s) > MAX_PREDICT_SENT_LENGTH)
    assert sum(ids.size for ids in seen) == sum(map(len, uniq)) + long_toks
    assert {ids.shape[1] for ids in seen} == set(range(1, 41)) | {
        MAX_PREDICT_SENT_LENGTH, 30}
    single = [pos.predict_batch([s])[0] for s in sents]
    assert batched == single
    assert len(batched[-1]) == MAX_PREDICT_SENT_LENGTH + 30


def test_artifact_models_equal_lexicon_models(tmp_path):
    """save_artifact -> load_taggers gives models that label a batch of
    mixed lengths exactly as the lexicon-built ones, and the .npz archive
    keeps its keys: the meta blob plus one w__<name> per weight tensor."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import (
        load_taggers,
        save_artifact,
    )

    pos, ner = taggers()
    save_artifact(pos, tmp_path / "pos.npz")
    save_artifact(ner, tmp_path / "ner.npz")
    pos2, ner2 = load_taggers(tmp_path)
    sents = _mixed_batch()
    assert pos2.predict_batch(sents) == pos.predict_batch(sents)
    assert ner2.predict_batch(sents) == ner.predict_batch(sents)
    layer_keys = ("wq", "wk", "wv", "wo", "ln1g", "ln1b", "w1", "b1", "w2", "ln2g", "ln2b")
    want = {"meta", "w__emb", "w__head_w", "w__head_b"} | {
        f"w__l{li}_{k}" for li in range(pos.n_layers) for k in layer_keys}
    for name in ("pos.npz", "ner.npz"):
        with np.load(tmp_path / name) as npz:
            assert set(npz.files) == want


def _reference_logits(m, toks):
    """Per-sentence float64 transformer forward written head by head from
    the formula in tagger.py's docstring: the yardstick for the batched
    float32 forward."""
    w, D, H = m.w, m.dim, m.n_heads
    dh = D // H

    def ln(x, g, b):
        return (x - x.mean(-1, keepdims=True)) / np.sqrt(x.var(-1, keepdims=True) + 1e-5) * g + b

    ids = [m.src_vocab.id(t) for t in toks]
    x = w["emb"][ids].astype(np.float64) * np.sqrt(D) + sinusoidal_pos_emb(len(ids), D)
    for li in range(m.n_layers):
        p = f"l{li}_"
        ctx = np.zeros_like(x)
        for h in range(H):
            cols = slice(h * dh, (h + 1) * dh)
            q, k, v = (x @ w[p + n][:, cols] for n in ("wq", "wk", "wv"))
            a = q @ k.T / np.sqrt(dh)
            a = np.exp(a - a.max(-1, keepdims=True))
            ctx[:, cols] = (a / a.sum(-1, keepdims=True)) @ v
        x = ln(x + ctx @ w[p + "wo"], w[p + "ln1g"], w[p + "ln1b"])
        ffn = np.maximum(x @ w[p + "w1"] + w[p + "b1"], 0.0) @ w[p + "w2"]
        x = ln(x + ffn, w[p + "ln2g"], w[p + "ln2b"])
    return x @ w["head_w"] + w["head_b"]


def test_forward_matches_reference_transformer():
    """With random weights in EVERY block (the lexicon weights zero wo and
    w2, so attention and FFN there cannot move a label), the exact-length
    chunked forward equals a per-sentence reference transformer."""
    pos, _ = taggers()
    rng = np.random.RandomState(0)
    w = {k: rng.normal(0, 0.3, v.shape).astype(np.float32) for k, v in pos.w.items()}
    m = SeqLabelModel(pos.src_vocab, pos.labels, w, pos.dim, pos.n_layers,
                      pos.n_heads, pos.max_ending_length)
    m._AREA_CAP = 64
    sents = _mixed_batch()[:120]
    n_chunks = 0
    for rows, ids in m._chunks([m.src_vocab.ids(s) for s in sents]):
        got = m._forward_logits(ids)
        for b, r in enumerate(rows):
            np.testing.assert_allclose(got[b], _reference_logits(m, sents[r]),
                                       rtol=1e-3, atol=1e-3)
        n_chunks += 1
    assert n_chunks > len({len(s) for s in sents})
