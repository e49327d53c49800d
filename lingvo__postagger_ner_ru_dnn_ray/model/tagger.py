"""Sequence-labeling DNN: numpy Transformer-encoder forward pass.

Replaces the reference's 13.9K-LoC tensor/autograd layer (SURVEY.md §2.9)
with a vectorized numpy forward of the same architecture the reference uses
for prediction (Applications/SeqLabel.cs:107-231 RunForwardOnSingleDevice;
Network/TransformerEncoder.cs:12-89; Network/PositionEmbedding.cs):

    ids -> embedding · sqrt(D) -> + sinusoidal position embedding
        -> N × [ LayerNorm(x + MHA(x)) ; LayerNorm(x + FFN(x)) ]
        -> feed-forward head -> softmax -> argmax per token

In production the weights would be an ONNX-exported trained model loaded by
onnxruntime once per actor; in this sandbox (no trained artifact shippable)
the weights are CONSTRUCTED deterministically from the fixture lexicon so
that the forward pass reproduces the lexicon's gold labels exactly: the
embedding carries an amplified one-hot of each token's label, attention
output-projection and FFN second matrices are zero (residual passthrough),
and the head reads the label block. The matmul/softmax/LayerNorm work is
identical to a trained model of the same shape, so the benchmark numbers
are representative; the forward never looks at which blocks are zero.

The model's input is vocabulary ids: ``predict_ids`` deduplicates a call's
sentences by their id tuples, so sentences that differ only in
out-of-vocabulary words forward once, and ``predict_batch`` maps model-token
strings to ids and calls it. The forward runs on chunks of sentences of one
exact length, so nothing is padded and no attention mask is needed. Each
projection is a single 2-D GEMM over the chunk's B·L token rows (Q, K and V
as one matmul against [wq|wk|wv]); only the attention scores stay batched
per sentence and head. The reductions run along long axes: the scores are
held keys-by-queries, [B,H,Lk,Lq], so the softmax's max is Lk elementwise
maxima over B·H·Lq scores and its sum one GEMV against ones, and the
LayerNorm mean and variance are GEMVs of the [B·L, D] rows against 1/D.

Long-sentence chunking reproduces SeqLabel.Predict_Full
(Applications/SeqLabel.cs:259-311): overflow ≤ 10% of max_len → truncate
(excess tokens receive no label), else predict in max_len chunks.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .vocab import UNK_ID, Vocab

MAX_PREDICT_SENT_LENGTH = 220  # Options.cs:31-32
CUT_DROPOUT = 0.1  # SeqLabel.cs:259 cutDropout

_ALPHA = 8.0


def sinusoidal_pos_emb(max_len: int, dim: int) -> np.ndarray:
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    out = np.empty((max_len, dim), dtype=np.float32)
    out[:, 0::2] = np.sin(angle[:, 0::2])
    out[:, 1::2] = np.cos(angle[:, 1::2])
    return out


def _layer_norm_(x: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LayerNorm of the rows of x [N, D], in place. The mean and the
    variance of the centred rows are GEMVs against 1/D, which BLAS runs
    along the N rows instead of one short reduction per row."""
    avg = np.full(x.shape[1], 1.0 / x.shape[1], dtype=x.dtype)
    x -= (x @ avg)[:, None]
    var = (x * x) @ avg
    var += 1e-5
    x /= np.sqrt(var)[:, None]
    x *= g
    x += b
    return x


def _softmax_keys_(att: np.ndarray) -> np.ndarray:
    """Softmax over the keys of scores [B,H,Lk,Lq], in place. Both
    reductions run along the long B·H·Lq axis: the max as Lk elementwise
    maxima and the sum as one GEMV against ones."""
    m = att[:, :, 0].copy()
    for i in range(1, att.shape[2]):
        np.maximum(m, att[:, :, i], out=m)
    att -= m[:, :, None]
    np.exp(att, out=att)
    att /= (np.ones(att.shape[2], dtype=att.dtype) @ att)[:, :, None]
    return att


class SeqLabelModel:
    """Holds weights + vocabs; one instance per (POS|NER) model per actor."""

    def __init__(self, src_vocab: Vocab, labels: tuple[str, ...], weights: dict[str, np.ndarray],
                 dim: int, n_layers: int, n_heads: int, max_ending_length: int):
        self.src_vocab = src_vocab
        self.labels = labels
        self.w = weights
        self.dim = dim
        self.n_layers = n_layers
        self.n_heads = n_heads
        self.max_ending_length = max_ending_length
        self._pos = sinusoidal_pos_emb(MAX_PREDICT_SENT_LENGTH + 8, dim)
        # forward-ready arrays derived from ``w`` (which stays the saved
        # form): the embedding pre-scaled by sqrt(D), and per layer one
        # [D, 3D] QKV projection [wq|wk|wv]
        w = weights
        self._emb = w["emb"] * np.float32(np.sqrt(dim))
        self._layers = [
            (np.concatenate([w[p + "wq"], w[p + "wk"], w[p + "wv"]], axis=1),
             w[p + "wo"], w[p + "ln1g"], w[p + "ln1b"],
             w[p + "w1"], w[p + "b1"], w[p + "w2"], w[p + "ln2g"], w[p + "ln2b"])
            for p in (f"l{li}_" for li in range(n_layers))
        ]
        self._label_arr = np.array(labels, dtype=object)

    # exact-length chunks hold at most this many token slots (B·L), which
    # bounds the peak memory of one forward
    _AREA_CAP = 1 << 15

    # ------------------------------------------------------------------ #
    def forward_ids(self, ids: np.ndarray) -> np.ndarray:
        """ids [B,L] int32, every row a whole sentence -> label ids [B,L]."""
        return self._forward_logits(ids).argmax(axis=-1)

    def _forward_logits(self, ids: np.ndarray) -> np.ndarray:
        """Logits [B,L,C] for a chunk of B sentences of exactly L tokens:
        no padding, so no attention mask. Every projection is one 2-D GEMM
        over the B·L token rows; the scores are keys against queries, so
        the softmax reduces over axis 2. Each step's arrays are dropped
        once read and each residual is added in place, so a layer holds
        few temporaries at a time (an IEEE sum does not depend on the
        order of its two terms)."""
        B, L = ids.shape
        D, H = self.dim, self.n_heads
        dh = D // H
        scale = np.float32(np.sqrt(dh))
        x = (self._emb[ids] + self._pos[:L]).reshape(B * L, D)
        for wqkv, wo, ln1g, ln1b, w1, b1, w2, ln2g, ln2b in self._layers:
            qkv = (x @ wqkv).reshape(B, L, 3, H, dh)
            q = qkv[:, :, 0].transpose(0, 2, 3, 1)  # [B,H,dh,Lq]
            k = qkv[:, :, 1].transpose(0, 2, 1, 3)  # [B,H,Lk,dh]
            v = qkv[:, :, 2].transpose(0, 2, 1, 3)  # [B,H,Lk,dh]
            att = k @ q  # [B,H,Lk,Lq]
            del q, k
            att /= scale
            ctx = (_softmax_keys_(att).transpose(0, 1, 3, 2) @ v).transpose(0, 2, 1, 3)
            del att, v, qkv
            y = ctx.reshape(B * L, D) @ wo
            del ctx
            y += x
            x = _layer_norm_(y, ln1g, ln1b)
            h = x @ w1
            h += b1
            np.maximum(h, 0.0, out=h)
            y = h @ w2
            del h
            y += x
            x = _layer_norm_(y, ln2g, ln2b)
        return (x @ self.w["head_w"] + self.w["head_b"]).reshape(B, L, -1)

    # ------------------------------------------------------------------ #
    def predict_batch(self, sents: list[list[str]]) -> list[list[str]]:
        """Label a batch of model-token sentences: their vocabulary ids
        through ``predict_ids``."""
        g = self.src_vocab.word_to_index.get
        return self.predict_ids([tuple([g(t, UNK_ID) for t in toks]) for toks in sents])

    def predict_ids(self, sents: Sequence[Sequence[int]]) -> list[list[str]]:
        """Label a batch of sentences given as vocabulary ids. Applies
        Predict_Full chunking semantics to sentences over
        MAX_PREDICT_SENT_LENGTH.

        Sentences of the call with equal id tuples run the forward pass
        once (so do sentences that differ only in out-of-vocabulary
        words), and the unique ones run in chunks of a single length, so no
        sentence is padded and its labels cannot depend on the rest of the
        batch (pinned by tests/test_model.py::test_predict_batch_padding_invariant
        and test_chunks_have_one_length). The model holds no cache."""
        if not sents:
            return []
        out: list[list[str] | None] = [None] * len(sents)
        plain: list[tuple[int, tuple[int, ...]]] = []
        for idx, ids in enumerate(sents):
            ids = tuple(ids)
            d = len(ids) - MAX_PREDICT_SENT_LENGTH
            if d <= 0:
                plain.append((idx, ids))
            elif d <= MAX_PREDICT_SENT_LENGTH * CUT_DROPOUT:
                # truncate: excess tokens receive no label (SeqLabel.cs:269-274
                # + SetPosTaggerOutputType min-length loop)
                plain.append((idx, ids[:MAX_PREDICT_SENT_LENGTH]))
            else:
                parts = [ids[ofs : ofs + MAX_PREDICT_SENT_LENGTH]
                         for ofs in range(0, len(ids), MAX_PREDICT_SENT_LENGTH)]
                out[idx] = [lab for part in self._forward_unique(parts) for lab in part]
        uniq = list(dict.fromkeys(ids for _, ids in plain))
        labels = dict(zip(uniq, self._forward_unique(uniq)))
        for idx, ids in plain:
            out[idx] = list(labels[ids])
        return out  # type: ignore[return-value]

    def _chunks(self, sents: Sequence[Sequence[int]]) -> Iterator[tuple[list[int], np.ndarray]]:
        """Group the id sentences ``sents`` by exact length and split each
        group so that B·L ≤ _AREA_CAP. Yields (positions in ``sents``,
        ids [B, L]) per chunk; empty sentences are in no chunk."""
        by_len: dict[int, list[int]] = {}
        for i, ids in enumerate(sents):
            by_len.setdefault(len(ids), []).append(i)
        by_len.pop(0, None)
        for L, rows in sorted(by_len.items()):
            step = max(1, self._AREA_CAP // L)
            for a in range(0, len(rows), step):
                chunk = rows[a : a + step]
                yield chunk, np.array([sents[r] for r in chunk], dtype=np.int32)

    def _forward_unique(self, sents: Sequence[Sequence[int]]) -> list[list[str]]:
        """Labels for each of the id sentences ``sents`` (meant to be
        unique), forwarded in exact-length chunks."""
        results: list[list[str]] = [[] for _ in sents]
        for rows, ids in self._chunks(sents):
            for r, lab in zip(rows, self._label_arr[self.forward_ids(ids)].tolist()):
                results[r] = lab
        return results


def build_lexical_tagger(
    token_label: dict[str, str],
    labels: tuple[str, ...],
    max_ending_length: int,
    dim: int = 32,
    n_layers: int = 2,
    n_heads: int = 4,
    seed: int = 42,
) -> SeqLabelModel:
    """Construct deterministic weights that make the transformer reproduce
    ``token_label`` (default label = labels[0] for unknown tokens)."""
    assert len(labels) <= dim
    rng = np.random.RandomState(seed)
    vocab = Vocab(sorted(token_label))
    V, C = len(vocab), len(labels)
    lab_id = {s: i for i, s in enumerate(labels)}

    emb = rng.uniform(-0.01, 0.01, size=(V, dim)).astype(np.float32)
    emb[:, :C] = 0.0
    emb[:3, 0] = _ALPHA  # </s> <s> <unk> -> default label
    for tok, lab in token_label.items():
        emb[vocab.id(tok), lab_id[lab]] = _ALPHA

    w: dict[str, np.ndarray] = {"emb": emb}
    for li in range(n_layers):
        p = f"l{li}_"
        w[p + "wq"] = rng.normal(0, 0.02, (dim, dim)).astype(np.float32)
        w[p + "wk"] = rng.normal(0, 0.02, (dim, dim)).astype(np.float32)
        w[p + "wv"] = rng.normal(0, 0.02, (dim, dim)).astype(np.float32)
        w[p + "wo"] = np.zeros((dim, dim), dtype=np.float32)  # residual passthrough
        w[p + "ln1g"] = np.ones(dim, dtype=np.float32)
        w[p + "ln1b"] = np.zeros(dim, dtype=np.float32)
        w[p + "w1"] = rng.normal(0, 0.02, (dim, dim * 2)).astype(np.float32)
        w[p + "b1"] = np.zeros(dim * 2, dtype=np.float32)
        w[p + "w2"] = np.zeros((dim * 2, dim), dtype=np.float32)  # residual passthrough
        w[p + "ln2g"] = np.ones(dim, dtype=np.float32)
        w[p + "ln2b"] = np.zeros(dim, dtype=np.float32)
    head = np.zeros((dim, C), dtype=np.float32)
    head[:C, :C] = np.eye(C, dtype=np.float32)
    w["head_w"] = head
    w["head_b"] = np.zeros(C, dtype=np.float32)

    return SeqLabelModel(vocab, labels, w, dim, n_layers, n_heads, max_ending_length)
