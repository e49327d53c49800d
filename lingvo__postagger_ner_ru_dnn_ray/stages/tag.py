"""Ray Data stage: POS + NER DNN inference — a stateful actor pool.

Mirror of the reference's predictor pool (WebService/Infrastructure/
ConcurrentFactory.cs:56-108: semaphore-bounded predictors with the model
loaded once and shared) expressed as Ray's ActorPoolStrategy: pass this
CLASS to ``ds.map_batches(TaggerStage, concurrency=N, batch_size=B,
batch_format="pyarrow")``; both models load once per actor in __init__;
each __call__ labels every sentence of the Arrow batch in one
``predict_batch`` per model, which forwards the batch's unique sentences in
unpadded chunks of one exact length each (vs. the reference's batch=1
console path, ConsoleDemo/Program.cs:263-272).

Adds to the sentence rows:
    pos      list<string>  corrected PosTaggerOutputType names
             (SetPosTaggerOutputType, PosTaggerExtensions.cs:16-59:
              Num→Numeral, Url/Email→Other, punctuation-flag→Punctuation)
    pos_raw  list<string>  raw model labels (word_t.seqLabelOutputType)
    ner      list<string>  BIO tags
Long sentences follow Predict_Full chunking (SeqLabel.cs:259-311).
"""
from __future__ import annotations

from functools import lru_cache

import pyarrow as pa

from ..model.lexicon import taggers
from ..textkit.features import (
    EX_PUNCTUATION,
    IT_EMAIL,
    IT_NUM,
    IT_URL,
    POS_LABEL_TO_ID,
    to_model_token,
)


@lru_cache(maxsize=1_000_000)
def _model_token_cached(v: str, it: int, mel: int) -> str:
    """Per-worker token→model-token cache (Zipfian hit rate; the projection
    is a pure function of the token value + input type)."""
    return to_model_token(v, it, mel)


def _correct_pos(input_types, extras, raw_labels):
    """SetPosTaggerOutputType(correctByInputType=True)."""
    n = len(input_types)
    out = ["Other"] * n
    m = min(n, len(raw_labels))
    for i in range(m):
        it = input_types[i]
        if it == IT_NUM:
            out[i] = "Numeral"
        elif it in (IT_URL, IT_EMAIL):
            out[i] = "Other"
        elif extras[i] & EX_PUNCTUATION:
            out[i] = "Punctuation"
        else:
            lab = raw_labels[i]
            out[i] = lab if lab in POS_LABEL_TO_ID else "Other"
    return out


class TaggerStage:
    def __init__(self, with_dict_ratio: bool = False, artifact_dir: str | None = None):
        """``artifact_dir``: load the two models from .npz artifacts (the
        production model-shipped-as-file path, analogue of LoadModelRoutine
        BaseSeq2SeqFramework.cs:204-228 — once per actor, sha-verified);
        default: lexicon-constructed module singletons."""
        if artifact_dir is not None:
            from ..model.artifact import load_taggers

            self.pos_model, self.ner_model = load_taggers(artifact_dir)
        else:
            self.pos_model, self.ner_model = taggers()
        self.with_dict_ratio = with_dict_ratio

    def __call__(self, batch: pa.Table) -> pa.Table:
        values = batch.column("values").to_pylist()
        input_types = batch.column("input_types").to_pylist()
        extras = batch.column("extras").to_pylist()

        mt = _model_token_cached
        pos_in = [
            [mt(v, it, 4) for v, it in zip(vs, its)]
            for vs, its in zip(values, input_types)
        ]
        ner_in = [
            [mt(v, it, 10000) for v, it in zip(vs, its)]
            for vs, its in zip(values, input_types)
        ]
        pos_raw = self.pos_model.predict_batch(pos_in)
        ner_raw = self.ner_model.predict_batch(ner_in)

        pos = [
            _correct_pos(its, exs, raw)
            for its, exs, raw in zip(input_types, extras, pos_raw)
        ]
        # NER: pad missing labels (chunk-truncated tails) with O
        ner = [
            raw + ["O"] * (len(vs) - len(raw)) if len(raw) < len(vs) else raw
            for vs, raw in zip(values, ner_raw)
        ]
        pos_raw_padded = [
            raw + [""] * (len(vs) - len(raw)) if len(raw) < len(vs) else raw
            for vs, raw in zip(values, pos_raw)
        ]

        out = batch.append_column("pos", pa.array(pos, pa.list_(pa.string())))
        out = out.append_column("pos_raw", pa.array(pos_raw_padded, pa.list_(pa.string())))
        out = out.append_column("ner", pa.array(ner, pa.list_(pa.string())))
        if self.with_dict_ratio:
            # SeqLabel.cs:194-216 WordsInDictRatio per sentence
            out = out.append_column(
                "pos_dict_ratio",
                pa.array(self.pos_model.words_in_dict_ratio(pos_in), pa.float32()),
            )
            out = out.append_column(
                "ner_dict_ratio",
                pa.array(self.ner_model.words_in_dict_ratio(ner_in), pa.float32()),
            )
        return out
