"""POS/NER tagging helpers of the per-turn kernel (stages/kernel.py).

The kernel labels every sentence of a call with one ``predict_ids`` per
model, which forwards the call's unique id sentences in unpadded chunks of
one exact length each (model/tagger.py; vs. the reference's batch=1
console path, ConsoleDemo/Program.cs:263-272). These are the per-token
steps around it:

  * ``_model_token_cached`` — the token → model-token projection
    (Tokenizer.ToPosTaggerToken), mel=4 for POS and mel=10000 for NER, as
    strings. It is off the job's path (each word carries its vocabulary
    ids from the kernel's token memo) and kept for perfbench's layer pass, which
    measures this string path, and for the tests that compare the kernel
    with it;
  * ``_correct_pos`` — SetPosTaggerOutputType (PosTaggerExtensions.cs:
    16-59): Num→Numeral, Url/Email→Other, punctuation-flag→Punctuation.
"""
from __future__ import annotations

from functools import lru_cache

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
    """Token→model-token cache (the projection is a pure function of the
    token value + input type), kept for perfbench's layer pass and the
    tests; the kernel maps words to vocabulary ids instead."""
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
