"""Triple extraction — a tagged sentence → (subj, pred, obj) tuples.

Rule (north_star): within one sentence, for each consecutive pair of NER
mentions (m1, m2), the predicate is the first run of verb-group tokens
(POS ∈ {Verb, AuxiliaryVerb, Infinitive}) strictly between them; subject =
m1, object = m2. A deterministic pure function of one tagged sentence —
no cross-sentence, cross-turn or cross-block state — so a sentence's
triples and their order are the same under any batching or scheduling.

So a sentence can yield a triple only if some consecutive pair of mentions
has a token between them (``can_form_triple``): that depends on the NER
spans alone, and POS labels matter only for such sentences. The job's stage
runs the POS model on those sentences only (stages/kernel.py).

The per-turn kernel (stages/kernel.py) calls it per sentence; the
triple rows it builds have TRIPLE_SCHEMA:
    conv_id, turn_idx, sent_idx, triple_idx,
    subj, subj_type, pred, obj, obj_type,
    subj_start, subj_len, obj_start, obj_len
"""
from __future__ import annotations

import pyarrow as pa

from ..textkit.xlat import lower_invariant
from .mentions import decode_bio

VERB_GROUP = frozenset({"Verb", "AuxiliaryVerb", "Infinitive"})

TRIPLE_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("sent_idx", pa.int32()),
        ("triple_idx", pa.int32()),
        ("subj", pa.string()),
        ("subj_type", pa.string()),
        ("pred", pa.string()),
        ("obj", pa.string()),
        ("obj_type", pa.string()),
        ("subj_start", pa.int32()),
        ("subj_len", pa.int32()),
        ("obj_start", pa.int32()),
        ("obj_len", pa.int32()),
    ]
)


def can_form_triple(spans: list[tuple[int, int, str]]) -> bool:
    """Whether some consecutive pair of ``decode_bio`` spans has a token
    between them: for any other sentence ``extract_sentence_triples``
    returns [] whatever its POS labels."""
    return any(b1 < a2 for (_, b1, _), (a2, _, _) in zip(spans, spans[1:]))


def extract_sentence_triples(vals, starts, lens, pos, ner):
    """Pure per-sentence extraction; returns list of tuples in TRIPLE_SCHEMA
    column order minus the id columns."""
    return span_triples(vals, starts, lens, pos, decode_bio(ner))


def span_triples(vals, starts, lens, pos, spans):
    """``extract_sentence_triples`` over the sentence's decoded NER spans."""
    out = []
    for (a1, b1, t1), (a2, b2, t2) in zip(spans, spans[1:]):
        run: list[int] = []
        for k in range(b1, a2):
            if pos[k] in VERB_GROUP:
                run.append(k)
            elif run:
                break
        if not run:
            continue
        pred = " ".join(lower_invariant(vals[k]) for k in run)
        out.append(
            (
                " ".join(vals[a1:b1]), t1, pred, " ".join(vals[a2:b2]), t2,
                starts[a1], starts[b1 - 1] + lens[b1 - 1] - starts[a1],
                starts[a2], starts[b2 - 1] + lens[b2 - 1] - starts[a2],
            )
        )
    return out
