"""Per-layer pass: the workload input through each layer's public calls,
one layer at a time, in a fresh process (so no memo is warm).

The pass mirrors what the fused stage computes on one core: repeated turn
texts are computed once, sentences go to the two taggers in batches of
``BATCH_TURNS`` turns, and each triple's two surfaces are looked up in the
entity dictionary. The fused stage itself (``stages.fused.KgStage``) then
runs over the same batches; by then the token-level caches of ``textkit``
are warm, but its turn memo and the taggers' sentence memos are not.
"""
from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq

from spans import Tracer

BATCH_TURNS = 512


def _fresh(model):
    """A copy of a tagger sharing its weights but with an empty memo."""
    from lingvo__postagger_ner_ru_dnn_ray.model.tagger import SeqLabelModel

    return SeqLabelModel(model.src_vocab, model.labels, model.w, model.dim,
                         model.n_layers, model.n_heads, model.max_ending_length)


def layer_pass(input_dir: str) -> dict:
    from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import taggers
    from lingvo__postagger_ner_ru_dnn_ray.stages.fused import KgStage
    from lingvo__postagger_ner_ru_dnn_ray.stages.linking import build_linking_dict, normalize_surface
    # the two helpers the fused stage applies between tokenizing and tagging
    from lingvo__postagger_ner_ru_dnn_ray.stages.tag import _correct_pos, _model_token_cached
    from lingvo__postagger_ner_ru_dnn_ray.stages.triples import extract_sentence_triples
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text

    tr = Tracer()
    table = pq.read_table(input_dir, columns=["conv_id", "turn_idx", "text"])
    texts = table.column("text").to_pylist()
    pos_model, ner_model = (_fresh(m) for m in taggers())
    lookup = build_linking_dict()
    mt = _model_token_cached
    seen_turns: set[str] = set()
    seen_sents: tuple[set, set] = (set(), set())

    with tr.span("layers"):
        for ofs in range(0, len(texts), BATCH_TURNS):
            todo = [x for x in dict.fromkeys(texts[ofs:ofs + BATCH_TURNS])
                    if x and x not in seen_turns]
            seen_turns.update(todo)
            with tr.span("textkit.tokenize"):
                sents = [ws for x in todo for ws in tokenize_text(x)]
            tr.count("textkit.sentences", len(sents))
            tr.count("textkit.tokens", sum(len(ws) for ws in sents))

            pos_in = [[mt(w.value, w.input_type, 4) for w in ws] for ws in sents]
            ner_in = [[mt(w.value, w.input_type, 10000) for w in ws] for ws in sents]
            for model_in, seen in zip((pos_in, ner_in), seen_sents):
                keys = {tuple(s) for s in model_in}
                tr.count("tagger.sentences_in", len(model_in))
                tr.count("tagger.sentences_forwarded", len(keys - seen))
                seen |= keys
            with tr.span("tagger.pos.forward"):
                pos_raw = pos_model.predict_batch(pos_in)
            with tr.span("tagger.ner.forward"):
                ner_raw = ner_model.predict_batch(ner_in)

            with tr.span("triples.extract"):
                triples = []
                for ws, praw, nraw in zip(sents, pos_raw, ner_raw):
                    pos = _correct_pos([w.input_type for w in ws], [w.extra for w in ws], praw)
                    ner = nraw + ["O"] * (len(ws) - len(nraw))
                    triples += extract_sentence_triples(
                        [w.value for w in ws], [w.start for w in ws],
                        [w.length for w in ws], pos, ner)
            tr.count("triples.out", len(triples))

            with tr.span("linking.lookup"):
                hits = sum(normalize_surface(t[side]) in lookup
                           for t in triples for side in (0, 3))
            tr.count("linking.surfaces", 2 * len(triples))
            tr.count("linking.hits", hits)

    stage = KgStage(dict_ref=None)
    with tr.span("fused"):
        for batch in table.to_batches(max_chunksize=BATCH_TURNS):
            stage(pa.Table.from_batches([batch]))
    return tr.as_dict()
