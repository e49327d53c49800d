"""The per-turn kernel: tokenize → tag, then extract → link, written once.

Every path from transcript text to tagged sentences or linked triples runs
these steps: the job's fused stage (stages/fused.py, behind its turn
memo), the single-process oracle (pipelines/oracle.py), the driver's
sentence stage (pipelines/kg.py) and the web-JSON stage
(sources/jsonio.py). The steps work on Python structures; each caller
builds Arrow only at its own boundary, with ``sentence_table`` and
``linked_table``.

1. ``Kernel.tag_texts``: texts → sentences (TryTokenizeBySents,
   PosTaggerExtensions.cs:61-72, through ``tokenize_texts``, which does
   the character work once per slice of texts; empty texts yield none),
   all sentences of the call labelled by ONE ``predict_batch`` per model.
   ``Kernel.tag_sentences`` is the same step for sentences already
   tokenized. A sentence comes back as a ``Tagged``: the payload of one
   SENT_SCHEMA row.
2. ``Kernel.link``: a tagged sentence → its triples (stages/triples.py),
   each with both surfaces looked up in the entity dictionary
   (stages/linking.py; a miss keeps the NIL id and the normalized surface).

``Kernel.link_texts`` (and ``link_sentences`` for tokenized sentences) is
steps 1 and 2 for a caller that needs the links alone, tagged in the order
extraction reads the labels: NER on every sentence, then POS only on the
sentences where a triple can form (``can_form_triple``); every other
sentence has no link rows. It builds no ``Tagged``, and its rows equal
``link`` over ``tag_texts``. The job's stage uses it; the oracle, the
driver and web-JSON tag every sentence, because their sentence tables
need POS everywhere.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from typing import NamedTuple

import pyarrow as pa

from ..textkit.tokenizer import tokenize_texts
from .linking import NIL, build_linking_dict, normalize_surface
from .mentions import decode_bio
from .tag import _correct_pos, _model_token_cached
from .triples import TRIPLE_SCHEMA, can_form_triple, span_triples

_STR_LIST = pa.list_(pa.string())

# the model-token max ending length of each model (predict_pos.json:8-9,
# predict_ner.json:6-7)
_POS_MEL, _NER_MEL = 4, 10000

# one row per sentence; pos = corrected PosTaggerOutputType names
# (PosTaggerExtensions.cs:16-59), pos_raw = raw model labels, ner = BIO tags
SENT_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("sent_idx", pa.int32()),
        ("values", _STR_LIST),
        ("starts", pa.list_(pa.int32())),
        ("lens", pa.list_(pa.int32())),
        ("input_types", pa.list_(pa.uint8())),
        ("extras", pa.list_(pa.uint8())),
        ("pos", _STR_LIST),
        ("pos_raw", _STR_LIST),
        ("ner", _STR_LIST),
    ]
)

LINKED_SCHEMA = pa.schema(
    list(TRIPLE_SCHEMA)
    + [pa.field(n, pa.string()) for n in ("subj_id", "subj_canon", "obj_id", "obj_canon")]
)


class Tagged(NamedTuple):
    """One tagged sentence: per-token lists in SENT_SCHEMA order."""

    values: list
    starts: list
    lens: list
    input_types: list
    extras: list
    pos: list
    pos_raw: list
    ner: list


def _pad(labels: list, n: int, fill: str) -> list:
    """Labels of a Predict_Full-truncated tail (SeqLabel.cs:259-311) → ``fill``."""
    return labels + [fill] * (n - len(labels)) if len(labels) < n else labels


class Kernel:
    """The state of both steps: the two models, the entity dictionary and
    the tokenizer's input-type processor."""

    def __init__(self, artifact_dir: str | None = None, lookup: dict | None = None,
                 input_type_processor=None):
        """``artifact_dir``: load the models from its sha-verified .npz
        artifacts (model/artifact.py) instead of the lexicon-built
        singletons. ``lookup``: the normalized-surface → (entity_id,
        canonical) dictionary; default ``build_linking_dict()``."""
        if artifact_dir is None:
            from ..model.lexicon import taggers

            self.pos_model, self.ner_model = taggers()
        else:
            from ..model.artifact import load_taggers

            self.pos_model, self.ner_model = load_taggers(artifact_dir)
        self.lookup = build_linking_dict() if lookup is None else lookup
        self.itp = input_type_processor

    def tag_texts(self, texts: list[str]) -> Iterator[list[Tagged]]:
        """Each text's tagged sentences, in order. Lazy: a caller that
        consumes text by text holds one text's ``Tagged`` at a time, which
        keeps the garbage collector's young generations small."""
        per_text = self._tokenize(texts)
        tagged = self._tag([ws for sents in per_text for ws in sents])
        for sents in per_text:
            yield [next(tagged) for _ in sents]

    def tag_sentences(self, sents: list[list]) -> list[Tagged]:
        """Tokenized sentences (lists of textkit ``Word``) → ``Tagged``."""
        return list(self._tag(sents))

    def link_texts(self, texts: list[str]) -> list[list[list[tuple]]]:
        """Each text's sentences' ``link`` rows, in order, with no
        ``Tagged`` built (see ``link_sentences``)."""
        per_text = self._tokenize(texts)
        rows = iter(self.link_sentences([ws for sents in per_text for ws in sents]))
        return [[next(rows) for _ in sents] for sents in per_text]

    def link_sentences(self, sents: list[list]) -> list[list[tuple]]:
        """Each tokenized sentence's ``link`` rows. NER labels every
        sentence; POS labels only those whose spans ``can_form_triple``,
        since ``link`` of any other sentence is []."""
        spans = [decode_bio(ner) for ner in self._labels(self.ner_model, sents, _NER_MEL)]
        todo = [i for i, sp in enumerate(spans) if can_form_triple(sp)]
        out: list[list[tuple]] = [[] for _ in sents]
        for i, praw in zip(todo, self._labels(self.pos_model, [sents[i] for i in todo], _POS_MEL)):
            ws = sents[i]
            pos = _correct_pos([w.input_type for w in ws], [w.extra for w in ws], praw)
            out[i] = self._link_rows([w.value for w in ws], [w.start for w in ws],
                                     [w.length for w in ws], pos, spans[i])
        return out

    def _tokenize(self, texts: list[str]) -> list[list[list]]:
        return tokenize_texts(texts, input_type_processor=self.itp)

    @staticmethod
    def _labels(model, sents: list[list], mel: int) -> list[list[str]]:
        """``model``'s raw labels of each sentence, on its model tokens of
        max ending length ``mel``."""
        mt = _model_token_cached
        return model.predict_batch([[mt(w.value, w.input_type, mel) for w in ws] for ws in sents])

    def _tag(self, sents: list[list]) -> Iterator[Tagged]:
        pos_raw = self._labels(self.pos_model, sents, _POS_MEL)
        ner_raw = self._labels(self.ner_model, sents, _NER_MEL)
        for ws, praw, nraw in zip(sents, pos_raw, ner_raw):
            its = [w.input_type for w in ws]
            exs = [w.extra for w in ws]
            n = len(ws)
            yield Tagged(
                [w.value for w in ws], [w.start for w in ws], [w.length for w in ws],
                its, exs, _correct_pos(its, exs, praw), _pad(praw, n, ""), _pad(nraw, n, "O"),
            )

    def link(self, s: Tagged) -> list[tuple]:
        """(triple_idx, *triple, subj_id, subj_canon, obj_id, obj_canon) rows:
        LINKED_SCHEMA from triple_idx on."""
        return self._link_rows(s.values, s.starts, s.lens, s.pos, decode_bio(s.ner))

    def _link_rows(self, vals, starts, lens, pos, spans) -> list[tuple]:
        lookup = self.lookup
        rows = []
        for ti, tup in enumerate(span_triples(vals, starts, lens, pos, spans)):
            link: tuple = ()
            for surface in (tup[0], tup[3]):
                norm = normalize_surface(surface)
                link += lookup.get(norm, (NIL, norm))
            rows.append((ti,) + tup + link)
        return rows


@lru_cache(maxsize=None)
def kernel(artifact_dir: str | None = None) -> Kernel:
    """This process's kernel for ``artifact_dir``: what stateless Ray tasks
    call, so a worker process loads its models once and reuses them."""
    return Kernel(artifact_dir)


def turn_keys(batch: pa.Table) -> list[tuple]:
    """(conv_id, turn_idx, role) per turn row; role "" when absent."""
    n = batch.num_rows
    role = batch.column("role").to_pylist() if "role" in batch.column_names else [""] * n
    return list(zip(batch.column("conv_id").to_pylist(),
                    batch.column("turn_idx").to_pylist(), role))


def _table(rows: list[tuple], schema: pa.Schema) -> pa.Table:
    # lists, not the tuples zip yields: pa.array converts a tuple ~6× slower
    cols = [list(c) for c in zip(*rows)] if rows else [[]] * len(schema)
    return pa.Table.from_arrays([pa.array(c, f.type) for c, f in zip(cols, schema)],
                                schema=schema)


def sentence_table(keys: list[tuple], tagged: Iterable[list[Tagged]]) -> pa.Table:
    """SENT_SCHEMA rows from each turn's (conv_id, turn_idx, role) and its
    tagged sentences."""
    return _table([k + (si,) + s for k, sents in zip(keys, tagged)
                   for si, s in enumerate(sents)], SENT_SCHEMA)


def linked_table(rows: list[tuple]) -> pa.Table:
    """LINKED_SCHEMA rows (conv_id, turn_idx, sent_idx, *``Kernel.link`` row)."""
    return _table(rows, LINKED_SCHEMA)
