"""The per-turn kernel: tokenize → tag, then extract → link, written once.

Every path from transcript text to tagged sentences or linked triples runs
these steps: the job's fused stage (stages/fused.py), the single-process
oracle (pipelines/oracle.py), the driver's sentence stage
(pipelines/kg.py) and the web-JSON stage (sources/jsonio.py). The steps
work on Python structures; each caller builds Arrow only at its own
boundary, with ``sentence_table`` and ``linked_table``.

1. ``Kernel.tag_texts``: texts → sentences (TryTokenizeBySents,
   PosTaggerExtensions.cs:61-72, through ``tokenize_texts``, which does
   the character work once per slice of texts; empty texts yield none),
   all sentences of the call labelled by ONE ``predict_ids`` per model.
   ``Kernel.tag_sentences`` is the same step for sentences already
   tokenized. A sentence comes back as a ``Tagged``: the payload of one
   SENT_SCHEMA row.

   Vocabulary ids are the models' token currency: a word's ids for both
   models, ``vocab.id(to_model_token(value, input_type, mel))``, are
   computed when the FSM's token memo misses it and kept in its entry
   (``Kernel._admit``); ``mel`` is the model's own ``max_ending_length``,
   as the reference gives each model its own MaxEndingLength (4 in
   predict_pos.json:8-9, 10000 in predict_ner.json:6-7). A placeholder
   takes its type's fixed ids; a word built outside the kernel gets its
   ids computed afresh (``Kernel._word_ids``).
2. ``Kernel.link``: a tagged sentence → its triples (stages/triples.py),
   each with both surfaces looked up in the entity dictionary
   (stages/linking.py; a miss keeps the NIL id and the normalized surface).

``Kernel.link_texts`` is steps 1 and 2 for a caller that needs the links
alone, tagged in the order extraction reads the labels: NER on every
sentence, then POS only on the sentences where a triple can form
(``can_form_triple``); every other sentence has no link rows. It builds no
``Tagged``, and its rows equal ``link`` over ``tag_texts``. The job's stage
uses it; the oracle, the driver and web-JSON tag every sentence, because
their sentence tables need POS everywhere.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from typing import NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from ..textkit.features import IT_EMAIL, IT_NUM, IT_URL, to_model_token_pair
from ..textkit.sentsplit import Sent
from ..textkit.tokenizer import split_texts, tokenize_texts
from .linking import NIL, build_linking_dict, normalize_surface
from .mentions import decode_bio
from .tag import _correct_pos
from .triples import TRIPLE_SCHEMA, can_form_triple, span_triples

_STR_LIST = pa.list_(pa.string())

# entries the three caches and the doorkeeper's insertions reach together
# before a call clears them all: ~111 MB at most at 425 bytes (a memo
# sentence, the dearest entry; a token-memo entry with its ids ~295). One
# pass over perfbench's kg_unique turns, whose pseudo-words occur once,
# leaves a few hundred entries and ~10,100 insertions
_CACHE_ENTRIES = 1 << 18

# the doorkeeper's bits (128 KB)
_DOOR_LOG2 = 20
_DOOR_BITS = 1 << _DOOR_LOG2

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


class _Doorkeeper:
    """TinyLFU's doorkeeper (Einziger et al., ACM TOS 2017): a bit array
    that admits a key to a cache at its second sighting. ``seen(h)`` is
    true if the two bits that hash ``h`` selects are set, and sets them
    otherwise; a false positive only stores a key at its first sighting.
    ``inserts`` counts the calls that set bits."""

    __slots__ = ("bits", "inserts")

    def __init__(self):
        self.bits = bytearray(_DOOR_BITS >> 3)
        self.inserts = 0

    def seen(self, h: int) -> bool:
        a, b = h & (_DOOR_BITS - 1), (h >> _DOOR_LOG2) & (_DOOR_BITS - 1)
        bits, ma, mb = self.bits, 1 << (a & 7), 1 << (b & 7)
        if bits[a >> 3] & ma and bits[b >> 3] & mb:
            return True
        bits[a >> 3] |= ma
        bits[b >> 3] |= mb
        self.inserts += 1
        return False

    def clear(self) -> None:
        self.bits[:] = bytes(len(self.bits))
        self.inserts = 0


class Kernel:
    """The state of both steps: the two models, the entity dictionary and
    three caches, each a pure function of its key: the sentence memo
    (``link_texts``' rows by ``_sent_key``, only of sentences that hold no
    token at its first sighting), the FSM's token memo (a token's fields
    and both models' ids, per kernel, as artifact weights carry their own
    vocabularies) and the surface memo (a triple surface → its entity_id
    and canonical, ``_link_rows``). A word enters the token memo at its
    second sighting: the doorkeeper ``_door`` decides whether a missed key
    was seen before. A public call that fills them first clears all three
    and the doorkeeper once the caches' entries and its insertions reach
    ``_CACHE_ENTRIES`` together, so none is cleared mid-call."""

    def __init__(self, artifact_dir: str | None = None):
        """``artifact_dir``: load the models from its sha-verified .npz
        artifacts (model/artifact.py) instead of the lexicon-built
        singletons. ``lookup``, the normalized-surface → (entity_id,
        canonical) dictionary, is ``build_linking_dict()``."""
        if artifact_dir is None:
            from ..model.lexicon import taggers

            self.pos_model, self.ner_model = taggers()
        else:
            from ..model.artifact import load_taggers

            self.pos_model, self.ner_model = load_taggers(artifact_dir)
        self.lookup = build_linking_dict()
        self._memo: dict[bytes | tuple, tuple | None] = {}
        self._tokens: dict[bytes, tuple | object] = {}  # the FSM's token memo
        self._surfaces: dict[str, tuple[str, str]] = {}  # surface → (entity_id, canonical)
        self._door = _Doorkeeper()
        # a placeholder's ids: its input type alone decides its model token
        self._fixed_ids = {it: self._model_ids("", it) for it in (IT_NUM, IT_URL, IT_EMAIL)}
        self.missed_texts = 0

    def _bound_caches(self) -> None:
        """Clear the three caches and the doorkeeper together once their
        entries and its insertions reach ``_CACHE_ENTRIES``."""
        caches = (self._memo, self._tokens, self._surfaces)
        if sum(map(len, caches)) + self._door.inserts >= _CACHE_ENTRIES:
            for c in (*caches, self._door):
                c.clear()

    def tag_texts(self, texts: list[str]) -> Iterator[list[Tagged]]:
        """Each text's tagged sentences, in order. Lazy: a caller that
        consumes text by text holds one text's ``Tagged`` at a time, which
        keeps the garbage collector's young generations small."""
        self._bound_caches()
        per_text = tokenize_texts(texts, self._tokens, self._admit)
        tagged = self._tag([ws for sents in per_text for ws in sents])
        for sents in per_text:
            yield [next(tagged) for _ in sents]

    def tag_sentences(self, sents: list[list]) -> list[Tagged]:
        """Tokenized sentences (lists of textkit ``Word``) → ``Tagged``."""
        self._bound_caches()
        return list(self._tag(sents))

    def link_texts(self, texts: list[str]) -> list[list[list[tuple]]]:
        """Each text's sentences' ``link`` rows, in order, with no
        ``Tagged`` built (see ``_link_sentences``). Each distinct text of
        the call is split into sentences; a sentence in the memo takes its
        stored rows, shifted by its offset. The others are tokenized once
        per key and all go through one ``_link_sentences``. A missed
        sentence is stored only if the FSM met none of its tokens at the
        token's first sighting (a word enters at its second sighting): one
        with a first-seen token is not stored until its next sighting,
        while one of tokens seen before is stored at once, even if it is
        never seen again. A sentence with no words is stored as None and
        takes no ``sent_idx``; one with no rows as ``()``.
        ``missed_texts``: the call's texts with a sentence that missed the
        memo."""
        self._bound_caches()
        memo, todo, split, known = self._memo, {}, {}, set()
        uniq = list(dict.fromkeys(texts))
        for x, (tk, sents) in zip(uniq, split_texts(uniq, self._tokens, self._admit)):
            keys = split[x] = [(_sent_key(tk.ub, s), s.start) for s in sents]
            for (key, o), s in zip(keys, sents):
                if key not in memo and key not in todo:
                    n = self._door.inserts  # a token at its first sighting inserts
                    todo[key] = (tk.tokenize(s), o)  # missed key → (words, offset)
                    if self._door.inserts == n:
                        known.add(key)
        per_text = [split[x] for x in texts]
        misses = [k for k, (words, _) in todo.items() if words]
        self.missed_texts = sum(any(k in todo for k, _ in keys) for keys in per_text)
        got = dict.fromkeys(todo)  # missed key → its rows, None for no words
        for k, rows in zip(misses, self._link_sentences([todo[k][0] for k in misses])):
            got[k] = tuple(_shift(r, -todo[k][1]) for r in rows)
        memo.update((k, got[k]) for k in known)
        return [[[_shift(r, o) for r in rows] for k, o in keys
                 if (rows := got[k] if k in got else memo[k]) is not None]
                for keys in per_text]

    def _link_sentences(self, sents: list[list]) -> list[list[tuple]]:
        """Each tokenized sentence's ``link`` rows. NER labels every
        sentence; POS labels only those whose spans ``can_form_triple``,
        since ``link`` of any other sentence is []. Each word's ids are
        looked up once, for both."""
        ids = self._word_ids(sents)
        spans = [decode_bio(ner) for ner in self._labels(self.ner_model, ids)]
        todo = [i for i, sp in enumerate(spans) if can_form_triple(sp)]
        out: list[list[tuple]] = [[] for _ in sents]
        for i, praw in zip(todo, self._labels(self.pos_model, [ids[i] for i in todo])):
            ws = sents[i]
            pos = _correct_pos([w.input_type for w in ws], [w.extra for w in ws], praw)
            out[i] = self._link_rows([w.value for w in ws], [w.start for w in ws],
                                     [w.length for w in ws], pos, spans[i])
        return out

    def _labels(self, model, ids: list[tuple]) -> list[list[str]]:
        """``model``'s raw labels of each sentence, forwarded on its
        words' vocabulary ids, the sentences' ``_word_ids``."""
        j = 1 if model is self.ner_model else 0
        return model.predict_ids([s[j] for s in ids])

    def _word_ids(self, sents: list[list]) -> list[tuple]:
        """Each sentence's (POS ids, NER ids): those its words carry from
        the token memo, a placeholder's fixed ids, or ids computed afresh."""
        fixed, new = self._fixed_ids.get, self._model_ids
        return [tuple(zip(*[w.ids or fixed(w.input_type) or new(w.value, w.input_type)
                            for w in ws])) or ((), ()) for ws in sents]

    def _model_ids(self, value: str, input_type: int) -> tuple[int, int]:
        """Both models' vocabulary ids of a word."""
        pos_t, ner_t = to_model_token_pair(value, input_type, self.pos_model.max_ending_length,
                                           self.ner_model.max_ending_length)
        return self.pos_model.src_vocab.id(pos_t), self.ner_model.src_vocab.id(ner_t)

    def _admit(self, key: bytes, entry: tuple | object) -> tuple | object:
        """The FSM's hook for a token-memo miss: the entry with its word's
        ids (a number's marker takes none), stored at the second sighting."""
        if isinstance(entry, tuple):
            entry = (*entry[:3], self._model_ids(entry[0], entry[1]))
        if self._door.seen(hash(key)):
            self._tokens[key] = entry
        return entry

    def _tag(self, sents: list[list]) -> Iterator[Tagged]:
        ids = self._word_ids(sents)
        pos_raw = self._labels(self.pos_model, ids)
        ner_raw = self._labels(self.ner_model, ids)
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
        self._bound_caches()
        return self._link_rows(s.values, s.starts, s.lens, s.pos, decode_bio(s.ner))

    def _link_rows(self, vals, starts, lens, pos, spans) -> list[tuple]:
        lookup, surfaces = self.lookup, self._surfaces
        rows = []
        for ti, tup in enumerate(span_triples(vals, starts, lens, pos, spans)):
            link: tuple = ()
            for surface in (tup[0], tup[3]):
                if (found := surfaces.get(surface)) is None:
                    norm = normalize_surface(surface)
                    found = surfaces[surface] = lookup.get(norm, (NIL, norm))
                link += found
            rows.append((ti,) + tup + link)
        return rows


def _sent_key(ub: bytes, s: Sent) -> bytes | tuple:
    """What a sentence's words are read from: its UTF-16 code units and
    each URL span's start relative to it, code units and type (a span
    may start before the sentence)."""
    o = s.start
    units = ub[2 * o:2 * (o + s.length)]
    return (units, tuple((u.start - o, ub[2 * u.start:2 * (u.start + u.length)], u.type)
                         for u in s.urls)) if s.urls else units


def _shift(row: tuple, d: int) -> tuple:
    """A ``link`` row with its subj_start and obj_start moved by ``d``."""
    return row[:6] + (row[6] + d, row[7], row[8] + d) + row[9:]


@lru_cache(maxsize=1)
def kernel() -> Kernel:
    """This process's kernel of the lexicon-built models: what stateless
    Ray tasks call, so a worker process loads its models once and reuses
    them."""
    return Kernel()


def turn_keys(batch: pa.Table) -> list[tuple]:
    """(conv_id, turn_idx, role) per turn row; role "" when absent."""
    n = batch.num_rows
    role = batch.column("role").to_pylist() if "role" in batch.column_names else [""] * n
    return list(zip(batch.column("conv_id").to_pylist(),
                    batch.column("turn_idx").to_pylist(), role))


def check_turn_keys(batch: pa.Table) -> None:
    """Raise ``ValueError`` naming the column if ``conv_id`` or ``turn_idx``
    holds a null, ``conv_id`` or ``text`` is not a string type (string,
    large_string or a dictionary of either) or ``turn_idx`` is not an
    integer type that fits in int32: every output row carries ``conv_id``
    as a string and ``turn_idx`` as an int32, a turn's partition is a
    function of its ``conv_id``, and the tokenizer reads ``text`` (a null
    one has no sentences)."""
    conv, turn = batch.column("conv_id"), batch.column("turn_idx")
    for col, a in (("conv_id", conv), ("turn_idx", turn)):
        if a.null_count:
            raise ValueError(f"{a.null_count} turn(s) with a null {col}: every turn needs a "
                             "conv_id and a turn_idx")
    for col in ("conv_id", "text"):
        typ = batch.column(col).type
        t = typ.value_type if pa.types.is_dictionary(typ) else typ
        if not (pa.types.is_string(t) or pa.types.is_large_string(t)):
            raise ValueError(f"{col} has type {typ}: it must be a string type")
    if not pa.types.is_integer(turn.type):
        raise ValueError(f"turn_idx has type {turn.type}: it must be an integer type")
    lo, hi = pc.min_max(turn).values()
    if lo.is_valid and not (-(1 << 31) <= lo.as_py() and hi.as_py() < 1 << 31):
        raise ValueError(f"turn_idx holds values in [{lo}, {hi}]: each must fit in int32")


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
