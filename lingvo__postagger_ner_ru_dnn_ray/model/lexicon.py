"""Deterministic Russian lexicon: the in-sandbox stand-in for the trained
POS / NER model artifacts and the canonical entity dictionary.

The word material mirrors the linguistic patterns of the reference's bundled
test text ([resources]/input-text/input_pos_tagger_ru.txt — person names
with patronymic-style inflection, «quoted» org names, geo names, numerics
like "2010г." / "9,5 млн руб.", URLs/e-mails). POS categories are the
reference's 20-class custom set (PosTaggerOutputType.cs:9-36); NER tags the
BIO set B/I × PER/ORG/LOC + O (README.md:69-100).

From this lexicon we derive:
  * token→POS-label map over mel=4 word *endings* (predict_pos.json:8-9)
  * token→NER-label map over whole normalized words (predict_ner.json:6-7)
  * the canonical entity dictionary (entity_id, canonical, type,
    surface_forms) used by the linking stage.

Everything is a module-level constant — loaded once per worker process.
"""
from __future__ import annotations

from functools import lru_cache

from ..textkit.features import NER_LABELS, POS_LABELS, to_model_token_str

# (canonical, [(first_form, last_form) per case: nom, gen, dat]) — male-style
# regular declension; forms are what templates interpolate.
PERSONS: list[tuple[str, list[tuple[str, str]]]] = [
    ("Сергей Козлов", [("Сергей", "Козлов"), ("Сергея", "Козлова"), ("Сергею", "Козлову")]),
    ("Иван Смирнов", [("Иван", "Смирнов"), ("Ивана", "Смирнова"), ("Ивану", "Смирнову")]),
    ("Павел Орлов", [("Павел", "Орлов"), ("Павла", "Орлова"), ("Павлу", "Орлову")]),
    ("Дмитрий Волков", [("Дмитрий", "Волков"), ("Дмитрия", "Волкова"), ("Дмитрию", "Волкову")]),
    ("Алексей Петров", [("Алексей", "Петров"), ("Алексея", "Петрова"), ("Алексею", "Петрову")]),
    ("Никита Фёдоров", [("Никита", "Фёдоров"), ("Никиту", "Фёдорова"), ("Никите", "Фёдорову")]),
    ("Виктор Нечаев", [("Виктор", "Нечаев"), ("Виктора", "Нечаева"), ("Виктору", "Нечаеву")]),  # NIL: absent from entity dict
]

# single-token orgs (keep one token so a context-free tagger can BIO them)
ORGS: list[tuple[str, list[str]]] = [
    ("Газпром", ["Газпром", "Газпрома", "Газпрому"]),
    ("Транзас", ["Транзас", "Транзаса", "Транзасу"]),
    ("Сбербанк", ["Сбербанк", "Сбербанка", "Сбербанку"]),
    ("Яндекс", ["Яндекс", "Яндекса", "Яндексу"]),
    ("Роснефть", ["Роснефть", "Роснефти"]),
    ("Минобороны", ["Минобороны"]),
    ("СКР", ["СКР"]),
]

LOCS: list[tuple[str, list[str]]] = [
    ("Москва", ["Москва", "Москвы", "Москве", "Москву"]),
    ("Петербург", ["Петербург", "Петербурга", "Петербурге"]),
    ("Россия", ["Россия", "России", "Россию"]),
    ("РФ", ["РФ"]),
    ("Истра", ["Истра", "Истры", "Истре"]),
    ("Казань", ["Казань", "Казани"]),
    ("Новгород", ["Новгород", "Новгорода", "Новгороде"]),
]

VERBS = [
    "возглавляет", "возглавил", "купил", "продал", "основал", "посетил",
    "заявил", "направил", "встретил", "обвинил", "поддержал", "проверил",
]
NOUNS = [
    "приказ", "договор", "квартира", "ущерб", "суд", "дело", "карта",
    "компания", "расследование", "чиновник", "офицер", "штаб", "сумма",
    "руб", "млн", "тыс", "год", "июль", "данные", "следователи", "иск",
]
ADJECTIVES = ["военный", "новый", "крупный", "уголовный", "навигационный", "жилищный"]
PREPOSITIONS = ["в", "на", "с", "по", "от", "для", "против", "перед"]
CONJUNCTIONS = ["и", "или", "но", "что", "как"]
PRONOUNS = ["он", "она", "это", "его", "их"]
ADVERBS = ["также", "позднее", "необоснованно", "свыше", "более"]
PARTICLES = ["не", "же", "бы"]

_CATEGORY_POS: list[tuple[list[str], str]] = [
    (VERBS, "Verb"),
    (NOUNS, "Noun"),
    (ADJECTIVES, "Adjective"),
    (PREPOSITIONS, "Preposition"),
    (CONJUNCTIONS, "Conjunction"),
    (PRONOUNS, "Pronoun"),
    (ADVERBS, "Adverb"),
    (PARTICLES, "Particle"),
]


def _iter_word_labels():
    """(surface_word, pos_label, ner_label) over every lexicon form."""
    for _canon, forms in PERSONS:
        for first, last in forms:
            yield first, "Noun", "B-PER"
            yield last, "Noun", "I-PER"
    for _canon, forms in ORGS:
        for f in forms:
            yield f, "Noun", "B-ORG"
    for _canon, forms in LOCS:
        for f in forms:
            yield f, "Noun", "B-LOC"
    for words, pos in _CATEGORY_POS:
        for w in words:
            yield w, pos, "O"


@lru_cache(maxsize=1)
def pos_token_label() -> dict[str, str]:
    """model-token (mel=4 ending) → POS label; first assignment wins
    deterministically (iteration order is the fixed lexicon order)."""
    out: dict[str, str] = {}
    for w, pos, _ner in _iter_word_labels():
        t = to_model_token_str(w, 4)
        out.setdefault(t, pos)
    return out


@lru_cache(maxsize=1)
def ner_token_label() -> dict[str, str]:
    """model-token (whole normalized word, mel=10000) → NER BIO label."""
    out: dict[str, str] = {}
    for w, _pos, ner in _iter_word_labels():
        t = to_model_token_str(w, 10000)
        out.setdefault(t, ner)
    return out


@lru_cache(maxsize=1)
def entity_dictionary() -> list[dict]:
    """F4 canonical entity dictionary (FIXTURES.md). ~90% of generated
    mentions link; the last PERSON is deliberately absent (NIL path)."""
    rows: list[dict] = []

    def norm(s: str) -> str:
        return to_model_token_str(s, 10000)

    k = 0
    for canon, forms in PERSONS[:-1]:  # last person stays NIL
        surfaces = sorted({norm(f"{f} {l}") for f, l in forms} | {norm(l) for _, l in forms})
        rows.append({"entity_id": f"P{k:04d}", "canonical": canon, "type": "PER", "surface_forms": surfaces})
        k += 1
    for canon, forms in ORGS:
        rows.append({"entity_id": f"O{k:04d}", "canonical": canon, "type": "ORG",
                     "surface_forms": sorted({norm(f) for f in forms})})
        k += 1
    for canon, forms in LOCS:
        rows.append({"entity_id": f"L{k:04d}", "canonical": canon, "type": "LOC",
                     "surface_forms": sorted({norm(f) for f in forms})})
        k += 1
    return rows


@lru_cache(maxsize=1)
def taggers():
    """The two deterministic models (POS mel=4, NER mel=10000) — built once
    per process; actors call this in __init__."""
    from .tagger import build_lexical_tagger

    pos = build_lexical_tagger(pos_token_label(), POS_LABELS, max_ending_length=4, seed=42)
    ner = build_lexical_tagger(ner_token_label(), NER_LABELS, max_ending_length=10000, seed=43)
    return pos, ner
