"""Graphemic feature extraction and model-token projection.

Re-implements:
  * PosTaggerInputType / ExtraWordType / PosTaggerOutputType enums
    (.../Tokenizing/Type's/PosTaggerInputType.cs:6-38, ExtraWordType.cs:8-27,
    PosTaggerOutputType.cs:9-36) — string names are the wire format;
  * PosTaggerInputTypeProcessor_En.GetPosTaggerInputType
    (.../Tokenizing/PosTaggerInputTypeProcessor.cs:90-312);
  * Tokenizer.ToPosTaggerToken (.../Tokenizing/Tokenizer.cs:1282-1334) —
    lower-invariant + ё→е + NonSpacingMark strip + `_`-prefixed ending
    truncation at ``max_ending_length`` (mel=4 POS / mel=10000 NER); the
    per-char step is one ``str.translate`` over a table built from
    ``xlat.LOWER_INVARIANT`` and its Mn mask, with a per-char loop for a
    token that holds an astral-plane char. ``to_model_token_pair`` folds a
    word once and cuts both models' endings from that fold.
"""
from __future__ import annotations

import re
import unicodedata
from collections.abc import Sequence

import numpy as np

from . import xlat
from .resources import NUM_PLACEHOLDER, URL_PLACEHOLDER

# --- PosTaggerInputType (PosTaggerInputType.cs:6-38) -----------------------
IT_OTHER = 0
IT_ALL_CAPITAL = 1
IT_LATIN_CAPITAL = 2
IT_MIX_CAPITAL = 3
IT_MIX_CAPITAL_WITH_DOT = 4
IT_NUM_CAPITAL = 5
IT_ONE_CAPITAL = 6
IT_ONE_CAPITAL_WITH_DOT = 7
IT_FIRST_LOWER_WITH_UPPER = 8
IT_QUOTE = 9
IT_NUM = 10
IT_ALL_LATIN_CAPITAL = 11
IT_LATIN_NUM = 12
IT_FIRST_CAPITAL = 13
IT_COMMA = 14
IT_ALL_CAPITAL_WITH_DOT = 15
IT_LATIN_FIRST_CAPITAL = 16
IT_EMAIL = 17
IT_URL = 18

INPUT_TYPE_NAMES = (
    "Other", "AllCapital", "LatinCapital", "MixCapital", "MixCapitalWithDot",
    "NumCapital", "OneCapital", "OneCapitalWithDot", "FirstLowerWithUpper",
    "Quote", "Num", "AllLatinCapital", "LatinNum", "FirstCapital", "Comma",
    "AllCapitalWithDot", "LatinFirstCapital", "Email", "Url",
)

# --- ExtraWordType flags (ExtraWordType.cs:8-27) ----------------------------
EX_OTHER = 0
EX_COMMA = 1
EX_DASH = 1 << 1
EX_COLON = 1 << 2
EX_INTEGER_NUMBER = 1 << 3
EX_PUNCTUATION = 1 << 4
EX_HAS_UMLAUTES = 1 << 5

# --- PosTaggerOutputType (PosTaggerOutputType.cs:9-36) ----------------------
POS_LABELS = (
    "Other", "Noun", "Adjective", "AdjectivePronoun", "PossessivePronoun",
    "Pronoun", "Numeral", "Verb", "Infinitive", "Adverb",
    "AdverbialParticiple", "AdverbialPronoun", "Participle", "Conjunction",
    "Preposition", "Interjection", "Particle", "Article", "AuxiliaryVerb",
    "Predicative", "Punctuation", "Email", "Url",
)
POS_LABEL_TO_ID = {s: i for i, s in enumerate(POS_LABELS)}

# NER BIO labels (README.md:69-100; rendering map WebService wwwroot/js/main.js:81-89)
NER_LABELS = ("O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC")

_CT = xlat.CHARTYPE_L
_ROMAN = frozenset(ord(c) for c in "IVXLCDM")
_UMLAUTS = {ord(c) for c in "äöüÄÖÜß"}


def get_input_type(u: Sequence[int], start: int, length: int) -> tuple[int, int]:
    """Port of PosTaggerInputTypeProcessor_En.GetPosTaggerInputType
    (PosTaggerInputTypeProcessor.cs:90-312) over the code units ``u``."""
    digit = upper = hyphen = punct = lower = dot = roman = 0
    has_umlautes = 0
    for k in range(start, start + length):
        c = u[k]
        ct = _CT[c]
        if ct & xlat.IS_DIGIT:
            digit += 1
        elif ct & xlat.IS_LOWER:
            lower += 1
            if c in _UMLAUTS:
                has_umlautes = EX_HAS_UMLAUTES
        elif ct & xlat.IS_UPPER:
            upper += 1
            if c in _UMLAUTS:
                has_umlautes = EX_HAS_UMLAUTES
            elif c in _ROMAN:
                roman += 1
        elif ct & xlat.IS_HYPHEN:
            hyphen += 1
            punct += 1
        elif xlat.is_dot(c):
            dot += 1
            punct += 1
        elif ct & xlat.IS_PUNCTUATION:
            punct += 1

    first_c = int(u[start])
    first_ct = _CT[first_c]
    is_first_upper = length > 1 and (first_ct & xlat.IS_UPPER)

    if dot == 0 and digit != 0:
        if is_first_upper:
            return IT_NUM_CAPITAL, has_umlautes
        if length > 1 and upper != 0:
            for k in range(start + 1, start + length):
                ct = _CT[u[k]]
                if ct & xlat.IS_UPPER:
                    return IT_NUM_CAPITAL, has_umlautes
                if ct & xlat.IS_LOWER:
                    break

    if upper != 0:
        if upper > 1:
            if dot == 0:
                if roman == length or roman + hyphen == length:
                    return IT_LATIN_CAPITAL, has_umlautes
                if upper == length or upper + hyphen == length:
                    return IT_ALL_CAPITAL, has_umlautes
            else:
                if upper + dot == length and hyphen == 0:
                    return IT_ALL_CAPITAL_WITH_DOT, has_umlautes
                if upper + dot == length or upper + dot + hyphen == length:
                    return IT_MIX_CAPITAL_WITH_DOT, has_umlautes
        if dot == 0 and (roman == length or roman + hyphen == length):
            return IT_LATIN_CAPITAL, has_umlautes
        if upper == 1 and length == 1:
            return IT_ONE_CAPITAL, has_umlautes
        if dot == 1:
            if length == 2 and (first_ct & xlat.IS_UPPER):
                return IT_ONE_CAPITAL_WITH_DOT, has_umlautes
            if (
                length == 3
                and (first_ct & xlat.IS_HYPHEN)
                and (_CT[u[start + 1]] & xlat.IS_UPPER)
            ):
                return IT_ONE_CAPITAL_WITH_DOT, has_umlautes
        if first_ct & xlat.IS_UPPER:
            if upper == 1 and lower + 1 == length:
                return IT_LATIN_FIRST_CAPITAL, has_umlautes
            return IT_MIX_CAPITAL, has_umlautes
        if first_ct & xlat.IS_LOWER:
            if digit == 0 and dot == 0:
                return IT_FIRST_LOWER_WITH_UPPER, has_umlautes

    if (first_ct & xlat.IS_QUOTE) == xlat.IS_QUOTE:
        return IT_QUOTE, EX_PUNCTUATION | has_umlautes

    if lower == 0 and upper == 0 and digit != 0:
        extra = EX_INTEGER_NUMBER if length == digit else EX_OTHER
        return IT_NUM, extra | has_umlautes

    if punct != 0:
        if length == 1:
            if first_ct & xlat.IS_HYPHEN:
                extra = EX_DASH
            elif first_c == ord(":"):
                extra = EX_COLON
            elif first_c == ord(","):
                extra = EX_COMMA
            else:
                extra = EX_OTHER
        elif lower != 0 or upper != 0:
            return IT_OTHER, EX_OTHER | has_umlautes
        else:
            extra = EX_OTHER
        return IT_OTHER, extra | EX_PUNCTUATION | has_umlautes

    return IT_OTHER, has_umlautes


_LO = xlat.LOWER_INVARIANT


def to_model_token(value: str, input_type: int, max_ending_length: int) -> str:
    """Tokenizer.ToPosTaggerToken (Tokenizer.cs:1282-1334)."""
    return to_model_token_pair(value, input_type, max_ending_length, max_ending_length)[0]


def _model_token_table() -> dict[int, str | None]:
    """The ``str.translate`` table of ToPosTaggerToken's per-char step on the
    BMP: lower-invariant (LOWER_INVARIANT already folds ё→е), then drop the
    char if the lowered one is a non-spacing mark (Mn). Only the code points
    that change are in it."""
    drop = xlat.NON_SPACING_MARK[_LO]
    changed = np.flatnonzero((_LO != np.arange(len(_LO))) | drop).tolist()
    return {c: None if drop[c] else chr(_LO[c]) for c in changed}


_MODEL_TOKEN_TABLE = _model_token_table()
_ASTRAL = re.compile("[\U00010000-\U0010ffff]").search


def _fold(token: str) -> str:
    """ToPosTaggerToken's per-char step: lower-invariant, ё→е, Mn dropped."""
    if _ASTRAL(token) is None:
        return token.translate(_MODEL_TOKEN_TABLE)
    chars = []  # astral plane: per char; only BMP chars are lowered
    for c in token:
        ch = chr(_LO[ord(c)]) if ord(c) < 0x10000 else c
        if ch == "ё":
            ch = "е"
        if unicodedata.category(ch) != "Mn":  # NonSpacingMark
            chars.append(ch)
    return "".join(chars)


def _ending(s: str, max_ending_length: int) -> str:
    """A fold longer than ``max_ending_length`` becomes "_" + its ending."""
    if len(s) > max_ending_length:
        return "_" + s[len(s) - max_ending_length :]
    return s


def to_model_token_str(token: str, max_ending_length: int) -> str:
    """ToPosTaggerToken of a word whose input type does not make it a
    placeholder (``to_model_token`` decides that first)."""
    return to_model_token_pair(token, IT_OTHER, max_ending_length, max_ending_length)[0]


def to_model_token_pair(value: str, input_type: int, mel_a: int, mel_b: int) -> tuple[str, str]:
    """ToPosTaggerToken of one word at max ending lengths ``mel_a`` and
    ``mel_b`` (the kernel's POS and NER models), folding ``value`` once: by
    input type first (Num → the num placeholder, Url/Email → the URL
    placeholder), by value otherwise."""
    if input_type == IT_NUM:
        return NUM_PLACEHOLDER, NUM_PLACEHOLDER
    if input_type in (IT_URL, IT_EMAIL):
        return URL_PLACEHOLDER, URL_PLACEHOLDER
    if value == NUM_PLACEHOLDER:
        return NUM_PLACEHOLDER, NUM_PLACEHOLDER
    s = _fold(value)
    return _ending(s, mel_a), _ending(s, mel_b)
