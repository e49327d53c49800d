"""Conformance vectors for the textkit layer (FIXTURES.md F2), hand-derived
from the reference rules cited in SURVEY.md §2.2."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lingvo__postagger_ner_ru_dnn_ray.textkit import xlat
from lingvo__postagger_ner_ru_dnn_ray.textkit.features import (
    EX_COMMA,
    EX_INTEGER_NUMBER,
    EX_PUNCTUATION,
    INPUT_TYPE_NAMES,
    get_input_type,
    to_model_token_str,
)
from lingvo__postagger_ner_ru_dnn_ray.textkit.sentsplit import split_sents_simple
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text
from lingvo__postagger_ner_ru_dnn_ray.textkit.urls import EMAIL, URL, allocate_urls


def toks(text, si=0):
    sents = tokenize_text(text)
    return [w.value for w in sents[si]] if sents else []


# --------------------------- xlat ------------------------------------------
def test_upper_map_yo_folding():
    assert xlat.upper_invariant("ёлка Ёж") == "ЕЛКА ЕЖ"
    assert xlat.lower_invariant("Ёж") == "еж"


def test_chartype_flags():
    ct = xlat.CHARTYPE
    assert ct[ord("А")] & xlat.IS_UPPER
    assert ct[ord("я")] & xlat.IS_LOWER
    assert ct[ord("5")] & xlat.IS_DIGIT
    assert ct[ord(" ")] & xlat.IS_WHITESPACE
    assert ct[ord(",")] & xlat.IS_PUNCTUATION
    for h in "-—–":
        assert ct[ord(h)] & xlat.IS_HYPHEN
    assert (ct[ord("«")] & xlat.IS_QUOTE_LEFT) == xlat.IS_QUOTE_LEFT
    assert (ct[ord("(")] & xlat.IS_BRACKET_LEFT) == xlat.IS_BRACKET_LEFT
    # non-ascii punct is a URL break; ascii punct is not
    assert ct[ord("«")] & xlat.IS_URL_BREAK
    assert not (ct[ord(".")] & xlat.IS_URL_BREAK)


# --------------------------- sentence splitter -----------------------------
def test_dot_splits_only_before_newline_or_eof():
    # dot at EOF splits; mid-line dot does not (SentSplitter.cs:571,1566-1582)
    s = "Варкалось. Хливкие шорьки пырялись."
    assert [x.start for x in split_sents_simple(s)] == [0]
    s2 = "Первое предложение.\nВторое предложение."
    got = split_sents_simple(s2)
    assert len(got) == 2
    assert s2[got[0].start : got[0].start + got[0].length] == "Первое предложение."


def test_qmep_split_midline():
    s = "Это так! А это уже второе? И третье…"
    got = split_sents_simple(s)
    assert len(got) == 3


def test_threedot_not_end_before_lowercase():
    # '…' followed by lowercase continues the sentence (IsEndOfSentTDQMEP)
    s = "Он думал… и молчал."
    assert len(split_sents_simple(s)) == 1


def test_all_punct_sent_dropped():
    s = "Хорошо!!! ... \nДа."
    got = split_sents_simple(s)
    texts = [s[x.start : x.start + x.length] for x in got]
    assert texts[0] == "Хорошо!!!"
    assert all("Да." in t or "Хорошо" in t for t in texts)


def test_streets_ends_suppresses_split():
    s = "Wir wohnen an der Muster-Str.\nDas Haus ist neu."
    assert len(split_sents_simple(s)) == 1


# --------------------------- URL detector ----------------------------------
def test_url_by_www():
    u = allocate_urls("сайт www.example.ru открыт")
    assert len(u) == 1 and u[0].type == URL
    assert "www.example.ru".find("www") == 0


def test_url_by_scheme_and_email():
    u = allocate_urls("см. http://example.com/path и пишите на info@mail.ru всем")
    types = sorted(x.type for x in u)
    assert URL in types and EMAIL in types


def test_url_by_first_level_domain():
    u = allocate_urls("адрес example.ru указан")
    assert len(u) == 1


# --------------------------- tokenizer -------------------------------------
def test_num_collapse_with_unit_suffix():
    assert toks("в июле 2010г. было") == ["в", "июле", "[%NUM%]", ".", "было"]
    # plain year + consecutive numbers collapse into a single placeholder
    assert toks("выпущено 100 200 штук") == ["выпущено", "[%NUM%]", "штук"]


def test_num_decimal_and_time():
    assert toks("более 9,5 млн руб") == ["более", "[%NUM%]", "млн", "руб"]
    assert toks("в 8:45 утра") == ["в", "[%NUM%]", "утра"]
    assert toks("число 2.456.542 большое") == ["число", "[%NUM%]", "большое"]


def test_hyphen_always_splits_but_soft_chars_kept():
    assert toks("контр-адмирал") == ["контр", "-", "адмирал"]
    assert toks("AT&T и snake_case") == ["AT&T", "и", "snake_case"]


def test_dot_unstick_unless_digit_follows():
    assert toks("С.Козлов") == ["С", ".", "Козлов"]
    assert toks("версия v.2 готова")[:3] == ["версия", "v.2", "готова"][:3]


def test_punctuation_merge_and_canon():
    assert toks("Что -- это?!") == ["Что", "-", "это", "?", "!"]
    assert toks("скобки ,, и '' здесь") == ["скобки", ",", "и", '"', "здесь"]
    assert toks("многоточие ... конец") == ["многоточие", "...", "конец"]


def test_exotic_quotes_canonicalized():
    assert toks("«Транзас»") == ['"', "Транзас", '"']
    assert toks("„слово“") == ['"', "слово", '"']


def test_url_tokens_merged_in_order():
    got = toks("сайт www.example.ru открыт")
    assert got == ["сайт", "www.example.ru", "открыт"]


def test_trailing_singlecap_dot():
    got = toks("Против С. Козлова возбуждено дело")
    assert got[:4] == ["Против", "С", ".", "Козлова"]


# --------------------------- input types -----------------------------------
@pytest.mark.parametrize(
    "word,expected",
    [
        ("NATO", "AllCapital"),
        ("U.N.", "AllCapitalWithDot"),
        ("XXI", "LatinCapital"),
        ("G8", "NumCapital"),
        ("iPod", "FirstLowerWithUpper"),
        ("F", "OneCapital"),
        ("F.", "OneCapitalWithDot"),
        ("Thatcher", "LatinFirstCapital"),
        ("Вася", "LatinFirstCapital"),
        ("2,4", "Num"),
        ("10000", "Num"),
        ("8:45", "Num"),
        ("«", "Quote"),
        ("слово", "Other"),
        ("St.-Petersburg", "MixCapital"),
        # note: "V.IVI.PA" (the reference's mixCP comment example) actually
        # hits the allCP branch first in the C# code; a hyphen forces mixCP
        ("V.IVI.PA", "AllCapitalWithDot"),
        ("V.IVI-PA", "MixCapitalWithDot"),
    ],
)
def test_input_types(word, expected):
    u = xlat.to_u16(word)
    it, _ = get_input_type(u, 0, len(u))
    assert INPUT_TYPE_NAMES[it] == expected


def test_extra_flags():
    u = xlat.to_u16(",")
    it, ex = get_input_type(u, 0, 1)
    assert ex & EX_COMMA and ex & EX_PUNCTUATION
    u = xlat.to_u16("12345")
    _, ex = get_input_type(u, 0, 5)
    assert ex & EX_INTEGER_NUMBER


# --------------------------- model token -----------------------------------
def test_model_token_ending_truncation():
    # mel=4: keep last 4 chars prefixed '_' (Tokenizer.cs:1282-1334)
    assert to_model_token_str("следователей", 4) == "_елей"
    assert to_model_token_str("год", 4) == "год"
    assert to_model_token_str("годы", 4) == "годы"
    assert to_model_token_str("годик", 4) == "_одик"


def test_model_token_accent_strip_and_yo():
    assert to_model_token_str("Гло́кая", 10000) == "глокая"
    assert to_model_token_str("Фёдоров", 10000) == "федоров"


# --------------------------- console (plain) variant ------------------------
def test_console_variant_dot_handling():
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text_console

    # dot kept in word, uppercase-next flushes (Tokenizer.cs:491-497)
    got = [w.value for w in tokenize_text_console("Против С.Козлова дело.")]
    assert got == ["Против", "С.", "Козлова", "дело", "."]
    # "2010г." stays one token -> NUM with unit suffix
    got = [w.value for w in tokenize_text_console("в июле 2010г. военный")]
    assert got == ["в", "июле", "[%NUM%]", "военный"]
    # whole line is one sentence: no split at "! "
    got = [w.value for w in tokenize_text_console("Да! Нет.")]
    assert got == ["Да", "!", "Нет", "."]


def test_console_variant_one_capital_with_dot():
    from lingvo__postagger_ner_ru_dnn_ray.textkit.features import INPUT_TYPE_NAMES
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text_console

    words = tokenize_text_console("Против С.Козлова")
    it = {w.value: INPUT_TYPE_NAMES[w.input_type] for w in words}
    assert it["С."] == "OneCapitalWithDot"


# --------------------------- additional parity vectors ----------------------
def test_soft_hyphen_kept_degree_currency_split():
    assert toks("слово\xadперенос") == ["слово\xadперенос"]  # BLD soft hyphen
    assert toks("температура 25° мороза") == ["температура", "[%NUM%]", "°", "мороза"]
    assert toks("цена 100$ или 50€") == ["цена", "[%NUM%]", "$", "или", "[%NUM%]", "€"]
    assert toks("снег№5 и 10%") == ["снег", "№", "[%NUM%]", "и", "[%NUM%]", "%"]
    assert toks("a/b тест") == ["a", "/", "b", "тест"]
    assert toks("тел./факс 123") == ["тел", ".", "/", "факс", "[%NUM%]"]


def test_email_with_at_pattern():
    from lingvo__postagger_ner_ru_dnn_ray.textkit.urls import EMAIL

    u = allocate_urls("напиши на info(at)mail.ru быстро")
    assert len(u) == 1 and u[0].type == EMAIL
    assert toks("напиши на info(at)mail.ru быстро") == [
        "напиши", "на", "info(at)mail.ru", "быстро",
    ]


def test_num_collapse_length_fixup_quirk():
    """Consecutive-number collapse: the placeholder's span extends through
    the LAST number only when a non-number word follows (Tokenizer.cs:
    948-962); at sentence end it keeps the first number's span."""
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text as tt

    w_end = tt("выпущено 100 200")[0][-1]
    assert (w_end.value, w_end.start, w_end.length) == ("[%NUM%]", 9, 3)
    w_mid = [x for x in tt("выпущено 100 200 штук")[0] if x.value == "[%NUM%]"][0]
    assert (w_mid.start, w_mid.length) == (9, 7)


# --------------------------- batch front ------------------------------------
def _fixture_lines() -> list[str]:
    """The 15 lines of fixtures/reference_input_tokens.json, rebuilt from
    their console tokens (spans over spaces; a number placeholder becomes
    digits of its length)."""
    import json
    from pathlib import Path

    fx = Path(__file__).resolve().parents[1] / "fixtures" / "reference_input_tokens.json"
    lines = []
    for line in json.loads(fx.read_text(encoding="utf-8")):
        chars = [" "] * max(w["s"] + w["l"] for w in line["console"])
        for w in line["console"]:
            v = w["v"] if len(w["v"]) == w["l"] else "7" * w["l"]
            chars[w["s"]:w["s"] + w["l"]] = v
        lines.append("".join(chars))
    return lines


def _fields(sents) -> list:
    return [[(w.value, w.upper, w.start, w.length, w.input_type, w.extra, w.upper_umlauts)
             for w in ws] for ws in sents]


def _assert_batch_independent(batches: list[list]) -> None:
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_texts

    for batch in batches:
        got = tokenize_texts(batch)
        assert len(got) == len(batch)
        for text, sents in zip(batch, got):
            assert _fields(sents) == _fields(tokenize_text(text)), text


def test_front_independent_of_batch_neighbours():
    """Each text's words from a batch front equal the text tokenized
    alone: on the fixture lines, and on the synthetic transcripts in one
    batch longer than a front's slice and in batches cut at odd points."""
    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table

    lines = _fixture_lines()
    assert len(lines) == 15 and all(tokenize_text(x) for x in lines)
    synth = synth_transcripts_table(300, seed=7).column("text").to_pylist()
    _assert_batch_independent([lines, lines[::-1] + [None, ""] + lines])
    _assert_batch_independent([synth + lines + synth[::-1]])
    _assert_batch_independent([synth[a:b] for a, b in ((0, 7), (7, 120), (120, 121), (121, 300))])


_PIECES = [
    "Вася Козлов посетил Москву.", "Варкалось. Хливкие шорьки пырялись.", "Да! Нет?",
    "в июле 2010г. военный", "на сумму 9,5 млн руб.", "выпущено 100 200 штук", "…",
    "сайт www.example.ru открыт", "см. http://example.com/path?q=1", "info@mail.ru",
    "адрес example.ru/x.", "info(at)mail.ru", "Гло́кая ку́здра", "Ёж é", "𝔘𝔫𝔦 𝔠𝔬𝔡𝔢",
    "С.Козлов", "U.N.", "Str.", ":", ".", " ", "\n", "«Чарт-Пилот»", "слово\xadперенос",
]
_piece_text = st.lists(
    st.one_of(st.sampled_from(_PIECES),
              st.text(alphabet="абв АБ.:…!?,-–0123456789@/\n w", max_size=12)),
    max_size=8,
).map(" ".join)
_batch_texts = st.lists(st.one_of(st.none(), st.just(""), _piece_text), max_size=14)


@settings(max_examples=120, deadline=None)
@given(_batch_texts, st.lists(st.integers(0, 14), max_size=4))
def test_front_independent_property(texts, cuts):
    bounds = [0, *sorted(c for c in cuts if c <= len(texts)), len(texts)]
    _assert_batch_independent([texts[a:b] for a, b in zip(bounds, bounds[1:])])
