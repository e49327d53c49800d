"""Conformance vectors for the textkit layer (FIXTURES.md F2), hand-derived
from the reference rules cited in SURVEY.md §2.2."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lines import reference_lines

from lingvo__postagger_ner_ru_dnn_ray.textkit import xlat
from lingvo__postagger_ner_ru_dnn_ray.textkit.features import (
    EX_COMMA,
    EX_INTEGER_NUMBER,
    EX_PUNCTUATION,
    INPUT_TYPE_NAMES,
    get_input_type,
    to_model_token_str,
)
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import split_texts, tokenize_text
from lingvo__postagger_ner_ru_dnn_ray.textkit.urls import EMAIL, URL


def toks(text, si=0):
    sents = tokenize_text(text)
    return [w.value for w in sents[si]] if sents else []


def sents_of(text):
    """The sentences ``split_texts`` gives ``text``."""
    return next(split_texts([text], {}))[1]


def urls_of(text):
    """The URL spans ``split_texts`` finds in ``text``."""
    return next(split_texts([text], {}))[0].urls


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


# sha256 of each table's 65,536 values as little-endian uint32, pinned from
# the tables as Python lists (CHARTYPE_L, SENTCHARTYPE_L, UPPER_INVARIANT_L,
# and SPECTYPE's numpy table as a list) and as a uint32 array (LOWER_INVARIANT)
_TABLE_DIGESTS = {
    "CHARTYPE": ("H", "748ab8b7d02459164bb352fe9f8cc73b62a679d2e4a42164cc8000eae0f6b5e9"),
    "SENTCHARTYPE": (None, "0eaa1d913f7075aa0056474a708f215ab2f0e2e0ca1c5661ce42b74445c2c4a8"),
    "SPECTYPE": (None, "1198cd606a409b173dbe404e2ed8210463f381c728cb8f681986a8a72f9595ce"),
    "UPPER_INVARIANT": ("H", "f23a264f56dec2a93654504d4b1d75b44c0b73392ac7eefa0c8777266ab14495"),
}
_LOWER_DIGEST = "014a874c4317114018fff053527f307e273829a135b87e38d5f5e6799d624a7c"


def _digest(values) -> str:
    import hashlib

    return hashlib.sha256(np.array(list(values), dtype="<u4").tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(_TABLE_DIGESTS))
def test_compact_tables_hold_the_pinned_values(name):
    """The per-char paths' tables are compact buffers (``array('H')``, or
    ``bytes`` for SENTCHARTYPE and SPECTYPE) that hold, at all 65,536 code
    units, the values pinned from their list form; the numpy table reads
    the same."""
    from array import array

    code, digest = _TABLE_DIGESTS[name]
    compact = getattr(xlat, name + "_L")
    if code is None:
        assert type(compact) is bytes
    else:
        assert type(compact) is array and compact.typecode == code
    assert len(compact) == 0x10000 and _digest(compact) == digest
    assert np.array_equal(getattr(xlat, name), np.array(list(compact)))


def test_case_maps_are_utf16_units():
    """Both case maps are uint16 and LOWER_INVARIANT holds its pinned values."""
    assert xlat.UPPER_INVARIANT.dtype == xlat.LOWER_INVARIANT.dtype == np.uint16
    assert _digest(xlat.LOWER_INVARIANT.tolist()) == _LOWER_DIGEST


# --------------------------- sentence splitter -----------------------------
def test_dot_splits_only_before_newline_or_eof():
    # dot at EOF splits; mid-line dot does not (SentSplitter.cs:571,1566-1582)
    s = "Варкалось. Хливкие шорьки пырялись."
    assert [x.start for x in sents_of(s)] == [0]
    s2 = "Первое предложение.\nВторое предложение."
    got = sents_of(s2)
    assert len(got) == 2
    assert s2[got[0].start : got[0].start + got[0].length] == "Первое предложение."
    # a kept sentence starts at its first word, not at the newline before it
    assert s2[got[1].start : got[1].start + got[1].length] == "Второе предложение."


def test_qmep_split_midline():
    s = "Это так! А это уже второе? И третье…"
    got = sents_of(s)
    assert len(got) == 3


def test_threedot_not_end_before_lowercase():
    # '…' followed by lowercase continues the sentence (IsEndOfSentTDQMEP)
    s = "Он думал… и молчал."
    assert len(sents_of(s)) == 1


def test_all_punct_sent_dropped():
    s = "Хорошо!!! ... \nДа."
    got = sents_of(s)
    texts = [s[x.start : x.start + x.length] for x in got]
    assert texts[0] == "Хорошо!!!"
    assert all("Да." in t or "Хорошо" in t for t in texts)


def test_streets_ends_suppresses_split():
    s = "Wir wohnen an der Muster-Str.\nDas Haus ist neu."
    assert len(sents_of(s)) == 1


# --------------------------- URL detector ----------------------------------
def test_url_by_www():
    u = urls_of("сайт www.example.ru открыт")
    assert len(u) == 1 and u[0].type == URL
    assert "www.example.ru".find("www") == 0


def test_url_by_scheme_and_email():
    u = urls_of("см. http://example.com/path и пишите на info@mail.ru всем")
    types = sorted(x.type for x in u)
    assert URL in types and EMAIL in types


def test_url_by_first_level_domain():
    u = urls_of("адрес example.ru указан")
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

    u = urls_of("напиши на info(at)mail.ru быстро")
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


def test_sentence_split_inside_url_span():
    """The splitter cuts after "http…'/." although the URL "/.ru/Иван"
    starts at unit 6, so the second sentence's first token begins before
    the sentence does. This pins today's behaviour only: it has not been
    checked against the reference's AllocateSents_Simple (SURVEY.md)."""
    text = "http…'/.ru/Иван Смирнов купил Газпром."
    assert urls_of(text) == [(6, 9, URL)]
    got = [[(w.value, w.start, w.length) for w in s] for s in tokenize_text(text)]
    assert got == [
        [("http", 0, 4), ("…", 4, 1), ("'", 5, 1), ("/", 6, 1), (".", 7, 1)],
        [("/.ru/Иван", 6, 9), ("Смирнов", 16, 7), ("купил", 24, 5),
         ("Газпром", 30, 7), (".", 37, 1)],
    ]


# --------------------------- batch front ------------------------------------
def _fields(sents) -> list:
    return [[(w.value, w.start, w.length, w.input_type, w.extra)
             for w in ws] for ws in sents]


def _assert_batch_independent(batches: list[list]) -> None:
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_texts

    for batch in batches:
        got = tokenize_texts(batch)
        assert len(got) == len(batch)
        for text, sents in zip(batch, got):
            assert _fields(sents) == _fields(tokenize_text(text)), text


# texts whose edges are where an in-place read of a batch could cross into
# a neighbour: URLs at a text's first and last unit, astral characters
# (surrogate pairs) at both edges, and empty texts mid-batch
_EDGE_TEXTS = ["www.rbc.ru открыт", "", "𝔘𝔫𝔦 слово 𝔢", "пишите на info@mail.ru", None,
               "сайт http://example.com/path?q=1", "𝔘", "", "www.example.ru"]


def test_front_independent_of_batch_neighbours():
    """Each text's words from a batch front equal the text tokenized
    alone: on the fixture lines, on texts with a URL or an astral character
    at an edge between empty texts, and on the synthetic transcripts in one
    batch longer than a front's slice and in batches cut at odd points."""
    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table

    lines = reference_lines()
    assert len(lines) == 15 and all(tokenize_text(x) for x in lines)
    synth = synth_transcripts_table(300, seed=7).column("text").to_pylist()
    _assert_batch_independent([lines, lines[::-1] + [None, ""] + lines])
    assert urls_of(_EDGE_TEXTS[-1]) == [(0, 14, URL)]
    assert urls_of(_EDGE_TEXTS[3]) == [(10, 12, EMAIL)]
    _assert_batch_independent([_EDGE_TEXTS, _EDGE_TEXTS[::-1], lines[:3] + _EDGE_TEXTS])
    _assert_batch_independent([synth + lines + synth[::-1]])
    _assert_batch_independent([synth[a:b] for a, b in ((0, 7), (7, 120), (120, 121), (121, 300))])


_PIECES = [
    "Вася Козлов посетил Москву.", "Варкалось. Хливкие шорьки пырялись.", "Да! Нет?",
    "в июле 2010г. военный", "на сумму 9,5 млн руб.", "выпущено 100 200 штук", "…",
    "сайт www.example.ru открыт", "см. http://example.com/path?q=1", "info@mail.ru",
    "адрес example.ru/x.", "info(at)mail.ru", "Гло́кая ку́здра", "Ёж é", "𝔘𝔫𝔦 𝔠𝔬𝔡𝔢",
    "С.Козлов", "U.N.", "Str.", ":", ".", " ", "\n", "«Чарт-Пилот»", "слово\xadперенос",
    "www.example.ru", "𝔘",
]
_piece_text = st.lists(
    st.one_of(st.sampled_from(_PIECES),
              st.text(alphabet="абв АБ.:…!?,-–0123456789@/\n w", max_size=12)),
    max_size=8,
).map(" ".join)
_batch_texts = st.lists(st.one_of(st.none(), st.just(""), _piece_text), max_size=14)


@settings(max_examples=120, deadline=None)
@given(_batch_texts, st.lists(st.integers(0, 14), max_size=4))
@example(_EDGE_TEXTS, [3])
def test_front_independent_property(texts, cuts):
    bounds = [0, *sorted(c for c in cuts if c <= len(texts)), len(texts)]
    _assert_batch_independent([texts[a:b] for a, b in zip(bounds, bounds[1:])])


def test_front_allocates_a_few_bytes_per_code_unit():
    """Building one front over 512 synthetic transcripts peaks under 40 B
    of traced memory per UTF-16 code unit: it keeps the code units and the
    jump table as buffers, which each text reads in place. Measured about
    15 B (18 B while it also gathered both class arrays), against about
    110 B when the front held each array as a list of Python ints."""
    import tracemalloc

    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import _Front

    texts = synth_transcripts_table(512, seed=3).column("text").to_pylist()
    units = sum(len(x.encode("utf-16-le")) // 2 for x in texts if x)
    tracemalloc.start()
    try:
        _Front(texts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * units, (peak, units)


_LONG_TURN_TRACE = """
import json, tracemalloc
import pyarrow as pa
from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table
from lingvo__postagger_ner_ru_dnn_ray.stages.fused import kg_stage_fn
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_text

tbl = synth_transcripts_table(64, seed=3)
kg_stage_fn(tbl)  # the stage and its models are built before tracing
base = "\\n".join(x for x in tbl.column("text").to_pylist() if x)
sents = "\\n".join([base] * (300_000 // len(base) + 1))[:300_000]
one = sents.translate({ord(c): " " for c in "\\n!?…"})
assert len(tokenize_text(sents[:2 * len(base)])) > 100
assert len(tokenize_text(one[:2 * len(base)])) == 1
out = {}
for name, turn in (("sents", sents), ("one", one)):
    tracemalloc.start()
    kg_stage_fn(pa.table({"conv_id": ["c"], "turn_idx": [0], "text": [turn]}))
    out[name] = tracemalloc.get_traced_memory()[1] / (len(turn.encode("utf-16-le")) // 2)
    tracemalloc.stop()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def long_turn_peaks() -> dict:
    """Traced peak bytes per UTF-16 code unit of ``kg_stage_fn`` on one
    300,000-unit turn, in a fresh process whose stage is built first:
    ``sents`` repeats the synthetic transcripts (about 6,800 sentences),
    ``one`` is the same turn with every sentence end made a space."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    done = subprocess.run([sys.executable, "-c", _LONG_TURN_TRACE],
                          cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_long_turn_of_sentences_allocates_a_few_bytes_per_code_unit(long_turn_peaks):
    """The tokenizer reads a text's slice of its front in place, so a long
    turn of many sentences peaks under 40 B per code unit. Measured about
    22 B, against about 112 B when each text copied its code units,
    classes and jump table into lists."""
    assert long_turn_peaks["sents"] < 40, long_turn_peaks


def test_long_turn_without_a_sentence_end_allocates_little_per_code_unit(long_turn_peaks):
    """One 300,000-unit sentence: the tokenizer's in-place reads and the
    forward's chunks, which bound their attention scores (B·L²) as well as
    their token slots, keep the peak under 120 B per code unit. Measured
    about 72 B, against about 577 B with both the list copies and chunks
    of 148 pieces of 220 tokens, and about 492 B with the copies gone
    alone."""
    assert long_turn_peaks["one"] < 120, long_turn_peaks


# --------------------------- model token and token memo ---------------------
def _model_token_str_per_char(token: str, max_ending_length: int) -> str:
    """ToPosTaggerToken's string step char by char: the reference for the
    ``str.translate`` form."""
    import unicodedata

    from lingvo__postagger_ner_ru_dnn_ray.textkit.resources import NUM_PLACEHOLDER

    if token == NUM_PLACEHOLDER:
        return NUM_PLACEHOLDER
    chars = []
    for c in token:
        ch = chr(xlat.LOWER_INVARIANT[ord(c)]) if ord(c) < 0x10000 else c
        if ch == "ё":
            ch = "е"
        if unicodedata.category(ch) != "Mn":
            chars.append(ch)
    d = len(chars) - max_ending_length - 1
    return "_" + "".join(chars[d + 1:]) if d >= 0 else "".join(chars)


def test_model_token_equals_per_char_reference():
    """Every BMP code point as a one-char token, and tokens with ё/Ё, a
    combining acute, an astral letter and an astral non-spacing mark, at
    both models' max ending lengths."""
    tokens = [chr(c) for c in range(0x10000)] + [
        "ёлка", "Ёж", "Фёдоров", "Гло́кая", "́", "а́б", "𝔘𝔫𝔦", "следовател𝔢й",
        "\U0001D167", "ку\U0001D167здра", "Ёлка́\U0001D167", "[%NUM%]", "HTTP://X.RU", "",
    ]
    for mel in (4, 10000):
        got = [to_model_token_str(t, mel) for t in tokens]
        assert got == [_model_token_str_per_char(t, mel) for t in tokens]
    assert to_model_token_str("ку\U0001D167здра", 10000) == "куздра"
    assert to_model_token_str("𝔘𝔫𝔦", 10000) == "𝔘𝔫𝔦"


def _memo_texts() -> list[str]:
    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import synth_transcripts_table

    synth = synth_transcripts_table(60, seed=7).column("text").to_pylist()
    return reference_lines() + _PIECES + synth


def test_token_memo_cold_equals_warm():
    """The words of the fixture texts are the same with a cold token memo
    and with the one a kernel warmed by tagging them."""
    from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import tokenize_texts

    texts = _memo_texts()
    cold = [_fields(sents) for sents in tokenize_texts(texts)]
    k = Kernel()
    list(k.tag_texts(texts))
    assert k._tokens  # tagging warmed the kernel's memo
    assert [_fields(sents) for sents in tokenize_texts(texts, k._tokens)] == cold
