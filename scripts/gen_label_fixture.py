"""Regenerate fixtures/reference_input_labels.json — POS/NER label
sequences for every sentence of the reference's bundled input text, on
both tokenizer dot variants (Simple web path / console batch path).

The lines are ``tests/reference_lines.py:reference_lines()``, the 15
lines rebuilt from fixtures/reference_input_tokens.json, so the script
needs no copy of the reference. From them it rebuilds the fixture byte
for byte: after ``python scripts/gen_label_fixture.py``, ``git diff``
shows nothing.

Hand-review guide (the invariants the snapshot pins, traceable to the
reference's rules):
  * [%NUM%] tokens       -> POS 'Numeral'   (PosTaggerExtensions.cs:23-26)
  * URL/Email tokens     -> POS 'Other'     (PosTaggerExtensions.cs:27-33)
  * punctuation-flagged  -> POS 'Punctuation' (PosTaggerExtensions.cs:34-37)
  * NER classes are BIO over {PER, ORG, LOC} + O (wwwroot/js/main.js:81-89)
  * known mentions from the bundled text: Петербурге/РФ/России/Истра/
    Москве -> LOC, СКР/Минобороны/Транзас -> ORG, Сергея Козлова -> B-PER
    I-PER (standalone Козлов(а/у) -> I-PER: the context-free lexicon maps
    surname forms to the I- slot they occupy in full-name mentions)
"""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from lingvo__postagger_ner_ru_dnn_ray.stages.kernel import Kernel
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import (
    tokenize_text,
    tokenize_text_console,
)
from reference_lines import reference_lines

OUT = os.path.join(os.path.dirname(__file__), "..", "fixtures",
                   "reference_input_labels.json")


def tag(sent_words, k):
    out = k.tag_sentences(sent_words)
    return [s.pos for s in out], [s.ner for s in out]


def main():
    k = Kernel()
    snap = []
    for i, line in enumerate(reference_lines()):
        simple_sents = tokenize_text(line)
        s_pos, s_ner = tag(simple_sents, k)
        console_words = tokenize_text_console(line)
        c_pos, c_ner = tag([console_words], k)
        snap.append({
            "line_idx": i,
            "simple": [
                {"tokens": [w.value for w in ws], "pos": p, "ner": n}
                for ws, p, n in zip(simple_sents, s_pos, s_ner)
            ],
            "console": {
                "tokens": [w.value for w in console_words],
                "pos": c_pos[0],
                "ner": c_ner[0],
            },
        })
    with open(OUT, "w", encoding="utf-8") as f:
        json.dump(snap, f, ensure_ascii=False, indent=1)
    print(f"wrote {OUT}: {len(snap)} lines")


if __name__ == "__main__":
    main()
