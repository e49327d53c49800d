"""Property-based robustness tests (hypothesis) for the textkit layer:
span invariants that must hold for ANY input, including junk unicode."""
from hypothesis import given, settings
from hypothesis import strategies as st

from lingvo__postagger_ner_ru_dnn_ray.textkit import xlat
from lingvo__postagger_ner_ru_dnn_ray.textkit.resources import NUM_PLACEHOLDER
from lingvo__postagger_ner_ru_dnn_ray.textkit.sentsplit import split_sents_simple
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import Word, tokenize_text
from lingvo__postagger_ner_ru_dnn_ray.textkit.urls import allocate_urls

# BMP text incl. cyrillic, punctuation, digits, whitespace
_text = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0xFFFF, blacklist_categories=("Cs",)),
    max_size=200,
)
_ru_text = st.text(
    alphabet="абвгдеё ЖЗИЙ .,!?…«»-–—0123456789:\nwww.ru@АБВ",
    max_size=120,
)


@settings(max_examples=150, deadline=None)
@given(_text)
def test_sents_are_disjoint_ordered_spans(text):
    u = xlat.to_u16(text)
    prev_end = 0
    for s in split_sents_simple(text, u):
        assert 0 <= s.start <= len(u)
        assert s.length > 0
        assert s.start >= prev_end
        assert s.start + s.length <= len(u)
        prev_end = s.start + s.length


@settings(max_examples=150, deadline=None)
@given(_ru_text)
def test_tokens_are_ordered_in_text_spans(text):
    u = xlat.to_u16(text)
    for sent in tokenize_text(text):
        prev_end = -1
        for w in sent:
            assert isinstance(w, Word)
            assert 0 <= w.start < len(u) or w.length == 0
            assert w.start + w.length <= len(u)
            assert w.start >= prev_end  # non-overlapping, sorted
            prev_end = w.start + w.length if w.length > 0 else prev_end
            assert w.value != ""


@settings(max_examples=150, deadline=None)
@given(_ru_text)
def test_non_placeholder_tokens_reconstruct_from_text(text):
    for sent in tokenize_text(text):
        for w in sent:
            if w.value == NUM_PLACEHOLDER:
                continue
            raw = xlat.from_u16(xlat.to_u16(text), w.start, w.length)
            # punctuation canonicalization may rewrite the value; the raw
            # span must still be inside the text and same length
            assert len(raw) == w.length
            if w.value == raw:
                continue
            assert len(w.value) <= max(w.length, 1)


@settings(max_examples=100, deadline=None)
@given(_text)
def test_url_detector_never_crashes_and_spans_valid(text):
    u = xlat.to_u16(text)
    for span in allocate_urls(text, u):
        assert 0 <= span.start < max(1, len(u))
        assert span.length >= 1
        assert span.start + span.length <= len(u)
