"""Property-based robustness tests (hypothesis) for the textkit layer:
span invariants that must hold for ANY input, including junk unicode."""
from hypothesis import given, settings
from hypothesis import strategies as st

from lingvo__postagger_ner_ru_dnn_ray.textkit import xlat
from lingvo__postagger_ner_ru_dnn_ray.textkit.resources import NUM_PLACEHOLDER
from lingvo__postagger_ner_ru_dnn_ray.textkit.sentsplit import Sent
from lingvo__postagger_ner_ru_dnn_ray.textkit.tokenizer import Word, split_texts, tokenize_text

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
    for s in next(split_texts([text], {}))[1]:
        assert 0 <= s.start <= len(u)
        assert s.length > 0
        assert s.start >= prev_end
        assert s.start + s.length <= len(u)
        assert not (xlat.CHARTYPE[u[s.start]] & xlat.IS_WHITESPACE)
        prev_end = s.start + s.length


@settings(max_examples=150, deadline=None)
@given(_ru_text | _text)
def test_leading_whitespace_adds_no_words(text):
    """A sentence starts at its first non-whitespace unit; the same
    sentence extended back over the whitespace before it tokenizes to the
    same words."""
    def words(tk, s):
        return [(w.value, w.start, w.length, w.input_type, w.extra) for w in tk.tokenize(s)]

    tk, sents = next(split_texts([text], {}))
    for s in sents:
        j = s.start
        while j > 0 and xlat.CHARTYPE[tk.ul[j - 1]] & xlat.IS_WHITESPACE:
            j -= 1
        longer = Sent(j, s.start + s.length - j, s.urls)
        assert words(tk, longer) == words(tk, s)


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
            raw = text.encode("utf-16-le")[2 * w.start:2 * (w.start + w.length)].decode(
                "utf-16-le", "surrogatepass")
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
    for span in next(split_texts([text], {}))[0].urls:
        assert 0 <= span.start < max(1, len(u))
        assert span.length >= 1
        assert span.start + span.length <= len(u)
