"""Rule-based sentence splitter — the *Simple* predict-path variant.

Behavioral re-implementation of SentSplitter.AllocateSents_Simple
(/root/reference/PosTagger/Lingvo.PosTagger.Tokenizing/sentSplitting/SentSplitter.cs:532-819):

  * a sentence ends at '.' only when it is followed by a whitespace run that
    reaches '\\n' or end-of-text (TrySkipWhiteSpacesUntilCRLForEOF, :1566-1582)
  * '…' '?' '!' end a sentence per IsEndOfSentTDQMEP (:1240-1327); trailing
    punctuation is folded into the sentence (SkipFollowPunctuation, :1552-1565)
  * street-name abbreviations ("Str." etc.) before the dot suppress the split
    (TryGetStreetsEnds, :2422-2443)
  * sentences consisting solely of whitespace/punctuation are dropped
    (IsCurrentSentContainsPunctuationOrWhitespace, :2741-2861)
  * URL/e-mail spans are detected first and skipped by the scanner; each is
    attached to the sentence that contains it (:548-559)

In the Simple variant bracket/quote tracking is disabled (the reference
keeps ``_OpenBrakets``/``_OpenQuotas`` at 0 on this path), '\\n' alone does
NOT split, and the mid-line-dot quirk is preserved: after a dot whose
whitespace run does not reach a newline, the scanner resumes one char past
the first non-whitespace char (SentSplitter.cs:571 + :814 interplay).

The sentence-relevant chars ('.', '…', '?', '!') are sparse, so the FSM
visits only their positions: ``sent_end_hits`` finds them with one
vectorized pass (over one text, or over a whole batch of texts that the
tokenizer's front then splits per text), and ``split_sents`` jumps between
them.

Pure function of the text + static resources; safe in stateless Ray tasks.
"""
from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import xlat
from .resources import STREETS_ENDS_COMPLEX_SUFFIX, STREETS_ENDS_SEPARATE
from .urls import UrlSpan

_CT = xlat.CHARTYPE_L          # scalar per-char path
_SC = xlat.SENTCHARTYPE_L
_UP = xlat.UPPER_INVARIANT_L

_WS = xlat.IS_WHITESPACE
_PUNCT = xlat.IS_PUNCTUATION

# (second-to-last, last) upper-invariant code units of every street-end
# entry — a two-char probe rejects non-candidate dots without the
# backward token scan + string build
_STREET_LAST2 = frozenset(
    (ord(s[-2]), ord(s[-1]))
    for s in set(STREETS_ENDS_SEPARATE) | set(STREETS_ENDS_COMPLEX_SUFFIX)
)


class Sent(NamedTuple):
    start: int
    length: int
    urls: tuple[UrlSpan, ...]


_IS_HIT = (xlat.SENTCHARTYPE & (xlat.SC_DOT | xlat.SC_EXCLUDE_IN_BRACKET_AND_QUOTE)) != 0


def sent_end_hits(u16: np.ndarray) -> np.ndarray:
    """Ascending positions of the sentence-relevant chars in ``u16``."""
    return np.flatnonzero(_IS_HIT[u16])


def split_sents(ul: Sequence[int], hits: list[int], urls: list[UrlSpan]) -> list[Sent]:
    """The sentences of the text whose code units are ``ul``, given its
    ``sent_end_hits`` and its URL spans."""
    n = len(ul)

    def ch(i: int) -> int:
        return ul[i] if 0 <= i < n else 0

    sents: list[Sent] = []
    sent_start = 0
    sent_len = 0
    cur_urls: list[UrlSpan] = []

    url_idx = 0
    next_url_start = urls[0].start if urls else 1 << 60

    _BAD = _WS | _PUNCT

    def emit(end: int) -> None:
        nonlocal sent_start, sent_len, cur_urls
        start = sent_start + sent_len
        length = end - start
        if length <= 0:
            return
        # all-punct-or-ws drop check: early-exit scan (almost every kept
        # sentence starts with a letter, so this is O(1) in practice;
        # the dropped ones are short punctuation runs). A kept sentence
        # starts at its first non-whitespace unit, so the same sentence
        # at a text's start and after a newline has the same span text.
        first = -1
        for k in range(start, end):
            ct = _CT[ul[k]]
            if first < 0 and not (ct & _WS):
                first = k
            if not (ct & _BAD):
                sents.append(Sent(first, end - first, tuple(cur_urls)))
                break
        cur_urls = []
        sent_start, sent_len = start, length

    def try_skip_ws_until_crlf_or_eof(i: int) -> tuple[bool, int]:
        i += 1
        while True:
            c = ch(i)
            if c == 0 or (_SC[c] & xlat.SC_UNCONDITIONAL):
                return True, i
            if not (_CT[c] & _WS):
                return False, i
            i += 1

    def left_word_is_street_end(i: int) -> bool:
        # approximation of TokenizeVicinityOfDot + TryGetStreetsEnds for the
        # Simple path: the whitespace-delimited token ending at the dot
        j = i - 1
        while j >= sent_start + sent_len and (_CT[ch(j)] & _WS):
            j -= 1
        end = j
        # fast reject: every street-end entry ends with the same two
        # upper-invariant chars ('E.', 'R.', 'Z.') — skip the back-scan
        # and string build for the overwhelming majority of dots
        if (_UP[ch(end - 1)], _UP[ch(end)]) not in _STREET_LAST2:
            return False
        while j >= sent_start + sent_len and not (_CT[ch(j)] & _WS):
            j -= 1
        if end <= j:
            return False
        w = "".join(chr(_UP[ch(k)]) for k in range(j + 1, end + 1))
        if w in STREETS_ENDS_SEPARATE:
            return True
        return any(len(w) > len(s) and w.endswith(s) for s in STREETS_ENDS_COMPLEX_SUFFIX)

    def is_end_tdqmep(i: int, sct: int) -> bool:
        if sct & xlat.SC_THREE_DOT:
            j = i + 1
            ct = 0
            while True:
                c = ch(j)
                if c == 0:
                    return True
                ct = (_CT[c])
                if (ct & xlat.IS_BRACKET_RIGHT) == xlat.IS_BRACKET_RIGHT:
                    return True  # _OpenBrakets == 0 on the Simple path
                if not (_SC[c] & xlat.SC_AFTER_THREE_DOT_ALLOWED_PUNCT or ct & _WS):
                    break
                j += 1
            return not (ct & xlat.IS_LOWER)
        # '!' / '?' — brackets/quotes counters are all zero on the Simple path
        j = i + 1
        while True:
            c = ch(j)
            if c == 0:
                return True
            ct = (_CT[c])
            if (ct & xlat.IS_BRACKET_LEFT) == xlat.IS_BRACKET_LEFT or (
                ct & xlat.IS_BRACKET_RIGHT
            ) == xlat.IS_BRACKET_RIGHT:
                j += 1
                while True:
                    c = ch(j)
                    if c == 0:
                        return False
                    if _SC[c] & xlat.SC_AFTER_BRACKET_ALLOWED_PUNCT_4QMEP:
                        return False
                    ct = (_CT[c])
                    if not (ct & _WS) and not (ct & _PUNCT):
                        return True
                    j += 1
            if not (ct & _WS) and not (ct & _PUNCT):
                return True
            j += 1

    def skip_follow_punct(i: int) -> int:
        i += 1
        while True:
            c = ch(i)
            if c == 0 or not (_CT[c] & _PUNCT) or (_SC[c] & xlat.SC_UNCONDITIONAL):
                return i
            i += 1

    # the FSM jumps between the hits instead of visiting every
    # character. URL spans are consumed lazily at the first hit
    # at-or-after their start (same relative order as the char-by-char
    # scanner: a span is folded into whatever sentence is open when the
    # scanner passes it).
    i = 0
    for p in hits:
        if p < i:
            continue
        while next_url_start <= p:
            us = urls[url_idx]
            cur_urls.append(us)
            url_idx += 1
            next_url_start = urls[url_idx].start if url_idx < len(urls) else 1 << 60
            url_end = us.start + us.length
            if i < url_end:
                i = url_end
        if p < i:
            continue  # hit lies inside a URL span
        i = p
        sct = _SC[ul[i]]
        if sct & xlat.SC_DOT:
            ok, i2 = try_skip_ws_until_crlf_or_eof(i)
            if ok:
                if left_word_is_street_end(i2):
                    i = i2 + 1
                    continue
                emit(i2)
                i = i2
                continue
            # quirk: scanner resumes one past the first non-ws char
            i = i2 + 1
            continue
        if sct & xlat.SC_EXCLUDE_IN_BRACKET_AND_QUOTE:
            if is_end_tdqmep(i, sct):
                i = skip_follow_punct(i)
                emit(i)
                continue
            i += 1
            continue
        i += 1

    # URL spans past the last hit belong to the final (unemitted) sentence
    while url_idx < len(urls):
        cur_urls.append(urls[url_idx])
        url_idx += 1

    emit(n)
    return sents
