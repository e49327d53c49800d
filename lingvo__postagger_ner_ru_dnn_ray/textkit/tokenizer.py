"""Char-FSM tokenizer — the *Simple* (sentence-API) variant.

Behavioral re-implementation of the reference Tokenizer's
SentSplitterProcessSentCallback_Simple path
(/root/reference/PosTagger/Lingvo.PosTagger.Tokenizing/Tokenizing/Tokenizer.cs):

  * main/tail scan regions split at the last letter-or-digit, with the
    keep-dot-after-single-capital quirk (SkipNonLetterAndNonDigitToTheEnd,
    :985-1012)
  * a dot is always detached unless followed by a digit (:732-744)
  * '&' '_' soft-hyphen '‒' '―' '‘' '‛' kept between letters/digits; true
    hyphens always split (:747-788, IsBetweenLetterOrDigit :1014-1046)
  * '"' ',' ':' '〃' kept between digits (IsBetweenDigit :1047-1079)
  * ~50 chars always tokenized separately (UnsafeConst table :101-145)
  * runs of the same punctuation char merge, incl. interior whitespace
    (MergePunctuation :1131-1171)
  * digits+punctuation tokens (incl. unit suffixes г/кг/см/км/тыс/млн)
    collapse to the [%NUM%] placeholder; consecutive number words collapse
    into one (:887-936, IsDigits_WithPunctuations_WithSpecEnds :1193-1211)
  * single-char exotic punctuation canonicalized (Clear_valueOriginal
    :1213-1278)
  * URL spans re-enter the word list sorted by startIndex (:314-351)

``split_texts`` splits a batch. Its front (``_Front``) does the
character work once per slice of ``_FRONT_TEXTS`` texts: the UTF-16
encode, the FSM's jump table and the URL-trigger and sentence-end scans,
kept as buffers. Each text reads its own slice of them in place, through
``memoryview``s that its URL scanner, sentence splitter and FSM index, and
reads a code unit's classes from xlat's compact tables; so a text's tokens
do not depend on its batch neighbours, and neither the front nor a text
holds a Python int per code unit. ``tokenize_text`` is a one-text batch.

Pure function of text + static LUTs: run as stateless Ray tasks; the LUTs
are module-level singletons built once per worker process.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate

import numpy as np

from . import xlat
from .features import (
    EX_INTEGER_NUMBER,
    EX_PUNCTUATION,
    IT_EMAIL,
    IT_NUM,
    IT_URL,
    get_input_type,
)
from .resources import DIGITS_SPEC_ENDS, NUM_PLACEHOLDER
from .sentsplit import Sent, sent_end_hits, split_sents
from .urls import EMAIL, scan_urls, url_triggers

_CT = xlat.CHARTYPE_L          # scalar per-char path
_SP = xlat.SPECTYPE_L
_UP = xlat.UPPER_INVARIANT_L

_WS = xlat.IS_WHITESPACE
_LD = xlat.IS_LETTER | xlat.IS_DIGIT

_KEEP_PUNCT_1 = frozenset(ord(c) for c in ":.,;?!()/%&…")
_KEEP_QUOTE_1 = frozenset(ord(c) for c in "\"'[]")

# chars the FSM must inspect: whitespace or any SPECTYPE flag; the plain
# letter/digit runs between them are consumed in one jump
_INSPECT = ((xlat.CHARTYPE & _WS) != 0) | (xlat.SPECTYPE != 0)

# texts per front: bounds the batch arrays of a caller that passes a
# whole table (the job's batches are this size)
_FRONT_TEXTS = 512


class Word:
    """A token; ``ids``: its (POS id, NER id) from the token memo, or None."""

    __slots__ = ("value", "start", "length", "input_type", "extra", "ids")

    def __init__(self, value, start, length, input_type, extra, ids=None):
        self.value = value
        self.start = start
        self.length = length
        self.input_type = input_type
        self.extra = extra
        self.ids = ids

    def __repr__(self):  # pragma: no cover
        return f"Word({self.value!r}@{self.start}+{self.length},it={self.input_type},ex={self.extra})"


# Token-intern cache: every derived attribute of a token (canonical value,
# input type, flags) is a pure function of its code units, and token
# frequency is Zipfian — one dict probe replaces the string build + the
# per-char feature scan for every repeated token. A number token
# (IsDigits_WithPunctuations_WithSpecEnds, also a pure function of the code
# units) is stored as ``_IS_NUM`` alone: it becomes the [%NUM%]
# placeholder, and nothing else of it is read; any other entry is (value,
# input type, extra, ids). The caller owns the cache, and may hand the FSM a
# hook that every miss goes through (``admit(key, entry) -> entry``): the
# kernel's adds both models' ids and stores the entry only at its second
# sighting. Without one, every miss is stored, with ids None.
_IS_NUM = object()


class _Front:
    """The character arrays of a batch of texts as buffers: the
    concatenated UTF-16 code units ``ub`` and the jump table ``nxt``, built
    by one numpy pass over them. Text k owns the units
    ``offs[k]:offs[k + 1]``, and its ``_SentTokenizer`` reads that slice in
    place, so the front holds a few bytes per code unit and no Python int
    per unit. ``nxt[i]`` is the smallest j >= i whose char the FSM must
    inspect, counted from the start of i's text; it may point past the end
    of that text, which the FSM's sentence-end cap absorbs. The trigger
    and sentence-end hits, a few per text, are lists cut per text with
    ``searchsorted``."""

    __slots__ = ("offs", "ub", "nxt", "url_hits", "url_cut", "sent_hits", "sent_cut")

    def __init__(self, texts: list[str | None]):
        bs = [x.encode(xlat._ENC) if x else b"" for x in texts]
        self.offs = [0, *accumulate(len(b) >> 1 for b in bs)]
        self.ub = b"".join(bs)
        del bs  # the front keeps the joined copy alone
        u = np.frombuffer(self.ub, dtype=np.uint16)
        n = len(u)
        idx = np.arange(n, dtype=np.int32)
        idx[~_INSPECT[u]] = n
        offs = np.asarray(self.offs, dtype=np.int32)
        self.nxt = np.minimum.accumulate(idx[::-1])[::-1]
        self.nxt -= np.repeat(offs[:-1], np.diff(offs))  # text-relative
        uh, sh = url_triggers(u), sent_end_hits(u)
        self.url_hits, self.url_cut = uh.tolist(), np.searchsorted(uh, offs).tolist()
        self.sent_hits, self.sent_cut = sh.tolist(), np.searchsorted(sh, offs).tolist()

    def __len__(self) -> int:
        return len(self.offs) - 1

    def url_triggers_of(self, k: int) -> list[int]:
        """Text k's URL-trigger positions, relative to its start."""
        o = self.offs[k]
        return [p - o for p in self.url_hits[self.url_cut[k]:self.url_cut[k + 1]]]

    def sent_hits_of(self, k: int) -> list[int]:
        """Text k's sentence-end hits, relative to its start."""
        o = self.offs[k]
        return [p - o for p in self.sent_hits[self.sent_cut[k]:self.sent_cut[k + 1]]]


class _SentTokenizer:
    """The FSM over one text of a ``_Front``: its slices of the front's
    buffers as ``memoryview``s, which index to a plain int as a list does
    (the code units ``ul``, and the jump table ``nxt`` relative to the
    text's start), its URL spans, the token memo ``tokens`` (code units →
    entry) and the hook ``admit`` that a miss's entry goes through (None:
    the miss is stored as it is). A char's classes are read from xlat's
    compact tables by its code unit (``_CT[c]``, ``_SP[c]``)."""

    __slots__ = ("ul", "ub", "n", "words", "start_index", "cur_len", "is_prev_num", "last_num",
                 "dot_variant", "nxt", "urls", "tokens", "admit")

    def __init__(self, front: _Front, k: int, tokens: dict, admit=None,
                 dot_variant: str = "simple"):
        o, e = front.offs[k], front.offs[k + 1]
        self.n = e - o
        self.ub = front.ub[2 * o:2 * e]  # bytes-slice memo keys (2 bytes per unit)
        self.ul = memoryview(self.ub).cast("H")  # per-char access path
        self.nxt = memoryview(front.nxt)[o:e]
        self.urls = scan_urls(self.ul, front.url_triggers_of(k))
        self.tokens = tokens
        self.admit = tokens.setdefault if admit is None else admit
        # "simple": always unstick dots (WebService path, Tokenizer.cs:732-744)
        # "console": keep a dot in the word; flush immediately when the next
        #            char is uppercase (batch path, Tokenizer.cs:491-497)
        self.dot_variant = dot_variant

    def ch(self, i: int) -> int:
        return self.ul[i] if 0 <= i < self.n else 0

    # -- IsDigits_WithPunctuations_WithSpecEnds (Tokenizer.cs:1193-1211) --
    def _is_num_token(self, start: int, length: int) -> bool:
        has_digits = False
        ul, ctab = self.ul, _CT
        for k in range(start, start + length):
            ct = ctab[ul[k]]
            if ct & xlat.IS_DIGIT:
                has_digits = True
                continue
            if not (ct & xlat.IS_PUNCTUATION):
                if has_digits:
                    end = "".join(chr(_UP[ul[j]]) for j in range(k, start + length))
                    return end in DIGITS_SPEC_ENDS
                return False
        return has_digits

    # -- TryCreateWordAndPut2List (Tokenizer.cs:897-983) --
    def _try_create(self) -> None:
        if self.cur_len == 0:
            return
        start, length = self.start_index, self.cur_len
        key = self.ub[2 * start : 2 * (start + length)]
        hit = self.tokens.get(key)
        if hit is None:
            hit = self.admit(key, _IS_NUM if self._is_num_token(start, length)
                             else self._fields(key, start, length))
        if hit is _IS_NUM:
            if not self.is_prev_num:
                self.is_prev_num = True
                w = Word(NUM_PLACEHOLDER, start, length, IT_NUM, EX_INTEGER_NUMBER)
                self.last_num = w
                self.words.append(w)
            self.start_index += length
            self.cur_len = 0
            return
        if self.last_num is not None:
            i = 1
            ln = start - self.last_num.start
            while i < ln:
                if not (_CT[self.ch(start - i)] & _WS):
                    break
                i += 1
            self.last_num.length = start - self.last_num.start - i + 1
            self.last_num = None
        self.is_prev_num = False
        value, input_type, extra, ids = hit
        self.words.append(Word(value, start, length, input_type, extra, ids))
        self.start_index += length
        self.cur_len = 0

    def _fields(self, key: bytes, start: int, length: int) -> tuple:
        """(value, input_type, extra, None) of the token whose code units
        are ``key``, at ``start``."""
        value = key.decode(xlat._ENC, "surrogatepass")
        input_type, extra = get_input_type(self.ul, start, length)
        value = _clear_value_original(value, extra, length)
        return value, input_type, extra, None

    # -- MergePunctuation (Tokenizer.cs:1131-1171) --
    def _merge_punct(self, i: int, begin_ch: int, end: int) -> int:
        """Flush the word before the run of ``begin_ch`` at ``i``, then the
        run, and return the run's last position; a run that reaches ``end``
        returns ``end`` and is left for the caller's final flush."""
        self._try_create()
        self.cur_len = 1
        i += 1
        ws_len = 0
        ul, ctab, stab = self.ul, _CT, _SP
        while i <= end:
            c = ul[i]
            if ctab[c] & _WS or stab[c] & xlat.SP_INTERPRETE_AS_WHITESPACE:
                ws_len += 1
                i += 1
                continue
            if c == begin_ch:
                self.cur_len += ws_len + 1
                ws_len = 0
                i += 1
                continue
            break
        if i > end:
            if self.cur_len == 1 and self.ch(end) == 0:
                self.cur_len = 0
            return end
        self._try_create()
        return i - ws_len - 1

    # -- SkipNonLetterAndNonDigitToTheEnd (Tokenizer.cs:985-1012) --
    def _trim_end(self, s: int, e0: int) -> int:
        ptr = e0
        ul, ctab = self.ul, _CT
        while ptr >= s:
            ct = ctab[ul[ptr]]
            if ct & _LD:
                if ct & xlat.IS_UPPER:
                    p = ptr - 1
                    if p == s or (p > s and ((_CT[self.ch(p)]) & _WS)):
                        p = ptr + 1
                        if p == e0 or (p < e0 and ((_CT[self.ch(p + 1)]) & _WS)):
                            if xlat.is_dot(self.ch(p)):
                                return p
                return ptr
            ptr -= 1
        return s - 1

    def tokenize(self, sent: Sent) -> list[Word]:
        self.words = []
        self.is_prev_num = False
        self.last_num = None
        s = sent.start
        self.start_index = s
        self.cur_len = 0
        realy_end = s + sent.length - 1

        urls = sent.urls
        url_idx = 0
        next_url_start = urls[0].start if urls else 1 << 60

        end = self._trim_end(s, realy_end)

        ul, nxt, ctab, stab = self.ul, self.nxt, _CT, _SP
        i = s
        while i <= end:
            if next_url_start <= i:
                self._try_create()
                us = urls[url_idx]
                i = us.start + us.length - 1
                url_idx += 1
                next_url_start = urls[url_idx].start if url_idx < len(urls) else 1 << 60
                self.start_index = i + 1
                self.cur_len = 0
                i += 1
                continue

            # consume the whole plain letter/digit run to the next char the
            # FSM must inspect (capped at sentence end and the next URL)
            j = nxt[i]
            if j > i:
                if j > end + 1:
                    j = end + 1
                if j > next_url_start:
                    j = next_url_start
                self.cur_len += j - i
                i = j
                continue

            c = ul[i]
            ct = ctab[c]
            if ct & _WS:
                self._try_create()
                self.start_index += 1
                i += 1
                continue

            sp = stab[c]
            if sp & xlat.SP_DOT:
                if self.dot_variant == "console":
                    # plain callback: dot accumulates; uppercase-next flushes
                    # (IsUpperNextChar, Tokenizer.cs:1080-1104)
                    self.cur_len += 1
                    if i < end and ctab[ul[i + 1]] & xlat.IS_UPPER:
                        self._try_create()
                    i += 1
                    continue
                if not (i < end and ctab[ul[i + 1]] & xlat.IS_DIGIT):
                    i = self._merge_punct(i, c, end) + 1
                    continue

            if sp & xlat.SP_BETWEEN_LETTER_OR_DIGIT:
                if not (ct & xlat.IS_HYPHEN) and self._is_between(i, s, end, _LD):
                    self.cur_len += 1
                else:
                    i = self._merge_punct(i, c, end)
                i += 1
                continue
            if sp & xlat.SP_BETWEEN_DIGIT:
                if self._is_between(i, s, end, xlat.IS_DIGIT):
                    self.cur_len += 1
                else:
                    i = self._merge_punct(i, c, end)
                i += 1
                continue

            if sp & xlat.SP_TOKENIZE_DIFFERENT_SEPARATELY:
                i = self._merge_punct(i, c, end) + 1
                continue

            if sp & xlat.SP_INTERPRETE_AS_WHITESPACE:
                self._try_create()
                self.start_index += 1
                i += 1
                continue

            self.cur_len += 1
            i += 1

        self._try_create()

        # tail region: trailing non-letter/digit chars (Tokenizer.cs:829-879)
        while i <= realy_end:
            c = ul[i]
            ct = ctab[c]
            if ct & _WS:
                self._try_create()
                self.start_index += 1
                i += 1
                continue
            sp = stab[c]
            if sp & xlat.SP_TOKENIZE_DIFFERENT_SEPARATELY:
                i = self._merge_punct(i, c, realy_end) + 1
                continue
            if sp & xlat.SP_INTERPRETE_AS_WHITESPACE:
                self._try_create()
                self.start_index += 1
                i += 1
                continue
            self.cur_len += 1
            i += 1

        self._try_create()

        if urls:
            for us in urls:
                value = self.ub[2 * us.start:2 * (us.start + us.length)].decode(
                    xlat._ENC, "surrogatepass")
                it = IT_EMAIL if us.type == EMAIL else IT_URL
                self.words.append(Word(value, us.start, us.length, it, 0))
            self.words.sort(key=lambda w: w.start)
        return self.words

    def _is_between(self, i: int, s: int, end: int, mask: int) -> bool:
        if i <= s:
            return False
        if not (_CT[self.ul[i - 1]] & mask):
            return False
        p = i + 1
        if p > end:
            return False
        return bool(_CT[self.ul[p]] & mask)


def _clear_value_original(v: str, extra: int, length: int) -> str:
    # Clear_valueOriginal (Tokenizer.cs:1213-1278)
    if not (extra & EX_PUNCTUATION):
        return v
    if length == 1:
        c = ord(v[0])
        if c in _KEEP_PUNCT_1:
            return v
        ct = (_CT[c])
        if ct & xlat.IS_HYPHEN:
            return v if v == "-" else "-"
        if (ct & xlat.IS_QUOTE) == xlat.IS_QUOTE:
            return v if c in _KEEP_QUOTE_1 else '"'
        return v
    if v == "''":
        return '"'
    if v == ",,":
        return ","
    if v == "--":
        return "-"
    return v


def split_texts(texts: list[str | None], tokens: dict,
                admit=None) -> Iterator[tuple[_SentTokenizer, list[Sent]]]:
    """Each text's FSM and its sentences, with one front per slice of
    ``_FRONT_TEXTS`` texts; ``tk.tokenize(sent)`` gives a sentence's words
    (possibly none) through the token memo ``tokens``, whose misses go
    through ``admit`` (see ``_IS_NUM``). None and "" yield no sentences."""
    for lo in range(0, len(texts), _FRONT_TEXTS):
        front = _Front(texts[lo:lo + _FRONT_TEXTS])
        for k in range(len(front)):
            tk = _SentTokenizer(front, k, tokens, admit)
            yield tk, split_sents(tk.ul, front.sent_hits_of(k), tk.urls) if tk.n else []


def tokenize_texts(texts: list[str | None], tokens: dict | None = None,
                   admit=None) -> list[list[list[Word]]]:
    """``tokenize_text`` of each text, over ``split_texts`` (fresh memo if ``tokens`` is None)."""
    return [[ws for ws in map(tk.tokenize, sents) if ws]
            for tk, sents in split_texts(texts, {} if tokens is None else tokens, admit)]


def tokenize_text(text: str) -> list[list[Word]]:
    """TryTokenizeBySents (PosTaggerExtensions.cs:61-72): Simple sentence
    split + Simple tokenize per sentence, empty sentences dropped."""
    return tokenize_texts([text])[0]


def tokenize_text_console(text: str) -> list[Word]:
    """Run_NoSentsAllocate (Tokenizer.cs:368-383): the console batch path —
    the whole line is ONE sentence (no sentence splitting), URLs detected,
    plain dot variant (dot kept in the word, uppercase-next flushes; this
    is how 'U.N.' / '2010г.' stay single tokens on the console path)."""
    tk = _SentTokenizer(_Front([text]), 0, {}, dot_variant="console")
    return tk.tokenize(Sent(0, tk.n, tuple(tk.urls)))

