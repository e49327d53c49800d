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
encode, the char-class gathers, the FSM's jump table and the URL-trigger
and sentence-end scans, kept as numpy buffers. Each text turns only its
own slice of them into lists, which its URL scanner, sentence splitter and
FSM read, so a text's tokens do not depend on its batch neighbours and a
front holds no Python int per code unit. ``tokenize_text`` is a one-text
batch.

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
    __slots__ = ("value", "start", "length", "input_type", "extra")

    def __init__(self, value, start, length, input_type, extra):
        self.value = value
        self.start = start
        self.length = length
        self.input_type = input_type
        self.extra = extra

    def __repr__(self):  # pragma: no cover
        return f"Word({self.value!r}@{self.start}+{self.length},it={self.input_type},ex={self.extra})"


# Token-intern cache: every derived attribute of a token (canonical value,
# input type, flags) is a pure function of its code units, and token
# frequency is Zipfian — one dict probe replaces the string build + the
# per-char feature scan for every repeated token. A number token
# (IsDigits_WithPunctuations_WithSpecEnds, also a pure function of the code
# units) is stored as ``_IS_NUM`` alone: it becomes the [%NUM%]
# placeholder, and nothing else of it is read. The caller owns the cache,
# and may hand the FSM a doorkeeper (``door``): a function of a missed key's
# hash that is true from the key's second sighting on. A miss is then stored
# only at its second sighting, so a token seen once is computed and not kept.
_IS_NUM = object()


class _Front:
    """The character arrays of a batch of texts as numpy buffers, each
    built by one numpy pass over the concatenated UTF-16 code units; text
    k owns the units ``offs[k]:offs[k + 1]``, and its ``_SentTokenizer``
    turns only that slice into lists, so the front holds a few bytes per
    code unit and no Python int per unit. ``nxt[i]`` is the smallest j >= i
    whose char the FSM must inspect, counted from the start of i's text;
    it may point past the end of that text, which the FSM's sentence-end
    cap absorbs. The trigger and sentence-end hits, a few per text, are
    lists cut per text with ``searchsorted``."""

    __slots__ = ("offs", "ub", "u", "cts", "sps", "nxt",
                 "url_hits", "url_cut", "sent_hits", "sent_cut")

    def __init__(self, texts: list[str | None]):
        bs = [x.encode(xlat._ENC) if x else b"" for x in texts]
        self.offs = [0, *accumulate(len(b) >> 1 for b in bs)]
        self.ub = b"".join(bs)
        del bs  # the front keeps the joined copy alone
        self.u = u = np.frombuffer(self.ub, dtype=np.uint16)
        self.cts = xlat.CHARTYPE[u]
        self.sps = xlat.SPECTYPE[u]
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
    arrays as lists (the jump table ``nxt`` relative to the text's start),
    its URL spans, the token memo ``tokens`` (code units → fields) and its
    doorkeeper ``door`` (None: every miss is stored). ``first_seen``
    counts the tokens the doorkeeper kept out of the memo, i.e. met at
    their first sighting."""

    __slots__ = ("ul", "ub", "n", "words", "start_index", "cur_len", "is_prev_num", "last_num",
                 "dot_variant", "cts", "sps", "nxt", "urls", "tokens", "door", "first_seen")

    def __init__(self, front: _Front, k: int, tokens: dict, door=None,
                 dot_variant: str = "simple"):
        o, e = front.offs[k], front.offs[k + 1]
        self.n = e - o
        self.ul = front.u[o:e].tolist()  # per-char access path
        self.ub = front.ub[2 * o:2 * e]  # bytes-slice memo keys (2 bytes per unit)
        self.cts = front.cts[o:e].tolist()
        self.sps = front.sps[o:e].tolist()
        self.nxt = front.nxt[o:e].tolist()
        self.urls = scan_urls(self.ul, front.url_triggers_of(k))
        self.tokens = tokens
        self.door = door
        self.first_seen = 0
        # "simple": always unstick dots (WebService path, Tokenizer.cs:732-744)
        # "console": keep a dot in the word; flush immediately when the next
        #            char is uppercase (batch path, Tokenizer.cs:491-497)
        self.dot_variant = dot_variant

    def ch(self, i: int) -> int:
        return self.ul[i] if 0 <= i < self.n else 0

    # -- IsDigits_WithPunctuations_WithSpecEnds (Tokenizer.cs:1193-1211) --
    def _is_num_token(self, start: int, length: int) -> bool:
        has_digits = False
        ul = self.ul
        cts = self.cts
        for k in range(start, start + length):
            ct = cts[k]
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
            hit = _IS_NUM if self._is_num_token(start, length) else self._fields(key, start, length)
            if self.door is None or self.door(hash(key)):
                self.tokens[key] = hit
            else:
                self.first_seen += 1
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
        value, input_type, extra = hit
        self.words.append(Word(value, start, length, input_type, extra))
        self.start_index += length
        self.cur_len = 0

    def _fields(self, key: bytes, start: int, length: int) -> tuple:
        """(value, input_type, extra) of the token whose code units are
        ``key``, at ``start``."""
        value = key.decode(xlat._ENC, "surrogatepass")
        input_type, extra = get_input_type(self.ul, start, length)
        value = _clear_value_original(value, extra, length)
        return value, input_type, extra

    # -- MergePunctuation (Tokenizer.cs:1131-1171) --
    def _merge_punct(self, i: int, begin_ch: int, end: int) -> int:
        """Flush the word before the run of ``begin_ch`` at ``i``, then the
        run, and return the run's last position; a run that reaches ``end``
        returns ``end`` and is left for the caller's final flush."""
        self._try_create()
        self.cur_len = 1
        i += 1
        ws_len = 0
        ul, cts, sps = self.ul, self.cts, self.sps
        while i <= end:
            if cts[i] & _WS:
                ws_len += 1
                i += 1
                continue
            if sps[i] & xlat.SP_INTERPRETE_AS_WHITESPACE:
                ws_len += 1
                i += 1
                continue
            if ul[i] == begin_ch:
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
        cts = self.cts
        while ptr >= s:
            ct = cts[ptr]
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

        ul, cts, sps, nxt = self.ul, self.cts, self.sps, self.nxt
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
            ct = cts[i]
            if ct & _WS:
                self._try_create()
                self.start_index += 1
                i += 1
                continue

            sp = sps[i]
            if sp & xlat.SP_DOT:
                if self.dot_variant == "console":
                    # plain callback: dot accumulates; uppercase-next flushes
                    self.cur_len += 1
                    if self._is_upper_at(i + 1, end):
                        self._try_create()
                    i += 1
                    continue
                if not self._is_digit_at(i + 1, end):
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
            ct = cts[i]
            if ct & _WS:
                self._try_create()
                self.start_index += 1
                i += 1
                continue
            sp = sps[i]
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

    def _is_digit_at(self, p: int, end: int) -> bool:
        if p > end:
            return False
        return bool(self.cts[p] & xlat.IS_DIGIT)

    def _is_upper_at(self, p: int, end: int) -> bool:
        # IsUpperNextChar (Tokenizer.cs:1080-1104)
        if p > end:
            return False
        return bool(self.cts[p] & xlat.IS_UPPER)

    def _is_between(self, i: int, s: int, end: int, mask: int) -> bool:
        if i <= s:
            return False
        if not (self.cts[i - 1] & mask):
            return False
        p = i + 1
        if p > end:
            return False
        return bool(self.cts[p] & mask)


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
                door=None) -> Iterator[tuple[_SentTokenizer, list[Sent]]]:
    """Each text's FSM and its sentences, with one front per slice of
    ``_FRONT_TEXTS`` texts; ``tk.tokenize(sent)`` gives a sentence's words
    (possibly none) through the token memo ``tokens``, which stores a
    miss only once ``door(hash(key))`` is true, at its second sighting
    (None: at once). None and "" yield no sentences."""
    for lo in range(0, len(texts), _FRONT_TEXTS):
        front = _Front(texts[lo:lo + _FRONT_TEXTS])
        for k in range(len(front)):
            tk = _SentTokenizer(front, k, tokens, door)
            yield tk, split_sents(tk.ul, front.sent_hits_of(k), tk.urls) if tk.n else []


def tokenize_texts(texts: list[str | None], tokens: dict | None = None,
                   door=None) -> list[list[list[Word]]]:
    """``tokenize_text`` of each text, over ``split_texts`` (fresh memo if ``tokens`` is None)."""
    return [[ws for ws in map(tk.tokenize, sents) if ws]
            for tk, sents in split_texts(texts, {} if tokens is None else tokens, door)]


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

