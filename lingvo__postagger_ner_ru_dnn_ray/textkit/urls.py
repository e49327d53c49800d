"""URL / e-mail span detector.

Behavioral re-implementation of the reference's UrlDetector
(/root/reference/PosTagger/Lingvo.PosTagger.Tokenizing/sentSplitting/UrlDetector/UrlDetector.cs):
  - AllocateUrls main scan            (:234-311)  '.' and ':' triggers
  - TryAllocateUrl_ByWWW              (:316-357)
  - TryAllocateUrl_ByFirstLevelDomain (:359-456)  recursion for chained domains
  - TryAllocateUrl_ByURIschemes       (:458-516)
  - FindUrlEndOnTheRight/Left         (:518-626)
  - IsEmail / IsSeemsLikeEmail        (:628-703)

Spans are (start, length, type) in UTF-16 code units. Pure function of the
text + static resource sets — safe to run in stateless Ray tasks.

The trigger chars ('.' and ':') are sparse, so the detector visits only
their positions: ``url_triggers`` finds them with one vectorized pass
(over one text, or over a whole batch of texts that the tokenizer's front
then splits per text), and ``scan_urls`` runs the scanner from each.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import xlat
from .resources import (
    FIRST_LEVEL_DOMAINS,
    FIRST_LEVEL_DOMAINS_MAX_LEN,
    URI_SCHEMES,
    URI_SCHEMES_MAX_LEN,
)

URL = 0
EMAIL = 1

_CT = xlat.CHARTYPE_L
_UP = xlat.UPPER_INVARIANT_L


class UrlSpan(NamedTuple):
    start: int
    length: int
    type: int  # URL | EMAIL


_IS_TRIGGER = np.zeros(0x10000, dtype=bool)
_IS_TRIGGER[[0x2E, 0x3A]] = True  # '.' ':'


def url_triggers(u16: np.ndarray) -> np.ndarray:
    """Ascending positions of the trigger chars in the code units ``u16``."""
    return np.flatnonzero(_IS_TRIGGER[u16])


class _Scanner:
    __slots__ = ("ul", "n", "i")

    def __init__(self, ul: list[int]):
        self.ul = ul
        self.n = len(ul)
        self.i = 0

    def ch(self, i: int) -> int:
        return self.ul[i] if 0 <= i < self.n else 0

    # -- FindUrlEndOnTheRight (UrlDetector.cs:518-564) --
    def _right_end(self, offset: int) -> int:
        right = offset
        while True:
            c = self.ch(self.i + right)
            if _CT[c] & xlat.IS_URL_BREAK:
                right -= 1
                while right >= 0:
                    c = self.ch(self.i + right)
                    if c == 0x2F:  # '/'
                        break
                    if not (_CT[c] & xlat.IS_PUNCTUATION):
                        break
                    right -= 1
                break
            right += 1
        return right if right > 0 else 0

    # -- FindUrlEndOnTheLeft (UrlDetector.cs:566-626) --
    def _left_end(self, offset: int) -> tuple[int, int]:
        left = offset
        while True:
            p = self.i - left
            if p <= 0:  # the text's start: step back onto it
                return self._trim_left(left + p)
            if _CT[self.ch(p)] & xlat.IS_URL_BREAK:
                return self._trim_left(left - 1)
            left += 1

    def _trim_left(self, left: int) -> tuple[int, int]:
        """Skip whitespace and punctuation back to '/'; at any other char,
        the URL is an e-mail if ``_is_email`` finds its '@'."""
        url_type = URL
        while left >= 0:
            c = self.ch(self.i - left)
            if c == 0x2F:
                break
            ct = _CT[c]
            if not (ct & (xlat.IS_WHITESPACE | xlat.IS_PUNCTUATION)):
                if self._is_email(left):
                    url_type = EMAIL
                break
            left -= 1
        return max(left, 0), url_type

    def _is_email(self, start: int) -> bool:
        # UrlDetector.cs:628-651 — look for '@' / '(at)' / '[at]'
        while start >= 0:
            p = self.i - start
            c = self.ch(p)
            if c == 0x28:  # '('
                if (
                    _UP[self.ch(p + 1)] == ord("A")
                    and _UP[self.ch(p + 2)] == ord("T")
                    and _UP[self.ch(p + 3)] == ord(")")
                ):
                    return True
            elif c == 0x5B:  # '['
                if (
                    _UP[self.ch(p + 1)] == ord("A")
                    and _UP[self.ch(p + 2)] == ord("T")
                    and _UP[self.ch(p + 3)] == ord("]")
                ):
                    return True
            elif c == 0x40:  # '@'
                return True
            start -= 1
        return False

    # -- TryAllocateUrl_ByWWW (UrlDetector.cs:316-357) --
    def _by_www(self) -> UrlSpan | None:
        if self.i - 3 < 0:
            return None
        if not (
            _UP[self.ch(self.i - 1)] == ord("W")
            and _UP[self.ch(self.i - 2)] == ord("W")
            and _UP[self.ch(self.i - 3)] == ord("W")
        ):
            return None
        right = self._right_end(0)
        start = self.i - 3
        length = 3 + 1 + right
        self.i += 1 + right
        return UrlSpan(start, length, URL)

    # -- TryAllocateUrl_ByFirstLevelDomain (UrlDetector.cs:359-456) --
    def _by_fld(self, depth: int) -> UrlSpan | None:
        if depth <= 0:
            return None
        self.i += 1
        right = 0
        buf = []
        while True:
            c = self.ch(self.i + right)
            if not (_CT[c] & xlat.IS_LETTER):
                break
            if FIRST_LEVEL_DOMAINS_MAX_LEN < right:
                return None
            buf.append(chr(_UP[c]))
            right += 1
        if right == 0:
            return None
        if "".join(buf) not in FIRST_LEVEL_DOMAINS:
            return None
        if xlat.is_dot(c):
            save = self.i
            self.i += right
            r = self._by_fld(depth)  # C# post-decrement: same value passed down
            if r is not None:
                return r
            self.i = save
        self.i -= 1
        if c in (0x2F, 0x5C):  # path separator
            right = self._right_end(right)
        left, url_type = self._left_end(1)
        if left == 0:
            return None
        start = self.i - left
        length = left + 1 + right
        self.i += 1 + right
        return UrlSpan(start, length, url_type)

    # -- TryAllocateUrl_ByURIschemes (UrlDetector.cs:458-516) --
    def _by_scheme(self) -> UrlSpan | None:
        left = 0
        buf = []
        while True:
            p = self.i - left - 1
            if p < 0:
                break
            c = self.ch(p)
            if not (_CT[c] & xlat.IS_URI_SCHEME_CHAR):
                break
            if URI_SCHEMES_MAX_LEN < left:
                return None
            buf.append(chr(_UP[c]))
            left += 1
        if left == 0:
            return None
        scheme = "".join(reversed(buf))
        if scheme not in URI_SCHEMES:
            self.i += 1
            return None
        right = self._right_end(0)
        start = self.i - left
        length = left + 1 + right
        url_type = EMAIL if self._seems_email(start, length) else URL
        self.i += 1 + right
        return UrlSpan(start, length, url_type)

    def _seems_email(self, start: int, length: int) -> bool:
        # IsSeemsLikeEmail (UrlDetector.cs:672-703): '@' before any slash,
        # scanning right-to-left
        for j in range(start + length - 1, start - 1, -1):
            c = self.ch(j)
            if c in (0x2F, 0x5C):
                return False
            if c == 0x40:
                return True
        return False


def scan_urls(ul: list[int], hits: list[int]) -> list[UrlSpan]:
    """The spans of the text whose code units are ``ul``, scanning from its
    trigger positions ``hits`` (ascending) instead of from every char (same
    FSM, same scanner state transitions)."""
    out: list[UrlSpan] = []
    if not hits:
        return out
    s = _Scanner(ul)
    for p in hits:
        if p < s.i:
            continue  # hit consumed by a previously detected span
        s.i = p
        c = ul[p]
        if c == 0x2E:  # '.'
            r = s._by_www()
            if r is None:
                s.i = p
                r = s._by_fld(10)
            if r is not None:
                out.append(r)
        else:  # ':'
            r = s._by_scheme()
            if r is not None:
                out.append(r)
        s.i += 1
    return out
