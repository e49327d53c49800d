"""Character-classification lookup tables (LUTs) over UTF-16 code units.

Replicates the behavior of the reference's xlat layer
(/root/reference/PosTagger/Lingvo.PosTagger.Tokenizing/core/xlat.cs:15-41
table build :91-158, upper map :161-187, lower map :288-316) and the
tokenizer's SpecialCharType map
(.../Tokenizing/Tokenizer.cs:29-38,42-195) and the sentence splitter's
SentCharType map
(.../sentSplitting/SentSplitterModel.cs:96-110,197-277).

All tables have 65536 entries indexed by UTF-16 code unit. Each is a numpy
array for whole-string classification; the three that the per-char FSMs
read also come as a compact buffer over the same memory (``*_L``).
Strings are viewed as uint16 arrays via ``encode('utf-16-le')`` which gives
exactly .NET's char semantics (surrogate pairs count as two units).

.NET char.IsUpper/IsLower/... are defined by Unicode general category over
the BMP; we derive them from Python's ``unicodedata``. Known acceptable
divergence: Unicode-version differences between .NET's tables and CPython's
for a handful of rare codepoints (none in the conformance vectors).
"""
from __future__ import annotations

import sys
import unicodedata
from array import array

import numpy as np

# --- CharType flags (xlat.cs:15-41) ---------------------------------------
IS_UPPER = 0x1
IS_LOWER = 1 << 1
IS_LETTER = 1 << 2
IS_DIGIT = 1 << 3
IS_WHITESPACE = 1 << 4
IS_PUNCTUATION = 1 << 5
IS_URL_BREAK = 1 << 6
IS_URI_SCHEME_CHAR = 1 << 7
IS_QUOTE = 1 << 8
IS_QUOTE_LEFT = IS_QUOTE | (1 << 9)
IS_QUOTE_RIGHT = IS_QUOTE | (1 << 10)
IS_QUOTE_DOUBLE_SIDED = IS_QUOTE | (1 << 11)
IS_BRACKET = 1 << 12
IS_BRACKET_LEFT = IS_BRACKET | (1 << 13)
IS_BRACKET_RIGHT = IS_BRACKET | (1 << 14)
IS_HYPHEN = 1 << 15

HYPHENS = ("-", "—", "–")  # xlat.cs:56 {'-','—','–'}

# --- SpecialCharType flags (Tokenizer.cs:29-38) ----------------------------
SP_INTERPRETE_AS_WHITESPACE = 0x1
SP_BETWEEN_LETTER_OR_DIGIT = 1 << 1
SP_BETWEEN_DIGIT = 1 << 2
SP_TOKENIZE_DIFFERENT_SEPARATELY = 1 << 3
SP_DOT = 1 << 4

# --- SentCharType flags (SentSplitterModel.cs:96-110) ----------------------
SC_UNCONDITIONAL = 0x1
SC_EXCLUDE_IN_BRACKET_AND_QUOTE = 1 << 2
SC_DOT = 1 << 3
SC_THREE_DOT = 1 << 4
SC_AFTER_THREE_DOT_ALLOWED_PUNCT = 1 << 6
SC_AFTER_BRACKET_ALLOWED_PUNCT_4QMEP = 1 << 7

# .NET char.IsWhiteSpace = Zs/Zl/Zp categories + these fixed controls.
_WS_EXTRA = {0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x85}
_LETTER_CATS = {"Lu", "Ll", "Lt", "Lm", "Lo"}
_PUNCT_CATS = {"Pc", "Pd", "Ps", "Pe", "Pi", "Pf", "Po"}

_N = 0x10000


def _build_chartype() -> tuple[np.ndarray, np.ndarray]:
    """CHARTYPE, and the non-spacing-mark (Mn) mask from the same BMP pass."""
    ct = np.zeros(_N, dtype=np.uint16)
    marks = []
    cat = unicodedata.category
    for c in range(_N):
        ch = chr(c)
        k = cat(ch)
        f = 0
        if k == "Lu":
            f |= IS_UPPER
        elif k == "Ll":
            f |= IS_LOWER
        elif k == "Mn":
            marks.append(c)
        if k in _LETTER_CATS:
            f |= IS_LETTER
        if k == "Nd":
            f |= IS_DIGIT
        is_ws = k in ("Zs", "Zl", "Zp") or c in _WS_EXTRA
        if is_ws:
            f |= IS_WHITESPACE
        is_punct = k in _PUNCT_CATS
        if is_punct:
            f |= IS_PUNCTUATION
        # IsUrlBreak (xlat.cs:116-123): ws OR (punct AND non-ascii) OR '\0'
        if is_ws or (is_punct and c > 127) or c == 0:
            f |= IS_URL_BREAK
        # IsURIschemes chars (xlat.cs:239-252): [a-zA-Z-]
        if (0x61 <= c <= 0x7A) or (0x41 <= c <= 0x5A) or c == 0x2D:
            f |= IS_URI_SCHEME_CHAR
        ct[c] = f

    for s in HYPHENS:
        ct[ord(s)] |= IS_HYPHEN
    for s in "«‹„“":  # «‹„“
        ct[ord(s)] |= IS_QUOTE_LEFT
    for s in "»›”‟":  # »›”‟
        ct[ord(s)] |= IS_QUOTE_RIGHT
    for s in "‛‚‘’'\"":  # ‛‚‘’'"
        ct[ord(s)] |= IS_QUOTE_DOUBLE_SIDED
    ct[ord('"')] |= IS_QUOTE_LEFT | IS_QUOTE_RIGHT
    for s in "(‹{[":
        ct[ord(s)] |= IS_BRACKET_LEFT
    for s in ")›}]":
        ct[ord(s)] |= IS_BRACKET_RIGHT
    mn = np.zeros(_N, dtype=bool)
    mn[marks] = True
    return ct, mn


def _map_yo(c: int) -> int:
    # ё→е / Ё→Е folding baked into both case maps (xlat.cs:166-186, 293-313)
    if c == 0x451:  # ё
        return 0x435  # е
    if c == 0x401:  # Ё
        return 0x415  # Е
    return c


def _build_case_maps() -> tuple[np.ndarray, np.ndarray]:
    up = np.arange(_N, dtype=np.uint16)  # every value is a UTF-16 code unit
    lo = np.arange(_N, dtype=np.uint16)
    for c in range(_N):
        c2 = _map_yo(c)
        ch = chr(c2)
        u = ch.upper()
        # .NET ToUpperInvariant is a simple 1:1 char mapping; where Python's
        # full mapping expands (e.g. ß→SS) .NET keeps the char unchanged.
        up[c] = ord(u) if len(u) == 1 else c2
        l = ch.lower()
        lo[c] = ord(l) if len(l) == 1 else c2
    return up, lo


def _build_spectype(ct: np.ndarray) -> np.ndarray:
    # Tokenizer.cs UnsafeConst (.:42-195); note the exact =/|= assignment
    # order which makes '.' carry ONLY the DotChar flag.
    sp = np.zeros(_N, dtype=np.uint8)
    sp[(ct & IS_PUNCTUATION) != 0] = SP_INTERPRETE_AS_WHITESPACE
    for s in "¤¦§¶":  # ¤¦§¶
        sp[ord(s)] = SP_INTERPRETE_AS_WHITESPACE
    tokenize_separately = (
        "‒–—―‘’‛“”„‟"
        "…!\"&'(),-〃:;?՚՛՝[]_״{}¡«"
        "­»¿/¥©®€™°№$%<>"
    )
    for s in tokenize_separately:
        sp[ord(s)] = SP_TOKENIZE_DIFFERENT_SEPARATELY
    for s in "&-_­‒–—―‘‛":
        sp[ord(s)] |= SP_BETWEEN_LETTER_OR_DIGIT
    for s in "\",:〃":
        sp[ord(s)] |= SP_BETWEEN_DIGIT
    sp[ord(".")] = SP_DOT
    return sp


def _build_sentchartype(ct: np.ndarray) -> np.ndarray:
    # SentSplitterModel.InitializeSentPotentialEnds (SentSplitterModel.cs:197-277)
    sc = np.zeros(_N, dtype=np.uint8)
    sc[ord("!")] |= SC_EXCLUDE_IN_BRACKET_AND_QUOTE
    sc[ord("?")] |= SC_EXCLUDE_IN_BRACKET_AND_QUOTE
    sc[ord("…")] |= SC_EXCLUDE_IN_BRACKET_AND_QUOTE | SC_THREE_DOT
    sc[ord("\n")] = SC_UNCONDITIONAL
    sc[ord(".")] = SC_DOT
    sc[ord(";")] |= SC_AFTER_THREE_DOT_ALLOWED_PUNCT
    sc[ord(":")] |= SC_AFTER_THREE_DOT_ALLOWED_PUNCT | SC_AFTER_BRACKET_ALLOWED_PUNCT_4QMEP
    sc[ord(",")] |= SC_AFTER_THREE_DOT_ALLOWED_PUNCT | SC_AFTER_BRACKET_ALLOWED_PUNCT_4QMEP
    hy = (ct & IS_HYPHEN) != 0
    qu = (ct & IS_QUOTE) == IS_QUOTE
    sc[hy] |= SC_AFTER_THREE_DOT_ALLOWED_PUNCT | SC_AFTER_BRACKET_ALLOWED_PUNCT_4QMEP
    sc[qu & ~hy] |= SC_AFTER_THREE_DOT_ALLOWED_PUNCT
    return sc


def _compact(table: np.ndarray) -> tuple[np.ndarray, array | bytes]:
    """``table``'s values as a compact buffer (``bytes`` for uint8, else
    ``array('H')``) and a numpy view of that buffer. The per-char FSM paths
    index the buffer, which returns a plain int as a list would, while a
    64K-entry list of ints would cost about 1 MB in every process."""
    buf = table.tobytes() if table.dtype == np.uint8 else array("H", table.tobytes())
    return np.frombuffer(buf, dtype=table.dtype), buf


CHARTYPE, NON_SPACING_MARK = _build_chartype()
UPPER_INVARIANT, LOWER_INVARIANT = _build_case_maps()
SPECTYPE: np.ndarray = _build_spectype(CHARTYPE)
SENTCHARTYPE: np.ndarray = _build_sentchartype(CHARTYPE)
CHARTYPE, CHARTYPE_L = _compact(CHARTYPE)
UPPER_INVARIANT, UPPER_INVARIANT_L = _compact(UPPER_INVARIANT)
SENTCHARTYPE, SENTCHARTYPE_L = _compact(SENTCHARTYPE)


_ENC = "utf-16-le" if sys.byteorder == "little" else "utf-16-be"


def to_u16(text: str) -> np.ndarray:
    """View a Python string as .NET-style UTF-16 code units."""
    if not text:
        return np.empty(0, dtype=np.uint16)
    enc = _ENC
    return np.frombuffer(text.encode(enc), dtype=np.uint16)


def upper_invariant(text: str) -> str:
    u = to_u16(text)
    enc = _ENC
    return UPPER_INVARIANT[u].tobytes().decode(enc, "surrogatepass")


def lower_invariant(text: str) -> str:
    u = to_u16(text)
    enc = _ENC
    return LOWER_INVARIANT[u].tobytes().decode(enc, "surrogatepass")


def is_dot(c: int) -> bool:
    # xlat.cs:223-237 — char.MaxValue also counts as a dot
    return c == 0x2E or c == 0xFFFF
