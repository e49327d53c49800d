"""Cross-language hash helpers shared by the engine and its SQL oracles."""
from __future__ import annotations

import hashlib


def _md5_u64(s: str) -> int:
    """First 8 bytes of md5, little-endian == DuckDB md5_number_upper()."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")
