"""Entity linking — a hash join against the canonical entity dictionary.

The dictionary is the small side (≪ mentions), so this is a broadcast
join, not a shuffle join (SURVEY.md §2.4): every worker process builds
the normalized-surface-form → (entity_id, canonical) map once, and the
per-turn kernel (stages/kernel.py) does one dict lookup per triple
surface. Misses keep the NIL id (left-outer semantics). At 10^12-turn
scale the dictionary would still be broadcast (it is entity-catalog
sized); only if it outgrew worker memory would this become a
hash-partitioned join on the normalized key.

Surface normalization = the reference's model-token projection at
mel=10000: lower-invariant + ё→е + NonSpacingMark strip
(Tokenizer.ToPosTaggerToken, Tokenizer.cs:1282-1334), applied per word.
"""
from __future__ import annotations

from ..model.lexicon import entity_dictionary
from ..textkit.features import to_model_token_str

NIL = "NIL"


def normalize_surface(surface: str) -> str:
    # the kernel memoizes each surface's link (Kernel._link_rows), under the
    # bound of its other caches
    return " ".join(to_model_token_str(w, 10000) for w in surface.split(" "))


def build_linking_dict() -> dict[str, tuple[str, str]]:
    """normalized surface form -> (entity_id, canonical)."""
    out: dict[str, tuple[str, str]] = {}
    for row in entity_dictionary():
        for sf in row["surface_forms"]:
            out.setdefault(sf, (row["entity_id"], row["canonical"]))
    return out
