"""The reference's bundled input text, rebuilt from the token fixture."""
import json
from pathlib import Path


def reference_lines() -> list[str]:
    """The 15 non-blank lines of the reference's bundled input text
    ([resources]/input-text/input_pos_tagger_ru.txt, not shipped here),
    rebuilt from their simple-path tokens in
    fixtures/reference_input_tokens.json: each token at its span, spaces
    between, and a number placeholder written as 7s of its span's length.
    The rebuilt lines tokenize to both pinned snapshots, simple and
    console; only the original digits are lost."""
    fx = Path(__file__).resolve().parents[1] / "fixtures" / "reference_input_tokens.json"
    lines = []
    for line in json.loads(fx.read_text(encoding="utf-8")):
        words = [w for sent in line["simple"] for w in sent]
        chars = [" "] * max(w["s"] + w["l"] for w in words)
        for w in words:
            v = w["v"] if len(w["v"]) == w["l"] else "7" * w["l"]
            chars[w["s"]:w["s"] + w["l"]] = v
        lines.append("".join(chars))
    return lines
