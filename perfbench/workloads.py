"""Seeded transcript generators owned by the benchmark.

The word lists come from the model's lexicon, so names, organisations and
places are ones the taggers recognise; the sentence templates, the
conversation-size law and the row order are fixed here, so an edit to the
package's own fixture generator cannot change a workload.

Three inputs are made from one seed:

* ``dup``: the Zipf transcript mix. Sentences are drawn from a finite
  template space, so turn texts and sentences repeat and the turn and
  sentence memos hit.
* ``unique``: the same mix, but every sentence carries a pseudo-word that
  no other sentence has, so no memo keyed by turn or sentence can hit.
* ``warm``: a small ``unique`` input whose pseudo-words end in the hard
  sign, which the other inputs never contain, so a warm-up job on it shares
  no turn or sentence with the measured input.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lingvo__postagger_ner_ru_dnn_ray.model.lexicon import (
    ADJECTIVES,
    LOCS,
    NOUNS,
    ORGS,
    PERSONS,
    VERBS,
)

_EPOCH_US = 1_700_000_000 * 1_000_000
_SITES = ("example", "rbc", "lenta", "mail")
_TOOLS = ("search", "code", "db")
_ROLES = ("user", "assistant", "tool")
# lower-case consonant-vowel syllables: the pseudo-words are out of the
# lexicon's vocabulary and tag as plain words outside any entity
_SYLLABLES = tuple(c + v for c in "бвгдзклмнпрстфхч" for v in "аеиоу")
_WARM_MARK = "ъ"


def pseudo_word(n: int, mark: str = "") -> str:
    """A distinct word for every ``n >= 0``: ``n`` in base 80 spelled as
    syllables, behind a fixed two-syllable prefix."""
    out = []
    while True:
        n, d = divmod(n, len(_SYLLABLES))
        out.append(_SYLLABLES[d])
        if n == 0:
            break
    return "зю" + "".join(reversed(out)) + mark


def _sentence(r: np.ndarray) -> tuple[str, str]:
    """One sentence from 8 pre-drawn ints, as the two halves around the
    slot where a pseudo-word goes. The slot sits after the last entity or
    before the first dotted token, so the pseudo-word changes no triple and
    no sentence split."""
    kind = int(r[0]) % 10
    first, last = PERSONS[int(r[1]) % len(PERSONS)][1][0]
    forms2 = PERSONS[int(r[2]) % len(PERSONS)][1]
    first2, last2 = forms2[min(1, len(forms2) - 1)]
    org = ORGS[int(r[3]) % len(ORGS)][1][0]
    loc = LOCS[int(r[4]) % len(LOCS)][1][-1]
    verb = VERBS[int(r[5]) % len(VERBS)]
    noun = NOUNS[int(r[6]) % len(NOUNS)]
    adj = ADJECTIVES[int(r[7]) % len(ADJECTIVES)]
    if kind == 0:
        return f"{first} {last} {verb} «{org}»", "."
    if kind == 1:
        return f"{first} {last} {verb} {first2} {last2}", "."
    if kind == 2:
        return f"«{org}» {verb} {noun} в {loc}", "."
    if kind == 3:
        return "По", f" данным следователей, в июле 2010г. {first} {last} {verb} {adj} {noun}."
    if kind == 4:
        return "Ущерб", " составил более 9,5 млн руб."
    if kind == 5:
        return "Наш", f" сайт www.{_SITES[int(r[1]) % len(_SITES)]}.ru открыт!"
    if kind == 6:
        return "Пишите", f" на info@{_SITES[int(r[2]) % len(_SITES)]}.ru или звоните 8:45."
    if kind == 7:
        return f"{first} {last} посетил {loc} и {verb} {noun}", "…"
    if kind == 8:
        return f"Контр-адмирал {first} {last} {verb} {adj} {noun}", "?"
    return f"Гло́кая ку́здра {verb} {noun}, но {noun} не {verb}", "."


def transcripts(n_turns: int, seed: int, *, unique: bool = False,
                mark: str = "") -> pa.Table:
    """``n_turns`` transcript rows in shuffled order (the engine must not
    rely on row order). Schema: conv_id, turn_idx, role, text, tool, ts."""
    rng = np.random.default_rng(seed)
    sizes: list[int] = []
    total = 0
    while total < n_turns:
        s = min(int(rng.zipf(2.0)), 400) + 1
        sizes.append(min(s, n_turns - total))
        total += sizes[-1]

    rand = rng.integers(0, 2**31 - 1, size=(n_turns, 9))
    conv_ids, turn_idx, roles, texts, tools = [], [], [], [], []
    k = 0
    n_sent = 0
    for ci, size in enumerate(sizes):
        cid = f"conv-{mark}{ci:06d}"
        for ti in range(size):
            r = rand[k]
            sents = []
            for j in range(1 + int(r[8]) % 3):
                head, tail = _sentence(np.roll(r, j) + j)
                if unique:
                    head = f"{head} {pseudo_word(n_sent, mark)}"
                    n_sent += 1
                sents.append(head + tail)
            role = _ROLES[ti % 3]
            conv_ids.append(cid)
            turn_idx.append(ti)
            roles.append(role)
            texts.append("\n".join(sents))
            tools.append(_TOOLS[int(r[8]) % len(_TOOLS)] if role == "tool" else "")
            k += 1

    perm = rng.permutation(n_turns)
    ts = _EPOCH_US + np.arange(n_turns, dtype=np.int64) * 1_000_000
    table = pa.table({
        "conv_id": pa.array(conv_ids, pa.string()),
        "turn_idx": pa.array(turn_idx, pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools, pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    return table.take(pa.array(perm))


def warm_transcripts(n_turns: int, seed: int) -> pa.Table:
    return transcripts(n_turns, seed, unique=True, mark=_WARM_MARK)


def write_parquet_dir(table: pa.Table, out_dir: str | Path, n_files: int = 4) -> str:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), out / f"part-{i:04d}.parquet")
    return str(out)
