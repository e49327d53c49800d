"""Deterministic synthesis of the transcript input table (FIXTURES.md F1).

Schema = input_hint exactly:
    conv_id:string, turn_idx:int32, role:string, text:string, tool:string,
    ts:timestamp[us]

Sentence material follows the linguistic patterns of the reference's
bundled test text ([resources]/input-text/input_pos_tagger_ru.txt):
person name+surname with case inflection, «quoted» org names, geo names,
"2010г." / "9,5 млн руб." numerics, URLs/e-mails, accented words,
multi-sentence turns ending in . … ? !. Zipf-skewed conversation lengths
exercise skew handling; rows are written shuffled so the engine must
re-sort by (conv_id, turn_idx). Seeded — no wall clock, no external data.
"""
from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..model.lexicon import ADJECTIVES, LOCS, NOUNS, ORGS, PERSONS, VERBS

_EPOCH_US = 1_700_000_000 * 1_000_000

_SITES = ["example", "rbc", "lenta", "mail"]
_TOOLS = ["search", "code", "db"]


def _sentence(r: np.ndarray) -> str:
    """One deterministic sentence from 8 pre-drawn random ints."""
    kind = int(r[0]) % 10
    per = PERSONS[int(r[1]) % len(PERSONS)][1]
    per2 = PERSONS[int(r[2]) % len(PERSONS)][1]
    org = ORGS[int(r[3]) % len(ORGS)][1]
    loc = LOCS[int(r[4]) % len(LOCS)][1]
    verb = VERBS[int(r[5]) % len(VERBS)]
    noun = NOUNS[int(r[6]) % len(NOUNS)]
    adj = ADJECTIVES[int(r[7]) % len(ADJECTIVES)]
    if kind == 0:
        f, l = per[0]
        return f"{f} {l} {verb} «{org[0]}»."
    if kind == 1:
        f, l = per[0]
        f2, l2 = per2[min(1, len(per2) - 1)]
        return f"{f} {l} {verb} {f2} {l2}."
    if kind == 2:
        return f"«{org[0]}» {verb} {noun} в {loc[-1]}."
    if kind == 3:
        f, l = per[0]
        return f"По данным следователей, в июле 2010г. {f} {l} {verb} {adj} {noun}."
    if kind == 4:
        return f"Ущерб составил более 9,5 млн руб."
    if kind == 5:
        site = _SITES[int(r[1]) % len(_SITES)]
        return f"Наш сайт www.{site}.ru открыт!"
    if kind == 6:
        site = _SITES[int(r[2]) % len(_SITES)]
        return f"Пишите на info@{site}.ru или звоните 8:45."
    if kind == 7:
        f, l = per[0]
        return f"{f} {l} посетил {loc[-1]} и {verb} {noun}…"
    if kind == 8:
        f, l = per[0]
        return f"Контр-адмирал {f} {l} {verb} {adj} {noun}?"
    return f"Гло́кая ку́здра {verb} {noun}, но {noun} не {verb}."


def synth_transcripts_table(n_turns: int, seed: int = 42) -> pa.Table:
    rng = np.random.RandomState(seed)
    # Zipf-skewed conversation sizes (a few conversations 100×+ the median)
    sizes: list[int] = []
    total = 0
    while total < n_turns:
        s = int(min(rng.zipf(2.0), 400)) + 1
        sizes.append(s)
        total += s
    sizes[-1] -= total - n_turns
    if sizes[-1] <= 0:
        sizes[-1] = 1

    n = sum(sizes)
    rand = rng.randint(0, 2**31 - 1, size=(n, 9))
    conv_ids = np.empty(n, dtype=object)
    turn_idx = np.empty(n, dtype=np.int32)
    texts = np.empty(n, dtype=object)
    roles = np.empty(n, dtype=object)
    tools = np.empty(n, dtype=object)
    ts = np.empty(n, dtype=np.int64)

    k = 0
    role_names = ("user", "assistant", "tool")
    for ci, size in enumerate(sizes):
        cid = f"conv-{ci:06d}"
        for ti in range(size):
            r = rand[k]
            n_sents = 1 + int(r[8]) % 3
            sents = [_sentence(np.roll(r, j) + j) for j in range(n_sents)]
            conv_ids[k] = cid
            turn_idx[k] = ti
            texts[k] = "\n".join(sents)
            role = role_names[ti % 3]
            roles[k] = role
            tools[k] = _TOOLS[int(r[8]) % len(_TOOLS)] if role == "tool" else ""
            ts[k] = _EPOCH_US + k * 1_000_000
            k += 1

    perm = rng.permutation(n)  # shuffled on disk -> engine must re-sort
    return pa.Table.from_arrays(
        [
            pa.array(conv_ids[perm], pa.string()),
            pa.array(turn_idx[perm], pa.int32()),
            pa.array(roles[perm], pa.string()),
            pa.array(texts[perm], pa.string()),
            pa.array(tools[perm], pa.string()),
            pa.array(ts[perm]).cast(pa.timestamp("us")),
        ],
        names=["conv_id", "turn_idx", "role", "text", "tool", "ts"],
    )


def ensure_transcripts(n_turns: int, seed: int = 42, n_files: int = 8,
                       root: str = "/tmp/graft_data") -> str:
    """Materialize (once) the deterministic transcript fixture as multiple
    Parquet files; returns the directory. Cached by (n_turns, seed). The
    directory is built under a temporary name and renamed into place
    whole, so one that exists is complete."""
    out = Path(root) / f"transcripts_n{n_turns}_s{seed}"
    if out.exists():
        return str(out)
    tbl = synth_transcripts_table(n_turns, seed)
    tmp = Path(str(out) + ".tmp")
    if tmp.exists():
        import shutil

        shutil.rmtree(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    n = tbl.num_rows
    step = max(1, (n + n_files - 1) // n_files)
    for i, ofs in enumerate(range(0, n, step)):
        pq.write_table(tbl.slice(ofs, step), tmp / f"part-{i:04d}.parquet")
    os.replace(tmp, out)
    return str(out)
