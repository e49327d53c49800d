"""Validation report: per-class P/R/F1 counters as a driver-checked query.

The reference's validation entry point runs the model over a labeled
corpus and reports per-class precision/recall/F-score plus an 'all' row
(Applications/Validator.cs:36-67; counter semantics
Metrics/SeqLabelFscoreMetric.cs:23-53 — position-aligned exact label
match, P=match/hyp, R=match/ref; multi-label 'all' over labels except the
outside class, Metrics/MultiLabelsFscoreMetric.cs:40-99).

Here the labeled corpus is the tagged-sentence table itself with REF
labels derived by a deterministic perturbation of the gold labels
(md5(token) % 7 == 0 → next label in the POS label list), simulating
annotation noise so the counters are non-trivial. The perturbation is a
pure cross-language function (DuckDB md5_number_upper == Python md5
little-endian) so the SQL oracle independently recomputes the SAME
counters from the sequential oracle run's sentences — checking both the
distributed counter aggregation and the perturbation arithmetic.

Output: (label, hyp_count, ref_count, match_count) — integer counters
(exact under any distribution), from which P/R/F1 are single divisions.
"""
from __future__ import annotations

import hashlib

import pyarrow as pa

from ..textkit.features import POS_LABELS

_PERTURB_MOD = 7

_NEXT_LABEL = {
    lab: POS_LABELS[(i + 1) % len(POS_LABELS)] for i, lab in enumerate(POS_LABELS)
}


def _md5_u64(s: str) -> int:
    """First 8 bytes of md5, little-endian == DuckDB md5_number_upper()."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")


def perturb_ref(value: str, gold: str) -> str:
    """Deterministic annotation noise: every token whose md5 ≡ 0 (mod 7)
    gets the next label in the POS list as its reference label."""
    if _md5_u64(value) % _PERTURB_MOD == 0:
        return _NEXT_LABEL.get(gold, gold)
    return gold


def fscore_counts_batch(refs: list[list[str]], hyps: list[list[str]]) -> pa.Table:
    """Partial counts per label over the sentences' aligned (ref, hyp)
    labels, each sentence compared over min(len(ref), len(hyp)) positions
    (SeqLabelFscoreMetric.cs:23-53)."""
    counts: dict[str, list[int]] = {}
    for ref, hyp in zip(refs, hyps):
        for r, h in zip(ref, hyp):
            cr = counts.setdefault(r, [0, 0, 0])
            cr[1] += 1  # ref_count
            counts.setdefault(h, [0, 0, 0])[0] += 1  # hyp_count
            if r == h:
                cr[2] += 1  # match
    labels = sorted(counts)
    return pa.Table.from_arrays(
        [pa.array(labels, pa.string())]
        + [pa.array([counts[lab][i] for lab in labels], pa.int64()) for i in range(3)],
        names=["label", "hyp_count", "ref_count", "match_count"],
    )


def seqlabel_f1_partials(batch: pa.Table) -> pa.Table:
    """Sentence rows (values, pos) of one block → its per-class counters,
    against the perturbed ref labels; summed per label over the blocks
    they give the report."""
    pos = batch.column("pos").to_pylist()
    refs = [[perturb_ref(v, g) for v, g in zip(vs, gs)]
            for vs, gs in zip(batch.column("values").to_pylist(), pos)]
    return fscore_counts_batch(refs, pos)


def seqlabel_f1_oracle_sql(oracle_sentences_parquet: str) -> str:
    """Independent SQL recomputation of the counters from the sequential
    oracle run's sentences parquet (same perturbation, SQL-side md5)."""
    lab_vals = ", ".join(f"('{l}', {i})" for i, l in enumerate(POS_LABELS))
    n = len(POS_LABELS)
    return f"""
WITH t AS (
  SELECT unnest("values") AS value, unnest(pos) AS hyp
  FROM read_parquet('{oracle_sentences_parquet}')
), lab(label, i) AS (VALUES {lab_vals}),
r AS (
  SELECT t.value, t.hyp,
    CASE WHEN md5_number_upper(t.value) % {_PERTURB_MOD} = 0
         THEN coalesce(l2.label, t.hyp) ELSE t.hyp END AS ref
  FROM t LEFT JOIN lab l1 ON t.hyp = l1.label
         LEFT JOIN lab l2 ON l2.i = (l1.i + 1) % {n}
)
SELECT label, sum(hyp_c)::BIGINT AS hyp_count, sum(ref_c)::BIGINT AS ref_count,
       sum(match_c)::BIGINT AS match_count
FROM (
  SELECT hyp AS label, 1 AS hyp_c, 0 AS ref_c, 0 AS match_c FROM r
  UNION ALL
  SELECT ref, 0, 1, CASE WHEN ref = hyp THEN 1 ELSE 0 END FROM r
) GROUP BY label
"""
