"""Driver contract (Ray Data target).

``entry()`` — flagship KG pipeline on sf0.001-scaled synthetic transcripts.
``queries()`` — the eight entries of the KG job and its boundaries; each
takes ``sf_dir`` and returns a Dataset / DataFrame / pyarrow Table.
``oracle_sql()`` — DuckDB-equivalent SQL per query. Tokenizer + DNN tagging
is not SQL-expressible, so the oracle is the SINGLE-PROCESS reference
implementation (pipelines/oracle.py — same pure transforms run sequentially
without Ray) materialized to Parquet and read via read_parquet(): the
comparison therefore checks that the distributed execution adds no
nondeterminism. Both sides read the same input files, the cached
transcripts and the web-JSON request file written from them, so a stale
input cannot make the two sides differ.

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ray.init()/ray.shutdown().
"""
from __future__ import annotations

import os
import re
import shutil
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import Any

_PKG = Path(__file__).parent / "lingvo__postagger_ner_ru_dnn_ray"
# the driver's caches, inputs and results, each built by ``_build_once``; a
# name carries the fingerprint of the code that wrote it, except an input
# that no package edit changes (the transcripts, named as ``_transcripts``
# names them, a build's ``.tmp`` included)
_CACHE = Path("/tmp/graft_data")
_FP_IN_NAME = re.compile(r"_([0-9a-f]{8})(?=[_.]|$)")
_TRANSCRIPTS_NAME = re.compile(r"transcripts_n\d+_s42_f\d+(\.tmp)?")


def _code_fingerprint() -> str:
    """Hash of the pipeline sources — keys the /tmp caches so results are
    never reused across code changes."""
    h = 0
    for f in sorted(_PKG.rglob("*.py")):
        h = zlib.crc32(f.read_bytes(), h)
    return f"{h:08x}"


def _remove(p: Path) -> None:
    if p.is_dir():
        shutil.rmtree(p, ignore_errors=True)
    else:
        p.unlink(missing_ok=True)


def _evict_stale() -> None:
    """Delete the cache entries that other code wrote: each one whose name
    carries a fingerprint other than the current one, and each one without
    a fingerprint that is not a transcript input ``_transcripts`` names
    (an input of an older name). The current code's entries at other
    scales stay."""
    fp = _code_fingerprint()
    for p in _CACHE.glob("*"):
        m = _FP_IN_NAME.search(p.name)
        stale = m.group(1) != fp if m else not _TRANSCRIPTS_NAME.fullmatch(p.name)
        if stale:
            _remove(p)


def _build_once(path: str, build: Callable[[str], None]) -> str:
    """``path``, a cache entry (file or directory) that ``build(tmp)``
    writes the first time it is asked for. The entry is built under a
    temporary name and renamed into place whole, so one that exists is
    complete. Before a build, an interrupted build's leftover goes, and so
    does every stale entry (``_evict_stale``)."""
    p = Path(path)
    if not p.exists():
        tmp = Path(path + ".tmp")
        _remove(tmp)
        _evict_stale()
        _CACHE.mkdir(parents=True, exist_ok=True)
        build(str(tmp))
        os.replace(tmp, p)
    return path


def _n_turns(sf_dir: str) -> int:
    """The synthetic transcript turns replayed at the scale
    factor sf that names ``sf_dir`` (``sf0.01``; 0.001 for another name):
    600,000 × sf, at least 200."""
    name = Path(sf_dir).name
    try:
        sf = float(name[2:]) if name.startswith("sf") else 0.001
    except ValueError:
        sf = 0.001
    return max(200, int(600_000 * sf))


def _transcripts(n_turns: int, n_files: int = 8) -> str:
    """The synthetic transcripts of ``n_turns`` turns (seed 42) as
    ``n_files`` Parquet files. The name carries no fingerprint:
    tests/test_kernel_pin.py pins the generator."""
    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import (
        synth_transcripts_table,
        write_transcripts,
    )

    def build(out: str) -> None:
        write_transcripts(synth_transcripts_table(n_turns, seed=42), out, n_files)

    return _build_once(str(_CACHE / f"transcripts_n{n_turns}_s42_f{n_files}"), build)


def _artifacts() -> str:
    """The lexicon-built models saved as the artifact directory that
    ``run_kg_job(artifact_dir=)`` loads; keyed by the code fingerprint."""
    from lingvo__postagger_ner_ru_dnn_ray.model.artifact import save_taggers

    return _build_once(str(_CACHE / f"models_{_code_fingerprint()}"), save_taggers)


def _synth_turns(sf_dir: str):
    """The transcript table the driver replays at this scale: the files
    that ``run_kg_job`` reads."""
    import pyarrow.parquet as pq

    return pq.read_table(_transcripts(_n_turns(sf_dir)))


def _kg_dirs(sf_dir: str) -> tuple[str, str]:
    """(ray_products_dir, oracle_dir) for this scale — both deterministic,
    cached by (n_turns, seed, code fingerprint)."""
    n, fp = _n_turns(sf_dir), _code_fingerprint()
    return str(_CACHE / f"kg_ray_n{n}_{fp}"), str(_CACHE / f"kg_oracle_n{n}_{fp}")


def _ensure_kg_oracle(sf_dir: str) -> str:
    """Materialize the single-process oracle tables (FIXTURES.md F5) once."""
    import pyarrow.parquet as pq

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.oracle import oracle_tables

    def build(out: str) -> None:
        Path(out).mkdir()
        for name, tbl in oracle_tables(_synth_turns(sf_dir)).items():
            pq.write_table(tbl, f"{out}/{name}.parquet")

    return _build_once(_kg_dirs(sf_dir)[1], build)


def _ensure_kg_ray(sf_dir: str) -> str:
    """Run the DISTRIBUTED pipeline once per scale: ``run_kg_job`` writes
    triples/, edges/ and nodes/, and the sentence and mention stages write
    sentences/ and mentions/. The kg_* queries read from here (one Ray
    execution is shared by the whole query family instead of re-tagging
    per query)."""
    import ray.data

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import (
        mention_rows,
        read_transcripts,
        run_kg_job,
        tagged_sentences,
    )

    def build(out: str) -> None:
        path = _transcripts(_n_turns(sf_dir))
        run_kg_job(path, out)
        tagged_sentences(read_transcripts(path)).write_parquet(f"{out}/sentences")
        sents = ray.data.read_parquet(f"{out}/sentences")
        mention_rows(sents).write_parquet(f"{out}/mentions")

    return _build_once(_kg_dirs(sf_dir)[0], build)


def _kg_table(sf_dir: str, name: str):
    """One table of the shared run. The job's hive-partitioned tables are
    read without their ``part`` column."""
    import ray.data

    out = _ensure_kg_ray(sf_dir)
    return ray.data.read_parquet(f"{out}/{name}", partitioning=None)


def _global_edges(out: str):
    """The job's per-partition edges summed over partitions."""
    import pyarrow.parquet as pq

    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import combine_edges

    return combine_edges(pq.read_table(f"{out}/edges", partitioning=None))


def _global_nodes(out: str):
    """The job's per-partition nodes summed over partitions."""
    import pyarrow.parquet as pq

    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import NODE_MINS, arrow_agg

    nodes = pq.read_table(f"{out}/nodes", partitioning=None)
    return arrow_agg(nodes, ["entity_id"], ["n_mentions"], NODE_MINS)


def _webjson_paths(sf_dir: str) -> tuple[str, str, str]:
    """(requests_jsonl, ray_out_dir, oracle_parquet) for the batch JSON
    boundary at this scale — all deterministic, keyed by (n_turns, code
    fingerprint) like the kg fixtures."""
    n, fp = _n_turns(sf_dir), _code_fingerprint()
    return (
        str(_CACHE / f"webjson_reqs_n{n}_{fp}.jsonl"),
        str(_CACHE / f"webjson_ray_n{n}_{fp}"),
        str(_CACHE / f"webjson_oracle_n{n}_{fp}.parquet"),
    )


def _ensure_webjson_requests(sf_dir: str) -> str:
    """Write (once) the request JSONL that both sides read: one
    ``{"id": "conv:turn", "text": ...}`` record per transcript turn."""
    import json

    def build(out: str) -> None:
        tbl = _synth_turns(sf_dir)
        with open(out, "w", encoding="utf-8") as f:
            for c, t, text in zip(*(tbl.column(k).to_pylist()
                                    for k in ("conv_id", "turn_idx", "text"))):
                rec = {"id": f"{c}:{t}", "text": text}
                f.write(json.dumps(rec, ensure_ascii=False) + "\n")

    return _build_once(_webjson_paths(sf_dir)[0], build)


def _ensure_webjson_ray(sf_dir: str) -> str:
    """Run (once) the DISTRIBUTED batch JSON boundary — JSONL ingest →
    web-JSON tasks over the kernel — and materialize its (id, sents_json)
    rows."""
    from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import (
        read_json_requests,
        tag_requests,
    )

    def build(out: str) -> None:
        reqs = read_json_requests(_ensure_webjson_requests(sf_dir))
        tag_requests(reqs, model_type="ner").write_parquet(out)

    return _build_once(_webjson_paths(sf_dir)[1], build)


def _ensure_webjson_oracle(sf_dir: str) -> str:
    """Single-process oracle for the batch JSON boundary: ONE webjson_batch
    call over the request file the Ray side reads (the FIXTURES.md F5
    pattern — same pure transforms, no Ray), materialized to Parquet for
    the SQL side."""
    import pyarrow.json as pj
    import pyarrow.parquet as pq

    from lingvo__postagger_ner_ru_dnn_ray.sources.jsonio import requests_table, webjson_batch

    def build(out: str) -> None:
        reqs = requests_table(pj.read_json(_ensure_webjson_requests(sf_dir)))
        pq.write_table(webjson_batch(reqs, model_type="ner"), out)

    return _build_once(_webjson_paths(sf_dir)[2], build)


def _web_json_tagged(sf_dir: str):
    import ray.data

    return ray.data.read_parquet(_ensure_webjson_ray(sf_dir))


def entry() -> Any:
    """Flagship: transcripts → fused tokenize → tag → triples → linked
    triples, at sf0.001 scale."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import (
        fused_linked_triples,
        read_transcripts,
    )

    return fused_linked_triples(read_transcripts(_transcripts(_n_turns("sf0.001"))))


def _sum_sentence_partials(sf_dir: str, partials, key: str, counts: list[str]):
    """``partials`` maps each block of the shared run's sentences to
    (key, *counts) rows; the driver sums those few rows per key with one
    Arrow aggregation."""
    import pyarrow as pa
    import ray

    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import arrow_agg

    part = _kg_table(sf_dir, "sentences").map_batches(partials, batch_format="pyarrow")
    return arrow_agg(pa.concat_tables(ray.get(part.to_arrow_refs())), [key], counts, [])


def _kg_sentence_len_histogram(sf_dir: str):
    """Sentence token-length histogram over the tagged sentences — the
    Corpus.cs:210-316 length-bucket analogue (partial counts → tiny sum)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def partials(batch: pa.Table) -> pa.Table:
        lens = pc.list_value_length(batch.column("values"))
        b = pc.divide(pc.cast(lens, pa.int64()), 10)
        t = pa.Table.from_arrays([b], names=["len_bucket"])
        g = t.group_by(["len_bucket"]).aggregate([([], "count_all")])
        return g.rename_columns(["len_bucket", "n_sents"])

    return _sum_sentence_partials(sf_dir, partials, "len_bucket", ["n_sents"])


def _kg_pos_label_counts(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    def partials(batch: pa.Table) -> pa.Table:
        flat = pc.list_flatten(batch.column("pos"))
        t = pa.Table.from_arrays([flat], names=["pos"])
        g = t.group_by(["pos"]).aggregate([([], "count_all")])
        return g.rename_columns(["pos", "n_tokens"])

    return _sum_sentence_partials(sf_dir, partials, "pos", ["n_tokens"])


def _kg_edges_artifact(sf_dir: str):
    """kg edges computed through the ARTIFACT deployment path:
    ``run_kg_job(artifact_dir=)``, each worker process loading the
    sha256-verified .npz weights once — the reference's
    model-shipped-as-file layout (ConcurrentFactory.cs:56-108 /
    BaseSeq2SeqFramework.cs:204-228). The oracle is the same edges table
    as kg_edges: the artifact round-trip is exact, so the two weight
    sources must produce identical graphs."""
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job

    def build(out: str) -> None:
        run_kg_job(_transcripts(_n_turns(sf_dir)), out, artifact_dir=_artifacts())

    return _global_edges(_build_once(_kg_dirs(sf_dir)[0] + "_artifact", build))


def queries() -> dict[str, Callable[[str], Any]]:
    """One callable per entry, keyed by name; each takes ``sf_dir``. The
    eight ``kg_*`` / ``web_json_tagged`` entries run the KG job and its
    boundaries. Order carries no meaning.
    """
    return {
        "kg_edges_artifact": _kg_edges_artifact,
        # the batch JSON boundary (web surface replay): web-JSON tasks vs
        # the single-process oracle
        "web_json_tagged": _web_json_tagged,
        "kg_triples": lambda sf: _kg_table(sf, "triples"),
        "kg_mentions": lambda sf: _kg_table(sf, "mentions"),
        "kg_edges": lambda sf: _global_edges(_ensure_kg_ray(sf)),
        "kg_nodes": lambda sf: _global_nodes(_ensure_kg_ray(sf)),
        "kg_pos_label_counts": _kg_pos_label_counts,
        "kg_sentence_len_histogram": _kg_sentence_len_histogram,
    }


def _kg_sql(orc: str) -> dict[str, str]:
    return {
        "kg_triples": f"SELECT * FROM read_parquet('{orc}/triples.parquet')",
        "kg_mentions": f"SELECT * FROM read_parquet('{orc}/mentions.parquet')",
        "kg_edges": f"SELECT * FROM read_parquet('{orc}/edges.parquet')",
        # the artifact-loaded job must reproduce the lexicon-weights
        # graph exactly (save/load round trip is bitwise on the weights)
        "kg_edges_artifact": f"SELECT * FROM read_parquet('{orc}/edges.parquet')",
        "kg_nodes": f"SELECT * FROM read_parquet('{orc}/nodes.parquet')",
        "kg_pos_label_counts": (
            "SELECT pos, count(*)::BIGINT AS n_tokens FROM ("
            f"SELECT unnest(pos) AS pos FROM read_parquet('{orc}/sentences.parquet')"
            ") GROUP BY pos"
        ),
    }


def oracle_sql() -> dict[str, str]:
    # The driver's correctness gate runs both sides at sf0.01, so the kg_*
    # and web_json_tagged oracles read single-process reference runs
    # materialized here as Parquet at that scale. GRAFT_ORACLE_SF_DIR lets
    # local replays validate the same families at other scales (e.g.
    # scripts/check_correctness.py /root/testdata/sf0.1) — the driver
    # never sets it, so its behavior is unchanged.
    sf = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")
    orc = _ensure_kg_oracle(sf)
    sql = _kg_sql(orc)
    sql["web_json_tagged"] = (
        f"SELECT * FROM read_parquet('{_ensure_webjson_oracle(sf)}')"
    )
    sql["kg_sentence_len_histogram"] = (
        "SELECT len(\"values\") // 10 AS len_bucket, count(*)::BIGINT AS n_sents "
        f"FROM read_parquet('{orc}/sentences.parquet') GROUP BY len(\"values\") // 10"
    )
    return sql
