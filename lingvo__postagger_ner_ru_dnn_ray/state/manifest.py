"""Per-partition lineage manifests — resumable output layout.

The reference checkpoints a single model file (BaseSeq2SeqFramework.cs:
172-203 .bak/.latest routine); a batch data pipeline's equivalent is a
partitioned output directory where each partition carries a manifest
recording its lineage (inputs, row count, config hash) and its files
(name, bytes, rows). Partition assignment is a pure function of the data
(hash(conv_id) % P with P fixed per output), so a re-run over the same
input files reproduces each partition's contents.

``intact_manifests`` is the one rule for trusting a partition, used by
resume (``completed_partitions``: the intact ones of its config hash) and
by ``merge_kg_runs``: the manifest is complete and lists exactly the
``*.parquet`` files beside it, at their sizes. The config hash covers
``v``, ``num_partitions``, the input path and the artifact path, not the
files' contents: an input rewritten in place is not noticed.
"""
from __future__ import annotations

import json
import os
import zlib
from pathlib import Path

MANIFEST_NAME = "_manifest.json"


def partition_of(key: str, num_partitions: int) -> int:
    """Deterministic, process-stable partition id (NOT Python hash())."""
    return zlib.crc32(key.encode("utf-8")) % num_partitions


def config_hash(cfg: dict) -> str:
    return f"{zlib.crc32(json.dumps(cfg, sort_keys=True).encode()):08x}"


def partition_dir(out_dir: str | Path, part: int) -> Path:
    return Path(out_dir) / f"part={part}"


def write_manifest(out_dir: str | Path, part: int, cfg_hash: str, inputs: dict | None = None) -> dict:
    pdir = partition_dir(out_dir, part)
    pdir.mkdir(parents=True, exist_ok=True)
    import pyarrow.parquet as pq

    files = []
    rows = 0
    for f in sorted(pdir.glob("*.parquet")):
        n = pq.ParquetFile(f).metadata.num_rows
        files.append({"name": f.name, "bytes": f.stat().st_size, "rows": n})
        rows += n
    m = {
        "partition": part,
        "rows": rows,
        "files": files,
        "config_hash": cfg_hash,
        "inputs": inputs or {},
        "complete": True,
    }
    tmp = pdir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(m, indent=1))
    os.replace(tmp, pdir / MANIFEST_NAME)  # atomic publish
    return m


def _files_intact(pdir: Path, m: dict) -> bool:
    """Every file manifest ``m`` lists is in ``pdir`` with its listed size,
    and no other ``*.parquet`` lies beside them (stat calls only)."""
    try:
        sizes = {f.name: f.stat().st_size for f in pdir.glob("*.parquet")}
    except OSError:  # a file removed between the listing and its stat
        return False
    return sizes == {f["name"]: f["bytes"] for f in m.get("files", [])}


def intact_manifests(out_dir: str | Path) -> dict[int, dict]:
    """{partition: manifest} for every partition under ``out_dir`` whose
    manifest parses, is complete, and matches the partition's files."""
    found: dict[int, dict] = {}
    for pdir in Path(out_dir).glob("part=*"):
        try:
            m = json.loads((pdir / MANIFEST_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if m.get("complete") and _files_intact(pdir, m):
            found[int(m["partition"])] = m
    return found


def completed_partitions(out_dir: str | Path, cfg_hash: str) -> set[int]:
    """The intact partitions under ``out_dir`` of config ``cfg_hash``."""
    return {k for k, m in intact_manifests(out_dir).items() if m.get("config_hash") == cfg_hash}
