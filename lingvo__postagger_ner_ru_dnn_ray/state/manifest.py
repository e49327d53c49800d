"""Per-partition lineage manifests — resumable output layout.

The reference checkpoints a single model file (BaseSeq2SeqFramework.cs:
172-203 .bak/.latest routine); a batch data pipeline's equivalent is a
partitioned output directory where each partition carries a manifest
recording its lineage (input selector, row count, config hash) and its
files (name, bytes, rows). A resumed run skips partitions whose manifest is
complete and whose files still match it, and re-processes the rest;
partition assignment is a deterministic pure function of the data
(hash(conv_id) % P with P fixed per output), so a re-run reproduces the
same partition contents byte-for-byte given the same inputs and config.
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


def completed_partitions(out_dir: str | Path, cfg_hash: str) -> set[int]:
    """The partitions under ``out_dir`` whose manifest is complete, of
    config ``cfg_hash``, and matches the partition's files."""
    done: set[int] = set()
    root = Path(out_dir)
    if not root.exists():
        return done
    for pdir in root.glob("part=*"):
        mf = pdir / MANIFEST_NAME
        if not mf.exists():
            continue
        try:
            m = json.loads(mf.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if m.get("complete") and m.get("config_hash") == cfg_hash and _files_intact(pdir, m):
            done.add(int(m["partition"]))
    return done
