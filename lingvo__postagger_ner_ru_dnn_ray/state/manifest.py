"""Per-partition lineage manifests — resumable output layout.

The reference checkpoints a single model file (BaseSeq2SeqFramework.cs:
172-203 .bak/.latest routine); a batch data pipeline's equivalent is a
partitioned output directory where each partition carries a manifest
recording its lineage (inputs, row count, config hash) and its files
(name, bytes, rows). Partition assignment is a pure function of the data
(hash(conv_id) % P with P fixed per output), so a re-run over the same
input files reproduces each partition's contents.

``intact_manifests`` is the one rule for trusting a partition, used by
resume (the intact ones of its config hash, ``completed_partitions``) and
by ``merge_kg_runs``: the manifest is complete and lists exactly the
``*.parquet`` files beside it, at their sizes. The config hash covers
``v``, ``num_partitions``, the input path and the artifact path, not the
files' contents: an input rewritten in place is not noticed. A job's
edges and nodes manifests also record ``files_digest`` of the triples
manifest they were built from, and resume trusts a graph only while that
digest is the current one's.

One process writes an output directory at a time (``writer_lock``): a
second job's clearing pass would otherwise remove the files of partitions
the first has not yet published.
"""
from __future__ import annotations

import json
import os
import socket
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path

MANIFEST_NAME = "_manifest.json"
LOCK_NAME = "_writer.lock"


def partition_of(key: str, num_partitions: int) -> int:
    """Deterministic, process-stable partition id (NOT Python hash())."""
    return zlib.crc32(key.encode("utf-8")) % num_partitions


def config_hash(cfg: dict) -> str:
    return f"{zlib.crc32(json.dumps(cfg, sort_keys=True).encode()):08x}"


def files_digest(m: dict) -> str:
    """A digest of the files manifest ``m`` lists: their names, sizes and
    rows."""
    return config_hash({"files": m.get("files", [])})


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


def _start_time(pid: int) -> int | None:
    """The start time of process ``pid`` in clock ticks since boot (field
    22 of ``/proc/<pid>/stat``), or None without such a file."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[19])


def _holds(holder: dict) -> bool:
    """Whether the process a lock records may still hold it: one on another
    host always may; one on this host while it runs, which a reused pid
    (another start time) does not."""
    if holder.get("host") != socket.gethostname():
        return True
    try:
        os.kill(holder["pid"], 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        pass
    return _start_time(holder["pid"]) == holder.get("start")


def _take_over(path: Path, seen: str) -> None:
    """Remove the lock at ``path`` if it still holds ``seen``: it is moved
    aside first, so two takers cannot both remove it, and put back if a
    new holder's lock was moved instead."""
    aside = path.with_name(f"{path.name}.{os.getpid()}")
    try:
        os.rename(path, aside)
    except FileNotFoundError:
        return  # another taker removed it first
    if aside.read_text() != seen:
        os.link(aside, path)
    aside.unlink()


@contextmanager
def writer_lock(out_dir: str | Path) -> Iterator[None]:
    """Hold ``out_dir/_writer.lock`` while the body runs: created with
    ``O_CREAT | O_EXCL``, recording this host, pid and the pid's start
    time, and removed when the body ends. If another writer holds it this
    raises ``RuntimeError`` at once, naming the holder; a lock whose
    holder has died on this host is taken over."""
    path = Path(out_dir) / LOCK_NAME
    path.parent.mkdir(parents=True, exist_ok=True)
    pid = os.getpid()
    me = json.dumps({"host": socket.gethostname(), "pid": pid, "start": _start_time(pid)})
    while True:
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
            break
        except FileExistsError:
            try:
                seen = path.read_text()
            except FileNotFoundError:
                continue  # released between the two calls
        try:
            holder = json.loads(seen)
        except json.JSONDecodeError:
            holder = None  # a holder that has not written it yet
        if holder is None or _holds(holder):
            raise RuntimeError(f"{out_dir} has another writer: {path} holds "
                               f"{seen or 'nothing yet'}")
        _take_over(path, seen)
    with os.fdopen(fd, "w") as f:
        f.write(me)
    try:
        yield
    finally:
        path.unlink(missing_ok=True)
