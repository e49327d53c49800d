"""Two writers on one output directory, each a process with its own 1-CPU
Ray session, running the same input into the same ``out_dir``.

    python scripts/two_writers.py [n_turns]

Writes ``n_turns`` synthetic turns (default 60,000) to a temporary
directory, starts the first job, and starts the second 3.5–6.5 s later
(a uniform draw). The second's ``run_kg_job`` must raise at once, naming
the first's pid as the holder of ``out_dir/_writer.lock``, and its
process must exit non-zero while the first still runs. The first must
exit 0, and its triples, edges and nodes must equal the single-process
oracle (``perfbench/check.py``, imported read-only). Prints one JSON line
and exits non-zero if any of this fails; a first job that ends before the
second tries needs a larger ``n_turns``.
"""
from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(REPO), str(REPO / "perfbench")]

N_TURNS = int(sys.argv[1]) if len(sys.argv) > 1 else 60_000
PARTS = 4
AT_ONCE_S = 2.0  # the longest a refusal may take to be "at once"

_CHILD = """
import json, sys, time
sys.path.insert(0, {repo!r})
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job
t0 = time.perf_counter()
try:
    run_kg_job({src!r}, {out!r}, num_partitions={parts})
except RuntimeError as e:
    print("REFUSED " + json.dumps({{"s": time.perf_counter() - t0, "error": str(e)}}))
    sys.exit(3)
finally:
    ray.shutdown()
print("DONE")
"""


def _start(src: str, out: str) -> subprocess.Popen:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    code = _CHILD.format(repo=str(REPO), src=src, out=out, parts=PARTS)
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env)


def main() -> int:
    import check

    from lingvo__postagger_ner_ru_dnn_ray.sources.transcripts import (
        synth_transcripts_table, write_transcripts)

    delay = random.uniform(3.5, 6.5)
    with tempfile.TemporaryDirectory(prefix="two_writers_") as tmp:
        src, out = f"{tmp}/in", f"{tmp}/kg"
        write_transcripts(synth_transcripts_table(N_TURNS, seed=5), src, n_files=4)
        t0 = time.perf_counter()
        first, second = _start(src, out), None
        try:
            time.sleep(delay)
            second = _start(src, out)
            second_out, _ = second.communicate()
            first_running = first.poll() is None
            first_out, _ = first.communicate()
        finally:
            for proc in (first, second):
                if proc is not None and proc.poll() is None:
                    proc.kill()
        first_s = time.perf_counter() - t0
        refused = (json.loads(second_out.rsplit("REFUSED ", 1)[1])
                   if "REFUSED " in second_out else None)
        bad = check.mismatches(check.expected_tables(src)[0], out) if first.returncode == 0 else []
    ok = (refused is not None and second.returncode != 0 and first_running
          and f'"pid": {first.pid}' in refused["error"] and refused["s"] < AT_ONCE_S
          and first.returncode == 0 and "DONE" in first_out and not bad)
    print(json.dumps({
        "n_turns": N_TURNS,
        "second_started_after_s": round(delay, 2),
        "first_pid": first.pid,
        "first_running_when_second_ended": first_running,
        "second_exit": second.returncode,
        "second_refused_after_s": refused and round(refused["s"], 4),
        "second_error": refused and refused["error"],
        "first_exit": first.returncode,
        "first_wall_s": round(first_s, 1),
        "tables_unequal_to_oracle": bad,
        "ok": ok,
    }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
