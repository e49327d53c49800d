"""Kill-mid-job resume stress at bench scale: SIGKILL a running kg job,
re-run it with resume=True, and verify (1) the resumed output is
row-for-row identical to an uninterrupted run, (2) the resume
completed ONLY the partitions missing their lineage manifests and (3) it
did not tag again the partitions whose triples survived the kill: each
of their ``_manifest.json`` files keeps its bytes, inode and mtime — the
north-rule's "resumable from checkpoint with per-partition lineage"
demonstrated at 240k turns / 16 partitions, not just the pytest fixture.

    python scripts/stress_resume.py [n_turns]

Runs three jobs: reference (uninterrupted), victim (SIGKILLed as soon as
its first triples manifest is published), resume (same out_dir as
victim). Prints one JSON line, ``triples_partitions_retagged`` listing
the survivors whose manifest the resume rewrote. Exits non-zero if the
victim finished before it could be killed, if no triples manifest existed
at the kill (a resume from nothing is a full re-run and checks no partial
resume), or if the resume re-tagged a surviving partition.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

N_TURNS = int(sys.argv[1]) if len(sys.argv) > 1 else 240_000
PARTS = 16
POLL_S = 0.005  # how often the victim's triples manifests are looked for

_CHILD = """
import os, sys
sys.path.insert(0, {repo!r})
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
import ray
ray.init(address="local", num_cpus=int(os.environ.get("RAY_GRAFT_CPUS") or os.cpu_count()),
         include_dashboard=False, logging_level="ERROR")
import logging
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
logging.getLogger("ray.data").setLevel(logging.ERROR)
from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job
res = run_kg_job({tpath!r}, {out!r}, num_partitions={parts}, resume=True)
import json
print("DONE " + json.dumps({{"run": res.get("partitions_run") or [],
                             "done": res.get("partitions_done") or []}}))
ray.shutdown()
"""


def _run_child(tpath: str, out: str, kill: bool = False) -> tuple[int, str]:
    """Run one job and return its exit status and stdout; with ``kill``,
    SIGKILL it as soon as a triples manifest appears under ``out``."""
    from lingvo__postagger_ner_ru_dnn_ray.state.manifest import MANIFEST_NAME

    code = _CHILD.format(repo=str(Path(__file__).resolve().parents[1]),
                         tpath=tpath, out=out, parts=PARTS)
    proc = subprocess.Popen([sys.executable, "-c", code],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True, start_new_session=True)
    if not kill:
        out_txt, _ = proc.communicate()
        return proc.returncode, out_txt
    while not any(Path(out).glob(f"triples/part=*/{MANIFEST_NAME}")):
        if proc.poll() is not None:
            sys.exit("stress_resume: the victim finished before it published a "
                     "triples manifest; nothing to resume")
        time.sleep(POLL_S)
    # SIGKILL the whole process group: driver AND its local Ray workers
    # die instantly — no graceful teardown, the crash case lineage
    # manifests exist for
    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    proc.wait()
    return proc.returncode, ""


def main() -> None:
    import __ray_entry__

    tpath = __ray_entry__._transcripts(N_TURNS, n_files=64)
    import shutil

    ref_dir, vic_dir = "/tmp/resume_ref", "/tmp/resume_victim"
    for d in (ref_dir, vic_dir):
        shutil.rmtree(d, ignore_errors=True)

    rc, _ = _run_child(tpath, ref_dir)
    assert rc == 0, "reference run failed"

    t0 = time.perf_counter()
    rc, _ = _run_child(tpath, vic_dir, kill=True)
    killed_after_s = round(time.perf_counter() - t0, 2)
    if rc == 0:
        sys.exit("stress_resume: the victim finished before the kill landed")
    from lingvo__postagger_ner_ru_dnn_ray.state import manifest as mf

    # partitions with a published manifest at kill time (config-hash check
    # happens inside run_kg_job; here we just count what survived)
    survived = {
        t: sorted(int(p.parent.name.split("=")[1])
                  for p in Path(vic_dir).glob(f"{t}/part=*/{mf.MANIFEST_NAME}"))
        for t in ("triples", "edges", "nodes")
    }
    if not survived["triples"]:
        sys.exit("stress_resume: no triples manifest existed at the kill")

    def triples_manifest(part: int) -> tuple:
        """A triples manifest's bytes, inode and mtime: a re-tagged
        partition gets a manifest written anew."""
        p = mf.partition_dir(f"{vic_dir}/triples", part) / mf.MANIFEST_NAME
        if not p.exists():
            return ()
        st = p.stat()
        return p.read_bytes(), st.st_ino, st.st_mtime_ns

    at_kill = {k: triples_manifest(k) for k in survived["triples"]}
    t0 = time.perf_counter()
    rc, out_txt = _run_child(tpath, vic_dir)
    assert rc == 0, "resume run failed"
    resume_s = round(time.perf_counter() - t0, 1)
    retagged = [k for k, m in at_kill.items() if triples_manifest(k) != m]

    # invariant (2): the resume re-ran EXACTLY the complement of the
    # fully-manifested partitions (a regression that ignores manifests
    # and recomputes everything would still be row-identical — catch it
    # here, not by eyeballing the printed JSON)
    payload = json.loads(out_txt.rsplit("DONE ", 1)[1])
    ran, done_at_start = set(payload["run"]), set(payload["done"])
    fully_done = set(survived["triples"]) & set(survived["edges"]) & set(survived["nodes"])
    assert done_at_start == fully_done, (ran, done_at_start, fully_done)
    assert ran == set(range(PARTS)) - fully_done, (ran, fully_done)

    import duckdb

    con = duckdb.connect()
    mismatch = {}
    for t, keys in (("triples", "conv_id, turn_idx, sent_idx, triple_idx"),
                    ("edges", "part, subj_id, pred, obj_id"),
                    ("nodes", "part, entity_id")):
        q = f"""
        SELECT count(*) FROM (
          SELECT * FROM parquet_scan('{ref_dir}/{t}/part=*/*.parquet', hive_partitioning=1)
          EXCEPT ALL
          SELECT * FROM parquet_scan('{vic_dir}/{t}/part=*/*.parquet', hive_partitioning=1)
        )"""
        diff1 = con.execute(q).fetchone()[0]
        q2 = q.replace(ref_dir, "@@").replace(vic_dir, ref_dir).replace("@@", vic_dir)
        diff2 = con.execute(q2).fetchone()[0]
        mismatch[t] = diff1 + diff2
    print(json.dumps({
        "n_turns": N_TURNS,
        "killed_after_s": killed_after_s,
        "partitions_with_manifest_at_kill": {k: len(v) for k, v in survived.items()},
        "survived_detail": survived,
        "resume_wall_s": resume_s,
        "resume_partitions_run": sorted(ran),
        "triples_partitions_retagged": retagged,
        "row_set_mismatch_vs_uninterrupted": mismatch,
        "exact": all(v == 0 for v in mismatch.values()),
    }))
    if retagged:
        sys.exit(f"stress_resume: the resume re-tagged surviving triples partitions {retagged}")


if __name__ == "__main__":
    main()
