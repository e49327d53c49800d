#!/usr/bin/env python3
"""KG-construction benchmark: ``pipelines.kg.run_kg_job`` on one machine.

    python3 perfbench/run.py --workload kg_dup --seed 1 --seconds 10 --trace 0

Run it from the repository root or from anywhere else; it finds the package
next to its own directory. Each run makes its inputs from ``--seed``,
computes the single-process oracle once, then measures fresh Ray sessions
one after another until ``--seconds`` have passed (at least one). A session
starts Ray with one CPU, runs a warm-up job on a disjoint input
(that is its set-up time), then one timed job, whose output is checked
against the oracle. ``--trace 1`` runs one plain and one traced session and
reports per-layer metrics instead. The last line of standard output is one
JSON object; perfbench/README.md describes the workloads and metrics.

The measuring runs in a child process. The parent is a child subreaper:
when the child has ended it kills and reaps every process the run left
behind (Ray daemons and workers, multiprocessing helpers), so no process
of a run outlives it.
"""
from __future__ import annotations

import os

# one BLAS thread per process, in this one and, through the environment
# Ray hands its workers, in every worker
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "lingvo__postagger_ner_ru_dnn_ray"
WORK = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"

# one core: Ray schedules one task at a time, as on a one-CPU host (the
# machine's other cores only absorb Ray's own daemons)
NUM_CPUS = 1
# None runs tagging as stateless tasks; an int N as a pool of N actors
TAG_CONCURRENCY = None
NUM_PARTITIONS = 8
WARM_TURNS = 300
MIN_SESSIONS = 1
JOB_TIMEOUT_S = 90
OBJECT_STORE_BYTES = 256 << 20
# a Unix socket path holds at most 107 bytes, and Ray puts its sockets
# about 65 characters below its temp dir
MAX_RAY_TEMP_LEN = 40
# the measuring child of the supervising process (see ``supervise``)
CHILD_ENV = "PERFBENCH_CHILD"
PR_SET_CHILD_SUBREAPER = 36
RUN_TIMEOUT_S = 165
REAP_GRACE_S = 3.0
REAP_KILL_S = 5.0


@dataclass(frozen=True)
class Workload:
    turns: int
    unique: bool = False
    rebuild: bool = False


WORKLOADS = {
    "kg_dup": Workload(turns=6000),
    "kg_unique": Workload(turns=5000, unique=True),
    "kg_rebuild": Workload(turns=3000, rebuild=True),
}

END_TO_END = {"turns_per_cpu_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "kg.read.s": "s", "kg.read.rows": "count", "kg.repartition.s": "s",
    "kg.write.s": "s", "kg.write.files": "count", "kg.write.mb": "MB",
    "kg.ops.triples.task_s": "s", "kg.ops.edges.task_s": "s", "kg.ops.nodes.task_s": "s",
    "fused.s": "s", "fused.turns_in": "count", "fused.turns_computed": "count",
    "fused.memo_hit_ratio": "ratio",
    "textkit.tokenize.s": "s", "textkit.sentences": "count", "textkit.tokens": "count",
    "tagger.pos.forward_s": "s", "tagger.ner.forward_s": "s",
    "tagger.sentences_in": "count", "tagger.sentences_forwarded": "count",
    "tagger.memo_hit_ratio": "ratio",
    "triples.extract_s": "s", "triples.out": "count",
    "linking.lookup_s": "s", "linking.surfaces": "count", "linking.hit_ratio": "ratio",
    "layers.self_s": "s",
    "conflate.edges.s": "s", "conflate.edge_partial_rows": "count",
    "conflate.edges_out": "count", "conflate.combine_ratio": "ratio",
    "conflate.nodes.s": "s", "conflate.nodes_out": "count",
    "manifest.publish_s": "s", "manifest.written": "count", "manifest.scan_s": "s",
    "baseline.single_process_s": "s",
    "trace.untraced_job_s": "s", "trace.job_s": "s", "trace.overhead_s": "s",
}


class JobTimeout(Exception):
    pass


# ------------------------------------------------------------- processes
def _children() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    return kids


def _descendants(root: int) -> list[int]:
    kids, out, stack = _children(), [], [root]
    while stack:
        for pid in kids.get(stack.pop(), []):
            out.append(pid)
            stack.append(pid)
    return out


def ray_worker_pids() -> list[int]:
    """Descendants of this process whose title marks a Ray worker."""
    out = []
    for pid in _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if f.read().startswith(b"ray::"):
                    out.append(pid)
        except OSError:
            pass
    return out


def _become_subreaper() -> None:
    """Orphaned descendants (Ray workers outliving their raylet, the
    multiprocessing resource tracker) are re-parented to this process
    instead of init, so it can find and reap them."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def _reap_descendants(grace_s: float) -> None:
    """Give every descendant ``grace_s`` seconds to exit by itself, then
    kill what is left; return once no descendant is left, reaped or not."""
    deadline = time.monotonic() + grace_s
    give_up = deadline + REAP_KILL_S
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            return  # no child left, and as subreaper no descendant either
        now = time.monotonic()
        if now > give_up:
            print(f"perfbench: processes left running: {_descendants(os.getpid())}",
                  file=sys.stderr)
            return
        if now > deadline:
            for pid in _descendants(os.getpid()):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.05)


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process; once it has ended, or after
    ``RUN_TIMEOUT_S``, stop and reap every process it started."""
    import subprocess

    _become_subreaper()
    # a SIGTERM or SIGHUP ends the wait below and still runs the clean-up
    for sig in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(sig, lambda signum, frame: sys.exit(128 + signum))
    proc = subprocess.Popen([sys.executable, __file__, *argv],
                            env={**os.environ, CHILD_ENV: "1"})
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        # a child cut short gets no grace: its whole tree is killed at once
        _reap_descendants(REAP_GRACE_S if proc.poll() is not None else 0.0)


def tree_cpu_s() -> float:
    """User plus system CPU seconds of this process and its live
    descendants, Ray's daemons and workers. On the one-core host the
    benchmark models they all share that core, so a job's CPU
    seconds are its wall seconds there. Unlike wall time on a shared VM,
    they leave out what the host steals: the kernel charges a stolen tick
    to no process."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            with open(f"/proc/{pid}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        except (OSError, IndexError, ValueError):
            pass
    return total / tick


def steal_s() -> float:
    """Seconds the host has stolen from this VM since boot, summed over its
    CPUs: time a shared host ran another guest while this one had work."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def reset_peak_rss(pids: list[int]) -> None:
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def peak_rss_mb(pids: list[int]) -> float:
    """Sum over ``pids`` of each process's peak RSS since its last reset."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                total_kb += next(int(line.split()[1]) for line in f
                                 if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
    return total_kb / 1024


# ------------------------------------------------------------- Ray
def check_pool(tag_concurrency: int | None, num_cpus: int) -> None:
    """Each actor of a tagging pool holds one CPU for the whole job; with no
    CPU left over, the read tasks that feed the pool never start."""
    if tag_concurrency is not None and tag_concurrency >= num_cpus:
        raise SystemExit(
            f"a tagging pool of {tag_concurrency} actors leaves no CPU for the read "
            f"tasks on {num_cpus} CPU(s): the job would deadlock")


def ray_start(memo_stats: bool) -> None:
    import logging

    import ray
    from ray.data import DataContext

    # workers import the package from ROOT whatever the working directory
    env = {"PYTHONPATH": str(ROOT), **BLAS_ENV}
    if memo_stats:
        env["GRAFT_KG_MEMO_STATS"] = "1"
    kwargs = {}
    temp = WORK / "ray"
    if len(str(temp)) <= MAX_RAY_TEMP_LEN:
        kwargs["_temp_dir"] = str(temp)
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR", object_store_memory=OBJECT_STORE_BYTES,
             runtime_env={"env_vars": env}, **kwargs)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def _on_alarm(signum, frame):
    raise JobTimeout(f"job exceeded {JOB_TIMEOUT_S} s")


def _manifest_mtimes(table_dir: Path) -> dict[str, int]:
    return {str(p): p.stat().st_mtime_ns for p in table_dir.glob("part=*/_manifest.json")}


# ------------------------------------------------------------- a session
@dataclass(frozen=True)
class Ctx:
    workload: Workload
    input_dir: str
    warm_dir: str
    out_dir: Path
    expected: dict
    n_turns: int


def kg_job(ctx: Ctx, input_dir: str, out_dir: Path, *, resume: bool,
           stats_out: list | None = None) -> dict:
    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import run_kg_job

    return run_kg_job(input_dir, str(out_dir), num_partitions=NUM_PARTITIONS,
                      resume=resume, tag_concurrency=TAG_CONCURRENCY,
                      stats_out=stats_out)


def session(ctx: Ctx, index: int, tracer=None) -> dict:
    """One fresh Ray session: set-up (start + warm-up job), one timed job,
    the oracle check; with a ``tracer``, also the per-layer probes."""
    import ray

    from check import mismatches

    rec: dict = {"session": index, "traced": tracer is not None, "ok": False, "error": None}
    warm_out = WORK / "warm_out"
    out = ctx.out_dir
    st0 = steal_s()
    t0 = time.perf_counter()
    ray_start(memo_stats=tracer is not None)
    try:
        memo = None
        if tracer is not None:
            from lingvo__postagger_ner_ru_dnn_ray.stages.fused import start_memo_stats

            memo = start_memo_stats()  # before the warm-up: workers look it up once
        kg_job(ctx, ctx.warm_dir, warm_out, resume=False)
        rec["setup_s"] = time.perf_counter() - t0
        rec["setup_steal_s"] = steal_s() - st0
        shutil.rmtree(warm_out)

        if not ctx.workload.rebuild:
            shutil.rmtree(out, ignore_errors=True)
        else:
            if not (out / "triples").exists():
                kg_job(ctx, ctx.input_dir, out, resume=False)  # publish triples, untimed
            for t in ("edges", "nodes"):
                shutil.rmtree(out / t, ignore_errors=True)
        triples_before = _manifest_mtimes(out / "triples")
        if memo is not None:
            ray.get(memo.reset.remote())

        stats: list | None = [] if tracer is not None else None
        reset_peak_rss([os.getpid()] + ray_worker_pids())
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.alarm(JOB_TIMEOUT_S)
        try:
            st1, c1 = steal_s(), tree_cpu_s()
            t1 = time.perf_counter()
            res = kg_job(ctx, ctx.input_dir, out, resume=ctx.workload.rebuild, stats_out=stats)
            rec["job_s"] = time.perf_counter() - t1
            rec["job_cpu_s"] = tree_cpu_s() - c1
            rec["job_steal_s"] = steal_s() - st1
        finally:
            signal.alarm(0)
        rec["peak_rss_mb"] = peak_rss_mb([os.getpid()] + ray_worker_pids())
        rec["turns_per_s"] = ctx.n_turns / rec["job_s"]
        rec["turns_per_cpu_s"] = ctx.n_turns / rec["job_cpu_s"]

        errors = [f"{name} differs from the oracle"
                  for name in mismatches(ctx.expected, str(out))]
        if res.get("skipped"):
            errors.append("the job skipped every partition")
        if ctx.workload.rebuild and _manifest_mtimes(out / "triples") != triples_before:
            errors.append("the rebuild rewrote the triples table")
        rec["ok"] = not errors
        rec["error"] = "; ".join(errors) or None

        if tracer is not None:
            time.sleep(0.2)  # let the workers' last counter updates land
            rec["memo"] = ray.get(memo.get.remote())
            rec["operators"] = {name: parse_stats(text) for name, text in stats}
            probe_pipeline(ctx, tracer)
    except Exception as e:  # a failed run is counted against error_rate
        rec["ok"] = False
        rec["error"] = f"{type(e).__name__}: {e}"
    finally:
        ray.shutdown()
    return rec


def parse_stats(text: str) -> list[dict]:
    """Operators of one ``Dataset.stats()`` text: name, seconds it ran, and
    the summed wall time of its tasks (sub-operators included)."""
    units = {"us": 1e-6, "ms": 1e-3, "s": 1.0}
    ops: list[dict] = []
    for line in text.splitlines():
        m = re.match(r"Operator \d+ (.+?): .*in ([\d.]+)s$", line)
        if m:
            ops.append({"op": m.group(1), "ran_s": float(m.group(2)), "task_s": 0.0})
            continue
        m = re.search(r"Remote wall time: .* ([\d.]+)(us|ms|s) total", line)
        if m and ops:
            ops[-1]["task_s"] += float(m.group(1)) * units[m.group(2)]
    return ops


def probe_pipeline(ctx: Ctx, tr) -> None:
    """Time the pipeline's building blocks from outside, one call each, on
    the data the traced job read and wrote."""
    import ray.data

    from lingvo__postagger_ner_ru_dnn_ray.pipelines.kg import read_transcripts
    from lingvo__postagger_ner_ru_dnn_ray.stages.conflate import (
        conflate_edges,
        edge_partials,
        nodes_from_edges,
    )
    from lingvo__postagger_ner_ru_dnn_ray.state import manifest as mf

    out = ctx.out_dir
    rebuild = ctx.workload.rebuild
    with tr.span("kg.read"):
        if rebuild:  # a rebuild reads the published triples
            src = ray.data.read_parquet(str(out / "triples")).materialize()
        else:
            src = read_transcripts(ctx.input_dir,
                                   override_num_blocks=max(64, 8 * NUM_CPUS)).materialize()
    tr.count("kg.read.rows", src.count())

    if rebuild:  # a rebuild writes edges and repartitions nothing
        to_write = ray.data.read_parquet(str(out / "edges")).materialize()
    else:
        triples = ray.data.read_parquet(str(out / "triples")).materialize()
        with tr.span("kg.repartition"):
            to_write = triples.repartition(max(NUM_PARTITIONS, 16)).materialize()
    probe_dir = WORK / "probe_write"
    with tr.span("kg.write"):
        to_write.write_parquet(str(probe_dir), partition_cols=["part"])
    files = list(probe_dir.rglob("*.parquet"))
    tr.count("kg.write.files", len(files))
    tr.count("kg.write.mb", sum(f.stat().st_size for f in files) / 2**20)
    shutil.rmtree(probe_dir)

    tri = ray.data.read_parquet(str(out / "triples"))
    tr.count("conflate.edge_partial_rows", tri.map_batches(
        edge_partials, batch_format="pyarrow", fn_kwargs={"extra_keys": ["part"]}).count())
    with tr.span("conflate.edges"):
        edges = conflate_edges(tri, extra_keys=["part"]).materialize()
    tr.count("conflate.edges_out", edges.count())
    with tr.span("conflate.nodes"):
        nodes = nodes_from_edges(ray.data.read_parquet(str(out / "edges")),
                                 extra_keys=["part"]).materialize()
    tr.count("conflate.nodes_out", nodes.count())

    manifests = {}
    for table in ("triples", "edges", "nodes"):
        for path in sorted((out / table).glob("part=*/" + mf.MANIFEST_NAME)):
            manifests[(table, path)] = json.loads(path.read_text())
    with tr.span("manifest.publish"):  # rewrites each manifest unchanged
        for (table, _), m in manifests.items():
            mf.write_manifest(out / table, m["partition"], m["config_hash"], inputs=m["inputs"])
    tr.count("manifest.written", len(manifests))
    cfg_hash = next(iter(manifests.values()))["config_hash"]
    with tr.span("manifest.scan"):
        for table in ("triples", "edges", "nodes"):
            mf.completed_partitions(out / table, cfg_hash)


# ------------------------------------------------------------- results
def per_layer(tr, plain: dict, traced: dict, baseline_s: float) -> dict[str, float]:
    c = tr.counts
    memo = traced.get("memo") or {}
    ops = traced.get("operators") or {}

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "kg.read.s": tr.total("kg.read"), "kg.read.rows": c["kg.read.rows"],
        "kg.repartition.s": tr.total("kg.repartition"),
        "kg.write.s": tr.total("kg.write"), "kg.write.files": c["kg.write.files"],
        "kg.write.mb": c["kg.write.mb"],
        "fused.s": tr.total("fused"),
        "fused.turns_in": memo.get("turns", 0),
        "fused.turns_computed": memo.get("computed", 0),
        "fused.memo_hit_ratio": ratio(memo.get("turns", 0) - memo.get("computed", 0),
                                      memo.get("turns", 0)),
        "textkit.tokenize.s": tr.total("textkit.tokenize"),
        "textkit.sentences": c["textkit.sentences"], "textkit.tokens": c["textkit.tokens"],
        "tagger.pos.forward_s": tr.total("tagger.pos.forward"),
        "tagger.ner.forward_s": tr.total("tagger.ner.forward"),
        "tagger.sentences_in": c["tagger.sentences_in"],
        "tagger.sentences_forwarded": c["tagger.sentences_forwarded"],
        "tagger.memo_hit_ratio": ratio(c["tagger.sentences_in"] - c["tagger.sentences_forwarded"],
                                       c["tagger.sentences_in"]),
        "triples.extract_s": tr.total("triples.extract"), "triples.out": c["triples.out"],
        "linking.lookup_s": tr.total("linking.lookup"),
        "linking.surfaces": c["linking.surfaces"],
        "linking.hit_ratio": ratio(c["linking.hits"], c["linking.surfaces"]),
        "layers.self_s": tr.self_times().get("layers", 0.0),
        "conflate.edges.s": tr.total("conflate.edges"),
        "conflate.edge_partial_rows": c["conflate.edge_partial_rows"],
        "conflate.edges_out": c["conflate.edges_out"],
        "conflate.combine_ratio": ratio(c["conflate.edges_out"], c["conflate.edge_partial_rows"]),
        "conflate.nodes.s": tr.total("conflate.nodes"),
        "conflate.nodes_out": c["conflate.nodes_out"],
        "manifest.publish_s": tr.total("manifest.publish"),
        "manifest.written": c["manifest.written"],
        "manifest.scan_s": tr.total("manifest.scan"),
        "baseline.single_process_s": baseline_s,
        "trace.untraced_job_s": plain.get("job_s", 0.0),
        "trace.job_s": traced.get("job_s", 0.0),
        "trace.overhead_s": traced.get("job_s", 0.0) - plain.get("job_s", 0.0),
    }
    for stage in ("triples", "edges", "nodes"):
        m[f"kg.ops.{stage}.task_s"] = sum(op["task_s"] for op in ops.get(stage, []))
    return {k: float(m[k]) for k in PER_LAYER}


def _median(recs: list[dict], key: str) -> float | None:
    vals = [r[key] for r in recs if key in r]
    return statistics.median(vals) if vals else None


# ------------------------------------------------------------- main
def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure sessions until this many seconds have passed "
                         "(with --trace 1: one plain and one traced session)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: package {PACKAGE} not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    check_pool(TAG_CONCURRENCY, NUM_CPUS)

    import check
    import layers
    import workloads
    from spans import Tracer

    wl = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        table = workloads.transcripts(wl.turns, args.seed, unique=wl.unique)
        input_dir = workloads.write_parquet_dir(table, WORK / "in")
        warm_dir = workloads.write_parquet_dir(
            workloads.warm_transcripts(WARM_TURNS, args.seed), WORK / "warm_in")

        # oracle and per-layer pass each in a fresh process: no memo of theirs
        # is warm, and their memory never counts into this process's RSS
        spawn = multiprocessing.get_context("spawn")
        with spawn.Pool(1) as pool:
            expected, baseline_s = pool.apply(check.expected_tables, (input_dir,))
        tr = Tracer()
        if args.trace and not wl.rebuild:  # a rebuild tokenizes and tags nothing
            with spawn.Pool(1) as pool:
                with tr.span("layer_pass"):
                    tr.merge(pool.apply(layers.layer_pass, (input_dir,)))

        ctx = Ctx(wl, input_dir, warm_dir,
                  WORK / "out", expected, table.num_rows)
        recs: list[dict] = []
        t0 = time.perf_counter()
        if args.trace:
            recs = [session(ctx, 0), session(ctx, 1, tracer=tr)]
        else:
            while len(recs) < MIN_SESSIONS or time.perf_counter() - t0 < args.seconds:
                recs.append(session(ctx, len(recs)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for r in recs:
        print(json.dumps({k: v for k, v in r.items() if k != "operators"}))
    failed = sum(not r["ok"] for r in recs)
    if args.trace:
        values = per_layer(tr, recs[0], recs[1], baseline_s)
        units = PER_LAYER
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"{args.workload}_seed{args.seed}.json"
        tr.write(path, extra={"sessions": recs})
        print(f"perfbench: trace written to {path}", file=sys.stderr)
    else:
        values = {k: _median(recs, k) for k in END_TO_END}
        units = END_TO_END
        if any(v is None for v in values.values()):
            print("perfbench: no session produced a measurement", file=sys.stderr)
            return 1
        print(f"{args.workload} seed={args.seed}: " + ", ".join(
            f"{k}={v:.4g} {units[k]}" for k, v in values.items())
            + f", turns_per_s={_median(recs, 'turns_per_s'):.4g} 1/s (wall)"
            + f" (median of {len(recs)}), error_rate={failed}/{len(recs)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(recs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get(CHILD_ENV) == "1":
        sys.exit(main(sys.argv[1:]))
    sys.exit(supervise(sys.argv[1:]))
