#!/usr/bin/env python3
"""Wall-clock benchmark of the LaSAGNA assembler.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/lasagna_perf (Release) from the sources in the checkout,
generates the workload's reads and reference from the seed (cached in
.bench_cache/), then assembles the reads again and again, one assembly per
child process, until --seconds have passed and at least three times. Every
assembly's contigs must be well formed and byte-identical to the others.
The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (medians over the repeats, quality
from the contigs); --trace 1 also makes one traced run and reports the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# workload -> generated input it assembles (see README.md for why each one)
WORKLOADS = {
    "hgenome-k20": "hgenome",
    "hgenome-roomy": "hgenome",
    "reduced-noisy": "noisy",
    "dist4-sim": "hgenome",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "modeled_s": "s",
    "setup_s": "s",
    "genome_fraction_pct": "%",
    "dup_ratio": "x",
}

CORE_PHASES = ["load", "map", "sort", "reduce", "reduction", "compress"]
DIST_PHASES = ["map", "shuffle", "sort", "reduce", "compress"]
PER_LAYER = {}
for _phase in CORE_PHASES:
    for _m in ("wall_s", "cpu_s", "sys_s", "modeled_s"):
        PER_LAYER[f"core.{_phase}.{_m}"] = "s"
PER_LAYER.update({
    "core.map.tuples": "count",
    "core.sort.records": "count",
    "core.sort.disk_passes": "count",
    "core.reduce.candidates": "count",
    "core.reduce.accept_ratio": "ratio",
    "core.reduce.window_records_p50": "count",
})
for _k in ("fingerprint", "match_bounds", "sort_pairs"):
    PER_LAYER[f"kernel.{_k}.calls"] = "count"
    PER_LAYER[f"kernel.{_k}.wall_s"] = "s"
    PER_LAYER[f"kernel.{_k}.p99_ms"] = "ms"
PER_LAYER.update({
    "kernel.sort_pairs.mrec_per_s": "Mrec/s",
    "gpu.launches": "count",
    "gpu.kernel_ops": "count",
    "gpu.transfer_bytes": "bytes",
    "gpu.alloc_bytes": "bytes",
    "gpu.peak_device_mb": "MiB",
    "io.read_gb": "GB",
    "io.write_gb": "GB",
    "io.read_ops": "count",
    "io.write_ops": "count",
    "io.amplification": "ratio",
    "util.pool.tasks": "count",
    "util.pool.busy_s": "s",
    "util.pool.queue_depth_peak": "count",
    "util.pool.cores_busy": "cores",
    "graph.full_edges": "count",
    "graph.removed_edges": "count",
    "graph.unitig_edges": "count",
    "graph.reduction.wall_s": "s",
})
for _phase in DIST_PHASES:
    PER_LAYER[f"dist.{_phase}.wall_s"] = "s"
    PER_LAYER[f"dist.{_phase}.modeled_s"] = "s"
    PER_LAYER[f"dist.{_phase}.straggler"] = "ratio"
PER_LAYER.update({
    "dist.am.requests": "count",
    "dist.am.bytes": "bytes",
    "dist.am.latency_p99_us": "us",
    "dist.shuffle.wire_bytes": "bytes",
    "dist.shuffle.compression_ratio": "ratio",
    "dist.reduce.rounds": "count",
    "dist.reduce.supersteps": "count",
    "dist.reduce.conflicts": "count",
    "dist.reduce.proposals": "count",
    "dist.peak_workspace_mb": "MiB",
    "seq.n50_bp": "bp",
    "seq.misassemblies": "count",
    "obs.trace_overhead_pct": "%",
})

# Repeats a run makes even past --seconds (a median of three discards one
# disturbed repeat), unless that would take more than OVERRUN x --seconds:
# the cap bounds a run's length when the machine is slow.
MIN_REPEATS = 3
OVERRUN = 2.5
CHILD_TIMEOUT_S = 120.0
# Stop starting repeats after this long so the run ends well inside its
# 180 s limit even on a slow machine.
LOOP_DEADLINE_S = 120.0
# Correctness floor: an assembly that covers less than this share of the
# reference is wrong, not merely worse.
MIN_GENOME_FRACTION_PCT = 50.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "lasagna_perf", "-j", jobs],
    ]
    with open(log_path, "wb") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT).returncode != 0:
                with open(log_path, "rb") as f:
                    sys.stderr.write(f.read()[-4000:].decode(errors="replace"))
                fail("build failed")
    return os.path.join(build_dir, "lasagna_perf")


def run_child(argv, work_dir, timeout=CHILD_TIMEOUT_S):
    """Run one lasagna_perf invocation and reap it with wait4, so that its
    rusage is its own. Returns (last stdout line as JSON or None, peak RSS
    in MiB)."""
    os.makedirs(work_dir, exist_ok=True)
    out_path = os.path.join(work_dir, "child.out")
    err_path = os.path.join(work_dir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=dict(os.environ, TMPDIR=work_dir))
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid != 0:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
    except BaseException:  # SIGTERM/SIGINT: never leave the child behind
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    with open(out_path) as f:
        lines = f.read().strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if result is None:
        with open(err_path) as f:
            sys.stderr.write(f.read()[-2000:])
    return result, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB


def generate(binary, input_name, seed, work_dir):
    """Reads and reference for (input, seed), generated once and cached."""
    cache = os.path.join(ROOT, ".bench_cache", f"{input_name}-seed{seed}")
    meta_path = os.path.join(cache, "meta.json")
    if not os.path.exists(meta_path):
        staging = cache + f".tmp{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        meta, _ = run_child([binary, "gen", input_name, str(seed), staging], work_dir)
        if meta is None:
            fail(f"input generation failed for {input_name} seed {seed}")
        with open(os.path.join(staging, "meta.json"), "w") as f:
            json.dump(meta, f)
        shutil.rmtree(cache, ignore_errors=True)
        os.replace(staging, cache)
    with open(meta_path) as f:
        meta = json.load(f)
    return os.path.join(cache, "reads.fastq"), os.path.join(cache, "reference.txt"), meta


def fasta_digest(path):
    """sha256 of a non-empty contig FASTA, or None when it is malformed:
    every record is a '>' header followed by one or more ACGT lines."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError:
        return None
    sequence_lines = None  # of the current record; None before the first
    for line in data.splitlines():
        if line.startswith(b">"):
            if sequence_lines == 0:
                return None
            sequence_lines = 0
        elif sequence_lines is None or not line or line.strip(b"ACGT"):
            return None
        else:
            sequence_lines += 1
    if not sequence_lines:
        return None
    return hashlib.sha256(data).hexdigest()


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def keep_measuring(elapsed, repeats, failed, seconds, shortest_repeat):
    if elapsed >= LOOP_DEADLINE_S or failed > MIN_REPEATS:
        return False
    if elapsed < seconds:
        return True
    # Past --seconds: finish the minimum number of repeats, unless even a
    # repeat as short as the shortest so far would end after the cap.
    return repeats < MIN_REPEATS and elapsed + shortest_repeat <= OVERRUN * seconds


def stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    work_dir = os.path.join(tmp_root, str(os.getpid()))
    try:
        return run(binary, args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's directory is still there


def run(binary, args, work_dir):
    facts, _ = run_child([binary, "facts"], work_dir)
    if facts is None:
        fail("lasagna_perf facts failed")
    facts.update(nproc=os.cpu_count(), workload=args.workload, seed=args.seed)
    fastq, reference, meta = generate(binary, WORKLOADS[args.workload], args.seed, work_dir)
    facts.update(reads=meta["reads"], bases=meta["bases"], input_bytes=meta["input_bytes"])

    # Untraced repeats, one child process each, until --seconds have passed.
    kept_fasta = os.path.join(work_dir, "contigs.fasta")
    samples = []  # (assemble result, peak RSS in MiB) of each good repeat
    digests = []
    attempted = failed = 0
    ticks_before = cpu_ticks()
    started = time.monotonic()
    durations = []  # of every repeat, in seconds, as the loop sees them
    while keep_measuring(time.monotonic() - started, len(samples), failed, args.seconds,
                         min(durations, default=0.0)):
        repeat_started = time.monotonic()
        attempted += 1
        os.sync()  # the previous repeat's writeback stays out of this one
        fasta = os.path.join(work_dir, "repeat.fasta")
        if os.path.exists(fasta):
            os.remove(fasta)  # a child that writes nothing must not pass
        result, peak_rss_mb = run_child([binary, "assemble", args.workload, fastq, fasta],
                                        os.path.join(work_dir, "run"))
        durations.append(time.monotonic() - repeat_started)
        digest = fasta_digest(fasta) if result is not None else None
        if digest is None:
            failed += 1
            continue
        if not digests:
            os.replace(fasta, kept_fasta)
        digests.append(digest)
        samples.append((result, peak_rss_mb))
    if not samples:
        fail(f"every assembly of {args.workload} failed")
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # CPU time the hypervisor gave to other guests while the repeats ran:
        # the usual cause of wall time that CPU time does not explain.
        facts["host_steal_pct"] = round(100.0 * (ticks_after[0] - ticks_before[0]) /
                                        (ticks_after[1] - ticks_before[1]), 2)

    # Repeats whose contigs differ from the most common digest count as failed.
    contig_digest = max(set(digests), key=digests.count)
    failed += sum(1 for d in digests if d != contig_digest)

    evaluation, _ = run_child([binary, "eval", reference, kept_fasta], work_dir)
    if evaluation is None:
        fail("contig evaluation failed")
    walls = [result["wall_s"] for result, _ in samples]
    facts.update(backend=samples[0][0]["backend"], repeats=len(samples),
                 wall_s=[round(w, 4) for w in walls], digest=contig_digest[:16],
                 quality=evaluation)

    if args.trace:
        attempted += 1
        fasta = os.path.join(work_dir, "traced.fasta")
        traced, _ = run_child([binary, "trace", args.workload, fastq, fasta], os.path.join(work_dir, "run"))
        if traced is None:
            fail("the traced run failed")
        if fasta_digest(fasta) != contig_digest:
            failed += 1  # the trace did not measure the same program
        facts.update(traced_backend=traced["backend"])
        metrics = per_layer_metrics(args.workload, traced, samples, evaluation)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median([r["user_s"] + r["sys_s"] for r, _ in samples]),
            "peak_rss_mb": statistics.median([rss for _, rss in samples]),
            "modeled_s": statistics.median([r["modeled_s"] for r, _ in samples]),
            "setup_s": statistics.median([r["setup_s"] for r, _ in samples]),
        }
        for name in ("genome_fraction_pct", "dup_ratio"):
            metrics[name] = evaluation[name]
        units = END_TO_END

    correct = failed == 0 and evaluation["genome_fraction_pct"] >= MIN_GENOME_FRACTION_PCT
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        # Layers a workload does not exercise (dist on one node, graph on
        # greedy runs) report 0.
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }))
    return 0


def per_layer_metrics(workload, traced, samples, evaluation):
    metrics = {name: traced[name] for name in PER_LAYER if name in traced}
    if workload != "dist4-sim":
        # Per-phase modeled time is the program's own PhaseStats figure from
        # the untraced repeats (deterministic on one node).
        for phase in CORE_PHASES:
            key = f"phase.{phase}.modeled_s"
            if key in samples[0][0]:
                metrics[f"core.{phase}.modeled_s"] = statistics.median([r[key] for r, _ in samples])
        metrics["graph.reduction.wall_s"] = traced.get("core.reduction.wall_s", 0.0)
    metrics["seq.n50_bp"] = evaluation["n50_bp"]
    metrics["seq.misassemblies"] = evaluation["misassemblies"]
    untraced_wall = statistics.median([r["wall_s"] for r, _ in samples])
    metrics["obs.trace_overhead_pct"] = (traced["total.wall_s"] - untraced_wall) / untraced_wall * 100.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
