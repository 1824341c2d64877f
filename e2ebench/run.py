#!/usr/bin/env python3
"""End-to-end benchmark of the E-AFE workspace.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py            # every workload, untraced then traced

Run it from the repository root. It builds the `e2ebench` workload binary
(`cargo build --release --offline`, into `$CARGO_TARGET_DIR`, default
`.bench_build`), then runs the workload for about `--seconds` seconds, one
fresh process per repetition so the program's process-global caches start
cold every time. Repetition r works on the input set generated from
(`--seed`, r), so a run's figures average over several input sets.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: the mean
timed wall time per repetition, medians of set-up time and peak RSS, and
job latency percentiles. `--trace 1` alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
ones), the tracing overhead, and a self-time tree of the spans. Either way the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it print every metric by name and unit, host
provenance and the failed checks. The exit code is 1 when an output check
fails, and the build's own code when the build fails.

An operation is one search, or one job on `serve_open_loop`. It fails when
it returns an error, is rejected, ends in another status than Completed, or
yields a non-finite best score or one below its base score.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "e2ebench")
TMP = os.path.join(ROOT, ".e2ebench_tmp")
CHILD_TIMEOUT_S = 60
MIN_REPS = 4

# What each per-layer metric should move, and on which workload. Names,
# units and directions live in BENCHMARK.json; this table must name the
# same metrics.
MOVES = {
    "eafe.step_ms.p50": "wall_s on every batch workload; job_p90_s on serve_open_loop",
    "eafe.step_ms.p90": "wall_s on every batch workload; job_p90_s on serve_open_loop",
    "eafe.stage1_ms": "wall_s on eafe_two_stage",
    "eafe.start_ms": "wall_s on chunked_budget; job_p50_s on serve_open_loop",
    "eafe.finish_ms": "wall_s on chunked_budget; job_p50_s on serve_open_loop",
    "eafe.generated": "wall_s on eafe_two_stage",
    "eafe.downstream_evals": "wall_s on eafe_two_stage",
    "eafe.evals_per_generated": "wall_s on eafe_two_stage",
    "fpe.pretrain_s": "wall_s on eafe_two_stage (0 elsewhere)",
    "fpe.label_s": "wall_s on eafe_two_stage (0 elsewhere)",
    "fpe.search_s": "wall_s on eafe_two_stage (0 elsewhere)",
    "fpe.labels": "wall_s on eafe_two_stage (0 elsewhere)",
    "minhash.sig_cache.hit_rate": "wall_s on eafe_two_stage (0 elsewhere)",
    "minhash.sig_us.p50": "wall_s on eafe_two_stage (0 elsewhere)",
    "learners.cv_evals": "wall_s on eafe_two_stage, chunked_budget",
    "learners.cv_ms": "wall_s on eafe_two_stage, chunked_budget",
    "learners.forest_fit_ms": "wall_s on eafe_two_stage, chunked_budget",
    "learners.base_eval_ms": "wall_s on eafe_two_stage, chunked_budget",
    "runtime.score_cache.hit_rate": "wall_s on eafe_two_stage; job_p50_s on serve_open_loop",
    "runtime.score_cache.hits": "wall_s on eafe_two_stage; job_p50_s on serve_open_loop",
    "runtime.score_cache.misses": "wall_s on eafe_two_stage; job_p50_s on serve_open_loop",
    "runtime.pool.tasks": "wall_s on eafe_two_stage, chunked_budget",
    "runtime.pool.queue_us.p50": "wall_s on eafe_two_stage, chunked_budget",
    "runtime.pool.queue_us.p99": "wall_s on eafe_two_stage, chunked_budget",
    "runtime.pool.run_us.p50": "wall_s on eafe_two_stage, chunked_budget",
    "runtime.pool.task_self_frac": "wall_s on eafe_two_stage, chunked_budget",
    "rl.policy_update_ms": "wall_s on eafe_two_stage",
    "serve.epoch_us.p50": "job_p90_s on serve_open_loop (0 elsewhere)",
    "serve.epoch_us.p99": "job_p90_s on serve_open_loop (0 elsewhere)",
    "serve.admission_wait_us.p99": "job_p90_s on serve_open_loop (0 elsewhere)",
    "serve.rejected": "job_p90_s on serve_open_loop (0 elsewhere)",
    "bench.gen_late_ms.max": "validity of job_p50_s/job_p90_s on serve_open_loop",
    "tabular.gen_s": "setup_s on chunked_budget (0 elsewhere)",
    "tabular.chunks_spilled": "wall_s, peak_rss_mb on chunked_budget (0 elsewhere)",
    "tabular.chunks_loaded": "wall_s, peak_rss_mb on chunked_budget (0 elsewhere)",
    "tabular.chunks_decoded": "wall_s, peak_rss_mb on chunked_budget (0 elsewhere)",
    "tabular.chunk_decode_us.p50": "wall_s, peak_rss_mb on chunked_budget (0 elsewhere)",
    "tabular.spill_us.p50": "wall_s, peak_rss_mb on chunked_budget (0 elsewhere)",
    "trace_overhead_frac": "nothing: traced wall time over untraced, minus 1",
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {m["name"] for m in spec["per_layer"]}
    if names != set(MOVES):
        sys.exit("e2ebench: BENCHMARK.json per_layer and MOVES disagree: %s"
                 % sorted(names ^ set(MOVES)))
    return spec


def build():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    cmd = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
           "--manifest-path", os.path.join(PKG, "Cargo.toml")]
    code = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
    if code != 0:
        print("e2ebench: build failed", file=sys.stderr)
        sys.exit(code if code > 0 else 2)
    return os.path.join(target, "release", "e2ebench")


def child(binary, workload, seed, rep, traced):
    """One repetition in a fresh process; None when it crashed."""
    cmd = [binary, workload, "--seed", str(seed), "--rep", str(rep), "--tmp", TMP]
    if traced:
        cmd.append("--trace")
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: %s rep %d timed out" % (workload, rep), file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("e2ebench: %s rep %d exited %d: %s" % (workload, rep, proc.returncode,
                                                      proc.stderr.strip()[-2000:]),
              file=sys.stderr)
        return None
    rep_out = json.loads(lines[-1])
    rep_out["setup_s"] = rep_out["region_start_unix"] - spawned
    return rep_out


def repeat(binary, workload, seed, seconds, traced_too):
    """Repetitions until `--seconds` would be overrun (at least MIN_REPS
    untraced ones); in trace mode each untraced one is followed by a traced
    one. An untimed warm-up repetition of input set 0 comes first: the first
    process after a pause often runs slow, and its figures would land in
    the tail. Returns (untraced, traced, warm-up, crashed count); the
    warm-up's results are checked but not measured."""
    plain, traced, warm, crashed = [], [], [], 0
    begun = time.monotonic()
    out = child(binary, workload, seed, 0, False)
    if out is None:
        crashed += 1
    else:
        warm.append(out)
    timed = time.monotonic()
    rep = 0
    while True:
        for is_traced in ([False, True] if traced_too else [False]):
            out = child(binary, workload, seed, rep, is_traced)
            if out is None:
                crashed += 1
            else:
                (traced if is_traced else plain).append(out)
        rep += 1
        now = time.monotonic()
        enough = rep >= (1 if traced_too else MIN_REPS)
        if enough and now - begun + (now - timed) / rep > seconds:
            break
    return plain, traced, warm, crashed


def fingerprint_checks(binary, workload, seed, reps):
    """Results must repeat bit for bit on every run of one seed: each
    repetition's fingerprint is compared with every earlier run of the same
    (workload, seed, rep) by the same binary, kept next to the build."""
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(os.path.dirname(binary), "e2ebench-fingerprints-%s.json" % digest)
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    failed = []
    for r in reps:
        key = "%s/%d/%d" % (workload, seed, r["provenance"]["rep"])
        if known.setdefault(key, r["fingerprint"]) != r["fingerprint"]:
            failed.append("%s: result fingerprint %s differs from an earlier run's %s"
                          % (key, r["fingerprint"], known[key]))
    with open(path, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return failed


def checks(runs, crashed):
    """Failed output checks of the repetitions, as printable strings."""
    failed = ["%d repetition(s) crashed" % crashed] if crashed else []
    for r in runs:
        failed += ["%s: %s" % (c["name"], c["detail"]) for c in r["checks"] if not c["ok"]]
    return failed


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of every
    order statistic, with weights from the Beta(p(n+1), (1-p)(n+1))
    distribution (integrated here by the midpoint rule). It moves far less
    from one sample to the next than the one or two order statistics a
    plain percentile reads, which matters for the few samples of a run."""
    v = sorted(values)
    n = len(v)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64 * n
    xs = [(k + 0.5) / steps for k in range(steps)]
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log(1 - x) for x in xs]
    top = max(logs)
    weights = [math.exp(lg - top) for lg in logs]
    return sum(v[k * n // steps] * w for k, w in enumerate(weights)) / sum(weights)


def best_score_mean(plain):
    """Mean best score over the first MIN_REPS repetitions, which every
    run makes, so the figure is a pure function of the seed."""
    scores = [o["best_score"] for r in plain if r["provenance"]["rep"] < MIN_REPS
              for o in r["ops"] if o["ok"]]
    return statistics.fmean(scores) if scores else 0.0


def job_latencies(workload, plain):
    """A job is one served job on serve_open_loop, whose latency runs from
    its due time to its completion; on a batch workload it is one
    repetition, whose latency is its timed region."""
    if workload == "serve_open_loop":
        return [o["latency_s"] for r in plain for o in r["ops"] if o["ok"]]
    return [r["wall_s"] for r in plain]


def end_to_end(workload, plain):
    latencies = job_latencies(workload, plain) or [0.0]
    attempted = sum(len(r["ops"]) for r in plain)
    failed = sum(1 for r in plain for o in r["ops"] if not o["ok"])
    return {
        "wall_s": statistics.fmean(r["wall_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "best_score_mean": best_score_mean(plain),
        "job_p50_s": quantile(latencies, 0.5),
        "job_p90_s": quantile(latencies, 0.9),
        "ok_frac": 1.0 - failed / max(attempted, 1),
    }


def per_layer(plain, traced, names):
    values = {}
    for name in names:
        values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
    unknown = {k for r in traced for k in r["layers"]} - set(names)
    if unknown:
        sys.exit("e2ebench: layer metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    untraced_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def print_tree(rep):
    print("self-time tree (%s, seed %d; ms, spans of the timed region):"
          % (rep["workload"], rep["provenance"]["seed"]))
    print("  %10s %10s %8s  %s" % ("total", "self", "count", "path"))
    for row in rep["tree"]:
        if row["total_ms"] >= 1.0:
            print("  %10.1f %10.1f %8d  %s" % (row["total_ms"], row["self_ms"], row["count"], row["path"]))


def git_commit():
    """HEAD of the checkout, or "unknown" when it is not a git repository
    (git may not look above the checkout for one)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run(spec, binary, workload, seed, seconds, trace):
    """Run one workload in one mode and print its report, ending with the
    result line. Returns whether every output check passed."""
    os.makedirs(TMP, exist_ok=True)
    try:
        plain, traced, warm, crashed = repeat(binary, workload, seed, seconds, trace)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    if not plain or (trace and not traced):
        print("e2ebench: %s: no repetition completed" % workload, file=sys.stderr)
        return False

    runs = plain + traced + warm
    failed_checks = checks(runs, crashed)
    failed_checks += fingerprint_checks(binary, workload, seed, runs)
    if trace:
        metrics_spec = spec["per_layer"]
        values = per_layer(plain, traced, [m["name"] for m in metrics_spec])
    else:
        metrics_spec = spec["end_to_end"]
        values = end_to_end(workload, plain)
    attempted = sum(len(r["ops"]) for r in runs) + crashed
    failed = sum(1 for r in runs for o in r["ops"] if not o["ok"]) + crashed

    provenance = dict(plain[0]["provenance"])
    provenance["git_commit"] = git_commit()
    print("provenance: %s" % json.dumps(provenance, sort_keys=True))
    print("%s: %d untraced and %d traced repetition(s) after %d warm-up; %d job latencies; "
          "failed_frac = %d/%d = %.4f"
          % (workload, len(plain), len(traced), len(warm), len(job_latencies(workload, plain)),
             failed, attempted, failed / attempted))
    if trace:
        print_tree(traced[0])
    for m in metrics_spec:
        note = "  (moves %s)" % MOVES[m["name"]] if trace else ""
        print("%-30s %14.6g %s%s" % (m["name"], values[m["name"]], m["unit"], note))
    for c in failed_checks:
        print("CHECK FAILED: %s" % c)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics_spec}
    correct = not failed_checks and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload; every workload in both modes if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        sys.exit("e2ebench: unknown workload %s" % args.workload)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    binary = build()
    if args.workload is not None:
        correct = run(spec, binary, args.workload, args.seed, seconds, args.trace == 1)
    else:
        correct = all([run(spec, binary, w, args.seed, seconds, trace)
                       for w in names for trace in (False, True)])
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
