#!/usr/bin/env python3
"""packmatch benchmark: cold CLI jobs, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload counting --seed 1 --seconds 14 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 14

A single closed-loop client runs the workload's job list, one cold
``python -m packmatch ... --format ...`` process at a time, in whole rounds
(at least two) until ``--seconds`` have passed. With ``--trace 0`` the rounds
are timed and the end-to-end metrics reported; with ``--trace 1`` untraced and
traced rounds alternate (each traced job runs under ``trace_job.py``) and the
per-layer metrics are reported. Outputs are checked after the timed region against
answers the benchmark computes itself (see ``workloads.py``). The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. Each run also writes a result file with provenance under
``.bench_runs/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 5
MIN_ROUNDS = 2
JOB_TIMEOUT_S = 100.0
clock = time.perf_counter



@dataclass
class Attempt:
    job: wl.Job
    start: float
    wall: float
    cpu: float
    rss_kb: int
    code: int
    stdout: Path
    trace: Path | None = None


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def spawn(command: list, workdir: Path, stdout: Path) -> tuple:
    """Run one process to completion; return (start, wall, cpu, max rss KB, exit code)."""
    env = {**os.environ, "PYTHONPATH": str(SOURCE)}
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = clock()
        proc = subprocess.Popen(command, cwd=workdir, stdout=out, stderr=err, env=env)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = clock() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    # Reaped by wait4 (for its rusage); tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def run_round(jobs: list, workdir: Path, tag: str, traced: bool) -> tuple:
    """One pass over the job list; returns (round wall time, attempts)."""
    attempts = []
    start = clock()
    for index, job in enumerate(jobs):
        out = workdir / f"{tag}-{index}.out"
        trace = workdir / f"{tag}-{index}.trace" if traced else None
        if traced:
            command = [sys.executable, str(HERE / "trace_job.py"), str(trace), *job.args]
        else:
            command = [sys.executable, "-m", "packmatch", *job.args]
        attempts.append(Attempt(job, *spawn(command, workdir, out), out, trace))
    return clock() - start, attempts


def set_up(base: Path, files: dict) -> tuple:
    """Write the input files and run one fresh ``--help``; the median of a few tries."""
    times = []
    for attempt in range(SETUP_REPEATS):
        workdir = base / f"setup{attempt}"
        start = clock()
        workdir.mkdir(parents=True)
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        _, _, _, _, code = spawn([sys.executable, "-m", "packmatch", "--help"], workdir,
                                 workdir / "help.out")
        times.append(clock() - start)
        if code != 0 or b"usage: packmatch" not in (workdir / "help.out").read_bytes():
            raise SystemExit(f"packmatch --help failed (exit {code}); is {SOURCE} intact?")
    return statistics.median(times), workdir


def verify(first: list, later: list) -> tuple:
    """Check every output and self-test every check; returns (problems, failed attempts, stdouts)."""
    problems = []
    records, texts = {}, {}
    for attempt in first:
        if attempt.code == 0:
            texts[attempt.job.key] = attempt.stdout.read_bytes()
            records[attempt.job.key] = wl.parse(texts[attempt.job.key].decode(), attempt.job.fmt,
                                                attempt.job.table)
    for attempt in first:
        job = attempt.job
        if job.key not in records:
            continue
        found = job.check(records[job.key], records)
        problems += [f"{job.key} ({' '.join(job.args)}): {p}" for p in found]
        if not found and not job.check(job.tamper(records[job.key]), records):
            problems.append(f"{job.key}: self-test failed, the check accepted a tampered output")
    for attempt in later:
        key = attempt.job.key
        if attempt.code == 0 and key in texts and attempt.stdout.read_bytes() != texts[key]:
            problems.append(f"{key}: output differs from the first round")
        elif attempt.code == 0 and key not in texts:
            problems.append(f"{key}: succeeded after failing in the first round")
    failed = sum(a.code != 0 for a in first + later)
    return problems, failed, texts


def rerun_check(jobs: list, workdir: Path, texts: dict) -> list:
    """A simulate job rerun with the same seed must print the same bytes."""
    job = next((j for j in jobs if j.subcommand.startswith("simulate") and j.key in texts), None)
    if job is None:
        return ["no simulate job succeeded, so determinism was not checked"]
    out = workdir / "rerun.out"
    spawn([sys.executable, "-m", "packmatch", *job.args], workdir, out)
    return [] if out.read_bytes() == texts[job.key] else [f"{job.key}: rerun with the same seed differs"]


def tail_quantile(values: list) -> float:
    """The highest percentile with ten jobs beyond it; the slowest job below 40 jobs."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 40 else ordered[-1]


def end_to_end(setup_s: float, rounds: list) -> dict:
    """Metrics of the timed rounds."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(w for w, _ in rounds),
        "cpu_s": statistics.median(sum(a.cpu for a in r) for _, r in rounds),
        "peak_rss_mb": max(a.rss_kb for _, r in rounds for a in r) / 1024,
    }


def job_metrics(rounds: list) -> dict:
    """Per-job figures of untraced rounds.

    They use each job's CPU time (mean over the rounds), not its wall time:
    on a shared virtual machine the hypervisor takes the CPU away for seconds
    at a time, which stretches every job's wall time in a run by up to 40%
    while CPU times move a few percent.
    """
    job_cpu = [statistics.fmean(a.cpu for a in attempts) for attempts in zip(*(r for _, r in rounds))]
    metrics = {"job_p50_s": statistics.median(job_cpu), "job_tail_s": tail_quantile(job_cpu)}
    for kind in ("pair", "firstmatch"):
        # Monte Carlo trials of the kind's jobs divided by those jobs' wall time.
        chosen = [a for _, r in rounds for a in r if a.job.subcommand == "simulate " + kind]
        metrics[f"mc_{kind}_trials_per_s"] = sum(a.job.trials for a in chosen) / sum(a.wall for a in chosen)
    return metrics


def layer_metrics(attempts: list) -> dict:
    """Per-layer figures of one traced round, summed over its jobs."""
    traces = [(a, json.loads(a.trace.read_text())) for a in attempts if a.trace.exists()]
    total, own, counts = {}, {}, {}
    for _, t in traces:
        for source, sink in ((t["total"], total), (t["self"], own), (t["counts"], counts)):
            for key, value in source.items():
                sink[key] = sink.get(key, 0) + value
    lookups = counts.get("coincidence.lookups", 0)
    entries = counts.get("coincidence.memo_entries", 0)
    drawn = counts.get("montecarlo.packs_drawn", 0)
    return {
        "import.packmatch_s": statistics.median(t["imported_at"] - a.start for a, t in traces),
        "import.numpy_loaded_jobs": sum(
            t["numpy_loaded"] and not a.job.subcommand.startswith("simulate") for a, t in traces),
        "cli.self_s": own.get("cli.main", 0.0),
        "exactmath.binomial_calls": counts.get("exactmath.binomial.calls", 0),
        "exactmath.binomial_s": total.get("exactmath.binomial", 0.0),
        "exactmath.render_s": total.get("exactmath.render", 0.0),
        "coincidence.recursive_s": total.get("coincidence.recursive", 0.0),
        "coincidence.closed_s": total.get("coincidence.closed", 0.0),
        "coincidence.gf_s": total.get("coincidence.gf", 0.0),
        "coincidence.probability_s": total.get("coincidence.probability", 0.0),
        "coincidence.count_calls": counts.get("coincidence.count.calls", 0),
        "coincidence.memo_hit_ratio": (lookups - entries) / lookups if lookups else 0.0,
        "coincidence.memo_entries": entries,
        "firstmatch.spectrum_build_s": total.get("firstmatch.spectrum_build", 0.0),
        "firstmatch.endpoint_classes": counts.get("firstmatch.endpoint_classes", 0),
        "firstmatch.power_sums_s": total.get("firstmatch.power_sums", 0.0),
        "firstmatch.newton_s": total.get("firstmatch.newton", 0.0),
        "firstmatch.survival_steps": counts.get("firstmatch.survival_steps", 0),
        "firstmatch.pairwise_s": total.get("firstmatch.pairwise", 0.0),
        "firstmatch.pairwise_terms": counts.get("firstmatch.pairwise_terms", 0),
        "firstmatch.mixture_s": total.get("firstmatch.mixture", 0.0),
        "montecarlo.pair_s": total.get("montecarlo.pair", 0.0),
        "montecarlo.trial_s": total.get("montecarlo.trial", 0.0),
        "montecarlo.sampling_s": total.get("montecarlo.sampling", 0.0),
        "montecarlo.dedup_s": own.get("montecarlo.trial", 0.0),
        "montecarlo.experiment_self_s": own.get("montecarlo.experiment", 0.0),
        "montecarlo.packs_drawn": drawn,
        "montecarlo.draw_use_ratio": counts.get("montecarlo.packs_examined", 0) / drawn if drawn else 0.0,
    }


def provenance() -> dict:
    init = (SOURCE / "packmatch" / "__init__.py").read_text(encoding="utf-8")
    version = re.search(r'__version__ = "([^"]+)"', init)
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        sha = head.read_text().strip()
        if sha.startswith("ref: "):
            ref_file = ROOT / ".git" / sha[5:]
            packed = ROOT / ".git" / "packed-refs"
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            elif packed.is_file():
                sha = next((line.split()[0] for line in packed.read_text().splitlines()
                            if line.endswith(" " + sha[5:])), None)
    return {
        "packmatch": version.group(1) if version else None,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs, files = wl.WORKLOADS[name](seed)
    base = RUNS / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        setup_s, workdir = set_up(base, files)
        start = clock()
        plain, traced = [], []
        while len(plain) < (1 if trace else MIN_ROUNDS) or clock() - start < seconds:
            plain.append(run_round(jobs, workdir, f"r{len(plain)}", traced=False))
            if trace:
                traced.append(run_round(jobs, workdir, f"t{len(traced)}", traced=True))
        later = [a for _, r in plain[1:] + traced for a in r]
        problems, failed, texts = verify(plain[0][1], later)
        problems += rerun_check(jobs, workdir, texts)
        if trace:
            per_round = [layer_metrics(r) for _, r in traced]
            metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
            metrics["trace.overhead_s"] = statistics.median(
                t[0] - p[0] for p, t in zip(plain, traced))
            metrics.update(job_metrics(plain))
            units = metric_units("per_layer")
        else:
            metrics, units = end_to_end(setup_s, plain), metric_units("end_to_end")
        result = {
            "correct": not problems,
            "attempted": sum(len(r) for _, r in plain + traced),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        per_job = [
            {"key": job.key, "args": job.args, "fails_today": job.fails_today or None,
             "exit_codes": sorted({a.code for _, r in plain for a in r if a.job is job}),
             "median_wall_s": statistics.median(a.wall for _, r in plain for a in r if a.job is job)}
            for job in jobs
        ]
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
                  "rounds": len(plain), "traced_rounds": len(traced), "result": result,
                  "problems": problems, "jobs": per_job, "provenance": provenance()}
        results = RUNS / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
            json.dumps(record, indent=2), encoding="utf-8")
        for problem in problems:
            print(f"{name}: PROBLEM {problem}", file=sys.stderr)
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SOURCE / "packmatch" / "__main__.py").is_file():
        print(f"error: packmatch sources not found under {SOURCE}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(f"{name}: attempted {result['attempted']} jobs, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"{name}: {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
