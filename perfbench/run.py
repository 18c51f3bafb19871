"""Benchmark of the `verify` command, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, untraced then traced

Run it from the repository root; it needs nothing built.  Each workload is a
closed loop with one client: the jobs of a pass go back to back, and each job
is a fresh `verify <check> --group <spec> --format json` process with `src` on
PYTHONPATH, which is how users call the tool.  The seed permutes the job order
of the run; the program receives only the generated command lines.  Passes
repeat, at least two, while one more is expected to end within `--seconds`.
Each job's time is its median over the passes, so that a burst of load from
elsewhere on the host moves one sample and not the result; `wall_s` and
`cpu_s` are these medians summed over the jobs of a pass.

Every job's exit status and the SHA-256 of its standard output are compared
with the outcomes recorded from commit 4cafb2e in `expected.json`.  There,
`table SL3(5)` exits 4 with a refusal line (the GL3(5) side is over budget);
the report it gives once `table` no longer builds the GL side is recorded as
a second accepted outcome.  A job that matches no recorded outcome makes the
run incorrect and counts in `failed`.  A job fails for the user
(`job_pass_ratio`) on a nonzero exit, on any report item with `ok: false`,
or on such a mismatch.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` each job
runs under `tracejob.py` and the per-layer metrics are printed, summed over
the jobs of a pass and averaged over passes, with `trace.overhead_s`: the
traced wall time minus the median untraced `wall_s` logged for the workload
(with none logged, one untraced pass is timed after the traced ones).  The
last line of standard output is the result as JSON.
Each run is also appended, with its stamps (nproc, Python and numpy versions,
seed, job order, load average before and after), to `.perfbench/results.jsonl`;
a traced run writes its spans to `.perfbench/trace-<workload>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracejob

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".perfbench"
RESULTS = STATE_DIR / "results.jsonl"
RUN_LIMIT_S = 170  # a job still running this long after the start is killed
SETUP_REPEATS = 5
MIN_PASSES = 2  # the per-job medians of a run are taken over at least this many passes


@dataclass(frozen=True)
class Workload:
    jobs: tuple  # (check, spec) pairs
    cache: str  # "none" or "empty" (a fresh --cache-dir per job)


WORKLOADS = {
    # Table construction (split, then lift) and exact orthogonality on GL2(q)
    # and SL2(q); covers the cache's write path.  SL2(7) also builds GL2(7)
    # and its table through _ctx_for.  Each job gets its own empty cache
    # directory, so that the permuted order cannot turn that build into a hit.
    # Should dominate: chartable orthogonality and lift.  Should not move:
    # dl, jordan, gelfandgraev (never entered).
    "gl2-table-cold": Workload(
        jobs=(("table", "GL2(4)"), ("table", "GL2(5)"), ("table", "GL2(7)"),
              ("table", "SL2(7)")),
        cache="empty",
    ),
    # The whole suite on rank-3 groups plus the large |G| of SL3(5), no cache.
    # `all` runs inner products, decompositions, dl series, jordan and
    # gelfandgraev on tables it builds itself; SL3(5) (|G| = 372000, few
    # classes) is enumeration, conjugacy and class-matrix splitting with a
    # small lift, and is refused at the default budget because the GL3(5)
    # side is built although the check does not need it.
    # Should not move: cache (never used).
    "rank3-cold": Workload(
        jobs=(("all", "GL3(3)"), ("all", "SL3(3)"), ("table", "SL3(5)")),
        cache="none",
    ),
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "max_job_s": "s",
    "peak_rss_mb": "MB",
    "job_pass_ratio": "ratio",
    "setup_s": "s",
}


def _job_key(check: str, spec: str) -> str:
    return f"{check} {spec}"


def _verify_argv(check: str, spec: str, cache_dir: Path | None) -> list[str]:
    argv = [check, "--group", spec, "--format", "json"]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    return argv


class Runner:
    """Starts job processes one at a time and keeps the run's deadline."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.deadline = start + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.count = 0

    def run(self, argv: list[str]) -> dict:
        """Run one process to completion; its output stays in files."""
        self.count += 1
        out_path = self.work / f"job{self.count}.out"
        err_path = self.work / f"job{self.count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - time.perf_counter(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "exit": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "out": out_path,
            "err": err_path,
        }


def _report_items_ok(text: str) -> bool:
    """True iff every item of every concatenated JSON report has ok: true."""
    decoder = json.JSONDecoder()
    pos, seen = 0, False
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        report, pos = decoder.raw_decode(text, pos)
        seen = True
        if not all(item.get("ok") is True for item in report["items"]):
            return False
    return seen


def _judge(job: dict, outcomes: list[dict]) -> None:
    """Set job["correct"] (matches a recorded outcome) and job["passed"]."""
    stdout = job["out"].read_bytes()
    digest = hashlib.sha256(stdout).hexdigest()
    stderr_lines = job["err"].read_text(errors="replace").strip().splitlines()
    job["sha256"] = digest
    job["stderr_tail"] = stderr_lines[-1] if stderr_lines else ""
    job["correct"] = any(
        job["exit"] == o["exit"]
        and digest == o["sha256"]
        and job["stderr_tail"] == o.get("stderr_tail", job["stderr_tail"])
        for o in outcomes
    )
    job["passed"] = (
        job["correct"] and job["exit"] == 0 and _report_items_ok(stdout.decode())
    )


def _probe(runner: Runner) -> str:
    """Import the program in a fresh process; return the numpy version."""
    job = runner.run([sys.executable, "-c",
                      "import numpy, redchar.cli; print(numpy.__version__)"])
    if job["exit"] != 0:
        raise SystemExit(f"error: cannot import redchar: {job['err'].read_text()[-500:]}")
    return job["out"].read_text().strip()


def _setup(runner: Runner) -> tuple[float, str]:
    """Everything before the timed region: a fresh process importing the
    program, repeated SETUP_REPEATS times.  Returns (median seconds, numpy
    version)."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        numpy_version = _probe(runner)
        times.append(time.perf_counter() - start)
    return statistics.median(times), numpy_version


def _run_pass(workload, order, runner: Runner, trace: bool) -> dict:
    jobs = []
    start = time.perf_counter()
    for check, spec in order:
        job_cache = None
        if workload.cache == "empty":
            job_cache = runner.work / f"cache{runner.count + 1}"
        argv = _verify_argv(check, spec, job_cache)
        spans = None
        if trace:
            spans = runner.work / f"spans{runner.count + 1}.json"
            argv = [sys.executable, str(BENCH_DIR / "tracejob.py"), str(spans), *argv]
        else:
            argv = [sys.executable, "-m", "redchar.cli", *argv]
        job = runner.run(argv)
        job.update(check=check, spec=spec, spans=spans)
        jobs.append(job)
    return {"wall_s": time.perf_counter() - start, "jobs": jobs}


def _timed(workload, order, runner, trace, seconds, min_passes=MIN_PASSES) -> list[dict]:
    """Passes back to back: at least `min_passes`, then more while one more
    is expected to end within `seconds`; none that would pass the deadline."""
    passes = []
    start = time.perf_counter()
    while True:
        now = time.perf_counter()
        if passes:
            typical = statistics.median(p["wall_s"] for p in passes)
            if now + typical > runner.deadline:
                break
            if len(passes) >= min_passes and now - start + typical > seconds:
                break
        passes.append(_run_pass(workload, order, runner, trace))
    return passes


def _job_medians(passes: list[dict], key: str) -> list[float]:
    """Per job of the pass, the median of `key` over the passes."""
    return [statistics.median(p["jobs"][i][key] for p in passes)
            for i in range(len(passes[0]["jobs"]))]


def _pass_wall(passes: list[dict]) -> float:
    """The wall time of one pass: each job's median wall time, summed."""
    return sum(_job_medians(passes, "wall_s"))


def _end_to_end(passes: list[dict], setup_s: float) -> dict:
    jobs = [job for p in passes for job in p["jobs"]]
    return {
        "wall_s": _pass_wall(passes),
        "cpu_s": sum(_job_medians(passes, "cpu_s")),
        "max_job_s": max(_job_medians(passes, "wall_s")),
        "peak_rss_mb": max(j["rss_mb"] for j in jobs),
        "job_pass_ratio": sum(j["passed"] for j in jobs) / len(jobs),
        "setup_s": setup_s,
    }


def _per_layer(passes: list[dict], untraced_walls: list[float]) -> tuple[dict, list]:
    totals = dict.fromkeys(tracejob.LAYER_METRICS, 0)
    spans = []
    for p in passes:
        for job in p["jobs"]:
            data = json.loads(job["spans"].read_text())
            job["layers"] = data["metrics"]
            for metric, value in data["metrics"].items():
                totals[metric] += value
            spans.append({"job": _job_key(job["check"], job["spec"]), "spans": data["spans"]})
    metrics = {m: v / len(passes) for m, v in totals.items()}
    traced_wall = _pass_wall(passes)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - statistics.median(untraced_walls)
    return metrics, spans


def _untraced_walls(name: str) -> list[float]:
    """wall_s of every correct untraced run of the workload logged so far."""
    if not RESULTS.exists():
        return []
    records = [json.loads(line) for line in RESULTS.read_text().splitlines()]
    return [r["metrics"]["wall_s"] for r in records
            if r["workload"] == name and not r["trace"] and r["correct"]]


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workload = WORKLOADS[name]
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    order = list(workload.jobs)
    random.Random(seed).shuffle(order)
    untraced_walls = _untraced_walls(name) if trace else []

    start = time.perf_counter()
    work = STATE_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start)
    load_before = os.getloadavg()
    try:
        setup_s, numpy_version = _setup(runner)
        passes = _timed(workload, order, runner, trace, seconds)
        baseline = []
        if trace and not untraced_walls:
            # no untraced run of this workload is logged: time one untraced
            # pass to compare the traced ones with
            baseline = _timed(workload, order, runner, False, 0, min_passes=1)
            untraced_walls = [_pass_wall(baseline)]
        load_after = os.getloadavg()
        jobs = [j for p in passes + baseline for j in p["jobs"]]
        for job in jobs:
            _judge(job, expected[_job_key(job["check"], job["spec"])])
        if trace:
            metrics, spans = _per_layer(passes, untraced_walls)
            units = {**tracejob.LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}
            (STATE_DIR / f"trace-{name}.json").write_text(json.dumps(spans))
        else:
            metrics = _end_to_end(passes, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": all(j["correct"] for j in jobs),
        "attempted": len(jobs),
        "failed": sum(not j["correct"] for j in jobs),
        "passes": len(passes),
        "stamps": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "order": [_job_key(c, s) for c, s in order],
            "loadavg_before": load_before,
            "loadavg_after": load_after,
        },
        "jobs": [
            {k: job[k] for k in ("check", "spec", "exit", "wall_s", "cpu_s", "rss_mb",
                                 "sha256", "stderr_tail", "correct", "passed", "layers")
             if k in job}
            for job in jobs
        ],
        "metrics": metrics,
        "units": units,
    }
    with open(RESULTS, "a") as log:
        log.write(json.dumps(record) + "\n")
    _print_record(record)
    return record


def _print_record(record: dict) -> None:
    stamps = record["stamps"]
    print(f"workload {record['workload']} seed {record['seed']} trace {int(record['trace'])}: "
          f"{record['passes']} pass(es) of {len(stamps['order'])} jobs; "
          f"nproc {stamps['nproc']}, python {stamps['python']}, numpy {stamps['numpy']}, "
          f"loadavg {stamps['loadavg_before'][0]:.2f} -> {stamps['loadavg_after'][0]:.2f}")
    for job in record["jobs"]:
        verdict = "pass" if job["passed"] else ("FAIL" if job["correct"] else "WRONG")
        line = (f"  {verdict} verify {job['check']} --group {job['spec']}: exit {job['exit']}, "
                f"{job['wall_s']:.2f} s, {job['rss_mb']:.0f} MB")
        if "layers" in job:
            layers = job["layers"]
            line += (f"; construction {layers['cli.context_s']:.2f} s: split "
                     f"{layers['chartable.split_s']:.2f} s, lift {layers['chartable.lift_s']:.2f} s")
        if job["exit"] != 0:
            line += f"; {job['stderr_tail']}"
        print(line)
    for metric, value in record["metrics"].items():
        print(f"  {metric} = {value:.6g} {record['units'][metric]}")


def _result_line(record: dict) -> str:
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m: {"value": v, "unit": record["units"][m]}
                    for m, v in record["metrics"].items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "redchar" / "cli.py").is_file():
        print(f"error: no redchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    STATE_DIR.mkdir(exist_ok=True)
    if args.workload != "all":
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
        print(_result_line(record))
        return 0
    records = [run(name, args.seed, args.seconds, trace)
               for name in WORKLOADS for trace in (False, True)]
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {f"{r['workload']}/{m}": {"value": v, "unit": r["units"][m]}
                    for r in records for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
