"""Benchmark for torlinks: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload link-n64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Each run launches the workload process (worker.py) several times to
measure set-up, and once more for the timed closed loop. With ``--trace 0``
the last stdout line is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Working files,
span traces and full results (with the environment) go to ``.perfbench/``.

``--smoke`` runs one op per workload in both modes, checks that every metric
named in BENCHMARK.json is printed with its unit, and checks that an op
whose saved artifact was corrupted is counted as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from spans import per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("link-n64", "link-small", "lift-n32", "torus-n256")

#: Set-up is measured this many times per run; the median is reported.
SETUP_SAMPLES = 5
#: One BLAS thread (at most nproc, as required): the matrices are small
#: (n <= 512), and on a shared 2-CPU machine a second thread made op times
#: swing with other tenants' load far more than it sped them up.
BLAS_THREADS = 1
#: Every run must end within this many seconds.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "eps_over_delta.max": "ratio",
    "length_over_delta.max": "ratio",
}


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _tail(times: list) -> tuple[float, float]:
    """(value, percentile): the highest order statistic with at least ten
    samples above it, but never below the median rank. Below 20 samples no
    order statistic above the median has ten samples beyond it, so the tail
    is the (lower) median order statistic there."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, (len(ordered) - 1) // 2)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _launch(cmd: list, env: dict, deadline: float):
    """Start a worker; return (process, seconds from launch to READY)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _finish(proc, deadline)
        raise BenchError(f"workload process did not get ready (exit {proc.returncode})")
    return proc, ready


def _finish(proc, deadline: float) -> None:
    try:
        proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("workload process ran past the time limit and was killed")
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with {proc.returncode}")


def measure(workload: str, seed: int, seconds: float, trace: int,
            setup_samples: int = SETUP_SAMPLES, sabotage: bool = False) -> dict:
    """One run: set-up samples, then the timed loop. Returns the full result."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "torlinks", "cli.py")):
        raise BenchError(f"no torlinks sources under {os.path.join(ROOT, 'src')}")
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    tag = f"{workload}-s{seed}-t{trace}"
    work = os.path.join(OUT, f"work-{os.getpid()}")
    result_path = os.path.join(OUT, f"result-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", work]
    os.makedirs(OUT, exist_ok=True)
    try:
        setups = []
        for _ in range(setup_samples - 1):
            proc, ready = _launch(cmd + ["--setup-only"], env, deadline)
            _finish(proc, deadline)
            setups.append(ready)
        extra = ["--result", result_path, "--trace-file", os.path.join(OUT, f"spans-{tag}.jsonl")]
        proc, ready = _launch(cmd + extra + (["--sabotage"] if sabotage else []), env, deadline)
        setups.append(ready)
        _finish(proc, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(result_path, encoding="utf-8") as handle:
        res = json.load(handle)

    res["env"].update(nproc=os.cpu_count(), affinity=len(os.sched_getaffinity(0)),
                      cpu_model=_cpu_model(), workload=workload, seed=seed,
                      seconds=seconds, trace=trace)
    res["setup_samples_s"] = setups
    # Op times are scaled to the reference machine speed (see SpeedProbe in
    # worker.py); the raw times stay in the result file. Set-up happens
    # before the probes run, in other processes, so it is reported raw.
    factor = res["speed_factor"]
    times = [t * factor for t in res["op_s"]]
    if trace:
        res["metrics"] = res["layers"]
    elif times:
        tail, pct = _tail(times)
        res["tail_percentile"] = pct
        # Workloads that build no links have no epsilon or length: the ratio
        # is reported as 1 there (see BENCHMARK.json), never as 0.
        res["metrics"] = {
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail,
            "ops_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "eps_over_delta.max": max(res["eps_over_delta"], default=1.0),
            "length_over_delta.max": max(res["length_over_delta"], default=1.0),
        }
    else:
        res["metrics"] = {}
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(res, handle, indent=1, sort_keys=True)
    return res


def _summary(res: dict, trace: int) -> dict:
    units = per_layer_units() if trace else END_TO_END_UNITS
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }


def _report(res: dict) -> None:
    print("env: " + json.dumps(res["env"], sort_keys=True))
    print(f"ops: {res['attempted']} attempted, {res['failed']} failed, "
          f"fail_ratio {res['failed'] / res['attempted']:.4g}")
    for reason in res["fail_reasons"]:
        print("failure: " + reason.replace("\n", " | "))
    if "tail_percentile" in res:
        print(f"op_s.tail is p{res['tail_percentile']:.1f} of {len(res['op_s'])} untraced ops")
    print("setup samples (s, raw): " + " ".join(f"{s:.4f}" for s in res["setup_samples_s"]))
    if res["op_s"]:
        print(f"raw op_s.p50 {statistics.median(res['op_s']):.4f} s; speed factor "
              f"{res['speed_factor']:.4f} from {len(res['probe_s'])} probes")


def smoke() -> int:
    """One op per workload and mode; metric names and units must match
    BENCHMARK.json, and a corrupted artifact must count as a failed op."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            out = _summary(measure(workload, 0, 0, trace, setup_samples=1), trace)
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{where}: metrics/units differ from BENCHMARK.json")
            if not out["correct"]:
                problems.append(f"{where}: ops failed")
            broken = measure(workload, 0, 0, trace, setup_samples=1, sabotage=True)
            if broken["failed"] == 0 or broken["failed"] != broken["attempted"]:
                problems.append(f"{where}: corrupted artifact not counted as failed")
            print(f"smoke {where}: {len(got)} metrics, "
                  f"sabotaged ops failed {broken['failed']}/{broken['attempted']}")
    for p in problems:
        print("SMOKE FAIL: " + p)
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if not res["metrics"]:
        print("perfbench: no op completed", file=sys.stderr)
        return 2
    _report(res)
    print(json.dumps(_summary(res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
