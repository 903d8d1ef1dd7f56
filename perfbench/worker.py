"""One workload process: import torlinks from the checkout, prepare the
inputs, print READY, then run ops in a closed loop with one caller.

Started by run.py, which times launch-to-READY as set-up. Results go to the
JSON file named by --result; the package's own prints go to /dev/null.

In a traced run each op input is run twice, untraced and traced, in
alternating order, so the tracing overhead compares like with like.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class SpeedProbe:
    """Tracks how fast the machine runs this process during a run.

    On a shared machine the speed this process gets changes by up to 1.8x
    within seconds, as other tenants come and go, and a 24-second run can
    fall mostly into a slow or mostly into a fast period. The probe times a
    fixed kernel (Hermitian eigendecompositions at n = 64, and formatting
    and parsing floats as the JSON codec does: the two kinds of work the
    workloads do) in short bursts between ops. The mean probe time of a run,
    against REF_S, scales the run's times to one reference speed.
    """

    #: Mean probe time on the machine the benchmark was tuned on, in a
    #: quiet period; scaled times are seconds at that speed.
    REF_S = 0.0095
    #: Probes per burst, the pause between them, and the op time between bursts.
    BURST = 3
    PAUSE_S = 0.025
    EVERY_S = 1.0

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        z = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._np = np
        self._h = z + z.conj().T
        self._floats = [float(v) for v in rng.standard_normal(5000)]
        self.samples: list[float] = []
        self._since = 0.0

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            self._np.linalg.eigh(self._h)
        json.loads("[" + ",".join(f"{x:.17g}" for x in self._floats) + "]")
        return time.perf_counter() - start

    def burst(self) -> None:
        for k in range(self.BURST):
            if k:
                time.sleep(self.PAUSE_S)
            self.samples.append(self._once())
        self._since = 0.0

    def after_op(self, seconds: float) -> None:
        self._since += seconds
        if self._since >= self.EVERY_S:
            self.burst()

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get reference-speed seconds."""
        return self.REF_S / statistics.fmean(self.samples)


def _run_op(wl, i: int, tracer, sabotage: bool):
    """One op; returns (seconds, verdict). Checks run after the clock stops."""
    from workloads import Verdict

    try:
        if tracer is None:
            start = time.perf_counter()
            out = wl.op(i, sabotage)
            seconds = time.perf_counter() - start
        else:
            tracer.op, tracer.aside_s = i, 0.0
            with tracer.span("op") as rec:
                out = wl.traced(i, tracer, sabotage)
            rec["aside"] = tracer.aside_s
            seconds = rec["end"] - rec["start"] - tracer.aside_s
        return seconds, wl.check(out)
    except Exception:
        return None, Verdict(False, traceback.format_exc(limit=3))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result")
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--sabotage", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import torlinks.cli

    if not os.path.abspath(torlinks.cli.__file__).startswith(src + os.sep):
        print(f"torlinks imported from {torlinks.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS

    os.makedirs(args.work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    probe = SpeedProbe()
    probe.burst()

    tracer = Tracer() if args.trace else None
    plain, traced, verdicts = [], [], []
    deadline = time.perf_counter() + args.seconds
    i = 0
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        while True:
            begun = time.perf_counter()
            modes = [None] if tracer is None else [None, tracer][:: 1 if i % 2 == 0 else -1]
            for mode in modes:
                seconds, verdict = _run_op(wl, i, mode, args.sabotage)
                verdicts.append(verdict)
                if seconds is not None:
                    (plain if mode is None else traced).append(seconds)
                    probe.after_op(seconds)
            i += 1
            # start no op that would likely end after the deadline
            now = time.perf_counter()
            if now + (now - begun) > deadline:
                break
    probe.burst()

    good = [v for v in verdicts if v.ok]
    result = {
        "env": _environment(),
        "attempted": len(verdicts),
        "failed": len(verdicts) - len(good),
        "fail_reasons": sorted({v.reason for v in verdicts if not v.ok})[:5],
        "op_s": plain,
        "probe_s": probe.samples,
        "speed_factor": probe.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eps_over_delta": [v.eps_over_delta for v in good if v.eps_over_delta is not None],
        "length_over_delta": [v.length_over_delta for v in good if v.length_over_delta is not None],
    }
    if tracer is not None:
        result["layers"] = layer_metrics(tracer.spans, len(traced))
        result["layers"]["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(plain) if traced and plain else 0.0
        )
        result["traced_op_s"] = traced
        if args.trace_file:
            tracer.write(args.trace_file)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
