"""Training and prediction benchmark for contextvp.

Run from the repository root:

    python3 bench/run.py --workload train-ctx16 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

`--workload all` runs every workload of BENCHMARK.json, each in its own
process. With `--trace 0` a run reports the end-to-end metrics. With
`--trace 1` it measures half the time untraced and half with timing
wrappers installed, reports the per-layer metrics and the gap between the
halves as `trace.overhead_frac`, and writes every span to
bench/out/trace-<workload>.tsv.gz. Metric names, units and directions
come from BENCHMARK.json.

Call times are reported relative to a fixed reference kernel timed between
calls (`reference.py`), which cancels most of the host's speed drift; the
raw times are printed too. Readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Every call and every output check is one attempted
operation. The exit code is 0 only when none failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_EVERY = 3.0  # seconds of loop between throwaway set-up rounds


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except TypeError:  # numpy < 1.26 has no mode argument
        blas = "unknown"
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"blas {blas}, blas threads {os.environ['OPENBLAS_NUM_THREADS']}, "
            f"nproc {_nproc()}, {platform.processor() or platform.machine()}")


def _timed(fn, tracer, name, call):
    t0 = perf_counter()
    if tracer is None:
        result = fn()
    else:
        with tracer.root(name, call):
            result = fn()
    return perf_counter() - t0, result


class Runner:
    """Drives one workload: set-up rounds and the closed loop of calls.

    Besides the first set-up, a throwaway set-up round runs every
    SETUP_EVERY seconds of the loop, so that the set-up median samples the
    whole run rather than one moment of it.
    """

    def __init__(self, make_workload, time_reference):
        self.make_workload = make_workload
        self.time_reference = time_reference
        self.wl = make_workload()
        self.i = 0
        self.setup_times: list[float] = []
        self.traced_setups: list[str] = []

    def setup(self, wl, tracer) -> None:
        call = f"setup{len(self.setup_times)}"
        self.setup_times.append(_timed(wl.setup, tracer, "bench.setup", call)[0])
        if tracer:
            self.traced_setups.append(call)

    def loop(self, tracer, seconds, min_calls=0):
        """Closed loop: call i + 1 is sent when call i returns. Runs for
        `seconds` and until `min_calls` calls have been made in total.
        Returns the successful calls' durations, the durations of the
        reference kernel timed just before each and once after the last,
        and span ids."""
        wl = self.wl
        times, refs, calls = [], [], []
        start = perf_counter()
        next_setup = start + SETUP_EVERY
        while perf_counter() < start + seconds or self.i < min_calls:
            if perf_counter() >= next_setup:
                self.setup(self.make_workload(), tracer)
                next_setup += SETUP_EVERY
            i = self.i
            self.i += 1
            wl.calls += 1
            ref = self.time_reference(wl.batch)
            try:
                dt, result = _timed(lambda: wl.call(i), tracer, "bench.call", f"call{i}")
            except Exception:
                wl.fail_call(i, traceback.format_exc(limit=3).strip())
                continue
            times.append(dt)
            refs.append(ref)
            calls.append(f"call{i}")
            wl.observe(i, result)
            del result  # a training tape holds ~0.5 GB; free it before the next call
        refs.append(self.time_reference(wl.batch))
        return times, refs, calls


def _ratios(times, refs):
    """Each call's time over the median of the two reference runs before
    it and the two after it; refs[i] ran just before call i."""
    return [t / statistics.median(refs[max(0, i - 1):i + 3]) for i, t in enumerate(times)]


def _select(values: dict, declared: list) -> dict:
    """Declared per-layer metrics; an undeclared node kind folds into the
    family's `.other`, and a layer nothing ran in reads 0."""
    out = {m["name"]: 0.0 for m in declared}
    for key, value in values.items():
        if key in out:
            out[key] += value
        elif key.rsplit(".", 1)[0] + ".other" in out:
            out[key.rsplit(".", 1)[0] + ".other"] += value
    return out


def _print_metric(name, value, unit, detail=""):
    print(f"{name:<30} {value:>14.6g} {unit:<6} {detail}".rstrip())


def run(name: str, seed: int, seconds: float, trace: bool, bench: dict) -> int:
    import numpy as np

    import reference
    import workloads
    from tracer import Tracer

    print(f"# workload {name}, seed {seed}, seconds {seconds}, trace {int(trace)}")
    print(f"# env: {_environment(np)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(lambda: workloads.WORKLOADS[name](seed, OUT_DIR, name), reference.timed)
    wl = runner.wl
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        runner.setup(wl, tracer)
        if tracer:
            tracer.uninstall()
        runner.loop(None, 0.0, 1)  # warm-up: the first call is slow
        if tracer:
            untraced, untraced_refs, _ = runner.loop(None, seconds / 2)
            tracer.attach(wl.model)
            tracer.install()
            times, refs, calls = runner.loop(tracer, seconds / 2, wl.min_calls)
            tracer.uninstall()
        else:
            times, refs, calls = runner.loop(None, seconds, wl.min_calls)
        wl.finish()
    finally:
        wl.cleanup()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = wl.calls + len(wl.checks)
    failed = wl.failed_calls + sum(p is not None for p in wl.checks.values())
    for check, problem in wl.checks.items():
        print(f"# check {check}: {'ok' if problem is None else 'FAILED ' + problem}")

    n = len(times)
    rels = _ratios(times, refs)
    if trace:
        declared = bench["per_layer"]
        values = tracer.summarize(runner.traced_setups, calls)
        values.update(wl.counts or {})
        untraced_rels = _ratios(untraced, untraced_refs)
        values["trace.overhead_frac"] = statistics.median(rels) / statistics.median(untraced_rels) - 1.0
        metrics = _select(values, declared)
        path = os.path.join(OUT_DIR, f"trace-{name}.tsv.gz")
        tracer.write(path)
        print(f"# {len(tracer.spans)} spans written to {os.path.relpath(path, ROOT)}; "
              f"medians over {n} traced calls, {len(untraced)} untraced, "
              f"{len(runner.traced_setups)} traced set-up rounds")
    else:
        declared = bench["end_to_end"]
        metrics = {
            "setup_s": statistics.median(runner.setup_times),
            "call_rel_p50": statistics.median(rels),
            "call_rel_p90": float(np.percentile(rels, 90)),
            "loss_end": wl.loss_end(),
            "peak_rss_mb": peak_rss_mb,
        }
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        raise KeyError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    for key in units:
        _print_metric(key, metrics[key], units[key])

    if not trace:
        beyond = sum(r > metrics["call_rel_p90"] for r in rels)
        print(f"# {n} timed calls, {beyond} beyond p90; "
              f"set-up median of {len(runner.setup_times)} rounds")
        call_s_p50 = statistics.median(times)
        call_s_p90 = float(np.percentile(times, 90))
        _print_metric("call_s_p50", call_s_p50, "s", f"raw, {n} calls")
        _print_metric("call_s_p90", call_s_p90, "s", f"raw, {n} calls")
        _print_metric("reference_s_p50", statistics.median(refs), "s",
                      f"reference kernel, {n} runs")
        if isinstance(wl, workloads.TrainWorkload):
            _print_metric("train_samples_per_s", workloads.BATCH / call_s_p50, "1/s",
                          f"N={workloads.BATCH} / call_s_p50, {n} steps")
            _print_metric("train_loss_end", metrics["loss_end"], "loss",
                          f"mean of steps {workloads.LOSS_STEPS - workloads.LOSS_END_STEPS}"
                          f"..{workloads.LOSS_STEPS - 1}")
        else:
            _print_metric("predict_request_s_p50", call_s_p50, "s", f"{n} requests")
            _print_metric("predict_request_s_p90", call_s_p90, "s", f"{n} requests")
        layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for key, value in sorted((wl.counts or {}).items()):
            _print_metric(key, value, layer_units.get(key, "count"), "exact")
    _print_metric("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} failed")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if failed == 0 else 1


def run_all(args, names) -> int:
    codes = []
    for name in names:
        codes.append(subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=False,
        ).returncode)
    return 0 if all(c == 0 for c in codes) else 1


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "contextvp", "__init__.py")):
        print(f"error: no contextvp sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args, names)
    # one BLAS thread, fixed before numpy loads: a second one gains little
    # on the benchmark's arrays and ties call times to the other core's load
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, SRC)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), bench)


if __name__ == "__main__":
    sys.exit(main())
