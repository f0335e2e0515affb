"""Run one workload of the covhedge benchmark and print its metrics.

    python3 bench/run.py --workload fourier_hedge --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run sets the workload up, then repeats
timed passes (every model of the workload once per pass, the models' phases
interleaved) while another pass still fits in --seconds; at least one pass
always runs.  After each pass
the outputs are checked, outside the timed region, and every check counts
as one operation.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are converted to a reference machine speed with the samples of the
speed probe in speed.py, which runs throughout every timed pass and
set-up.  With --trace 0 the metrics are the end-to-end ones (medians over
passes); with --trace 1 the run alternates untraced and traced passes and reports the
per-layer self times and counts of the traced passes, the tracing overhead
and the time no layer accounts for.  A full report, with every check and
pass, goes to BENCH_<workload>_seed<seed>_trace<0|1>.json at the root.

`correct` is false when a check fails that no known program fault explains;
failed checks with a known fault are counted in `failed` only.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4         # extra set-ups, each in a fresh interpreter
SETUP_SAMPLE_S = 0.05    # seconds between speed samples during a set-up
WORKLOAD_NAMES = ("fourier_hedge", "covswap_hedge", "price_strip")


def _timed_setup(workload: str, seed: int):
    """Import covhedge and build the workload's cases; returns the cases
    and the set-up's wall seconds and seconds at the reference speed.  The
    first call in a process pays the imports.  The speed probe samples the
    machine from the moment numpy (which covhedge imports first) is in."""
    t0 = time.perf_counter()
    import speed
    with speed.Sampler(SETUP_SAMPLE_S) as sampler:
        import workloads
        cases = workloads.WORKLOADS[workload].setup(seed)
    t1 = time.perf_counter()
    ref_s, factor = sampler.reference_seconds(
        t0, t1, speed.speed_factor([speed.probe()]))
    return cases, {"wall_s": t1 - t0, "speed_factor": factor,
                   "setup_s": ref_s}


def _probe_setup(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_pass(workload, cases: dict) -> tuple[dict, dict]:
    """One timed pass over every case, advancing the cases' steps in turn;
    returns outputs and timings.  The speed probe samples the machine
    throughout; each step's time is converted to the reference speed with
    the samples taken during it."""
    outs = {}
    spans = []                       # (model share, start, end) per step
    steps = {name: workload.run(case) for name, case in cases.items()}
    import speed
    with speed.Sampler() as sampler:
        t_pass = time.perf_counter()
        while steps:
            for name in list(steps):
                t0 = time.perf_counter()
                try:
                    next(steps[name])
                except StopIteration as done:
                    outs[name] = done.value
                    del steps[name]
                spans.append((workload.share(name), t0, time.perf_counter()))
        wall = time.perf_counter() - t_pass
    pass_factor = sampler.factor()
    timing = {"wasc_s": 0.0, "bns_s": 0.0}
    for share, t0, t1 in spans:
        timing[share + "_s"] += sampler.reference_seconds(t0, t1,
                                                          pass_factor)[0]
    timing["run_s"] = timing["wasc_s"] + timing["bns_s"]
    timing["wall_s"] = wall
    timing["speed_factor"] = pass_factor
    timing["probes"] = len(sampler.durations)
    return outs, timing


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time one set-up, print the seconds and exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "covhedge" / "__init__.py").is_file():
        print(f"covhedge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    cases, setup_first = _timed_setup(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps(setup_first))
        return 0

    import checks
    import tracing
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    check_case = checks.CHECKS[args.workload]

    oracle: dict = {}
    plain, traced = [], []          # per-pass timing records
    attempted = failed = 0
    unexplained: list[str] = []
    last_checks: list = []
    t_start = time.perf_counter()
    while True:
        trace_this = bool(args.trace) and len(plain) > len(traced)
        tracer = tracing.Tracer() if trace_this else None
        if tracer:
            tracer.install()
        try:
            outs, timing = _run_pass(workload, cases)
        finally:
            if tracer:
                tracer.uninstall()
        if tracer:
            # wall self times, scaled to the reference speed like run_s
            scale = timing["run_s"] / timing["wall_s"]
            timing["layers"] = {m: v * scale
                                for m, v in tracer.self_times().items()}
            timing["counts"] = dict(tracer.counts)
            timing["spans"] = len(tracer.spans)
            traced.append(timing)
        else:
            plain.append(timing)

        last_checks = [c for name, case in cases.items()
                       for c in check_case(name, case, outs[name], oracle)]
        del outs
        attempted += len(last_checks)
        for c in last_checks:
            if not c.ok:
                failed += 1
                if c.known_fault is None:
                    unexplained.append(c.name)

        elapsed = time.perf_counter() - t_start
        n_pass = len(plain) + len(traced)
        need_more = bool(args.trace) and not (plain and traced)
        if not need_more and elapsed * (n_pass + 1) / n_pass > args.seconds:
            break

    if args.trace:
        layers = {m: _median(p["layers"][m] for p in traced)
                  for m in tracing.TIME_METRICS}
        counts = {m: traced[-1]["counts"].get(m, 0)
                  for m in tracing.COUNT_METRICS}
        traced_run = _median(p["run_s"] for p in traced)
        remainder = _median(p["run_s"] - sum(p["layers"].values())
                            for p in traced)
        metrics = {m: {"value": v, "unit": "s"} for m, v in layers.items()}
        metrics.update({m: {"value": v, "unit": "count"}
                        for m, v in counts.items()})
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_run - _median(p["run_s"] for p in plain),
            "unit": "s"}
        metrics["trace.remainder_s"] = {"value": remainder, "unit": "s"}
    else:
        setups = [setup_first] + [_probe_setup(args.workload, args.seed)
                                  for _ in range(SETUP_PROBES)]
        metrics = {m: {"value": _median(p[m] for p in plain), "unit": "s"}
                   for m in ("run_s", "wasc_s", "bns_s")}
        metrics["setup_s"] = {"value": _median(p["setup_s"] for p in setups),
                              "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0, "unit": "MB"}

    result = {"correct": not unexplained, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  unexplained_failures=sorted(set(unexplained)),
                  passes={"untraced": plain, "traced": traced},
                  setup_s_samples=None if args.trace else setups,
                  checks=[{"name": c.name, "ok": c.ok,
                           "known_fault": c.known_fault, "detail": c.detail}
                          for c in last_checks])
    out_file = ROOT / (f"BENCH_{args.workload}_seed{args.seed}"
                       f"_trace{args.trace}.json")
    out_file.write_text(json.dumps(report, indent=1, default=float) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
