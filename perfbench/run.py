"""fvsst end-to-end benchmark launcher.

Run from the repository root::

    python3 perfbench/run.py --workload p630-failover --trace 0
    python3 perfbench/run.py --all   # every workload, two seeds, traced

One run repeats the workload in fresh single-threaded worker processes
(one at a time) for about ``--seconds`` seconds, with extra set-up-only
workers so the set-up median rests on enough samples, checks every correctness
invariant and the determinism of the simulated output across the
repetitions, prints a report, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of traced
repetitions (alternated with untraced ones for the overhead base).  The
host timings ``wall_s`` and ``setup_s`` are at reference speed, scaled
by a host-speed gauge the workers run inside the timed work (worker.py);
the raw timings are printed and recorded beside them.
Each run's full record is appended to ``perfbench/results/runs.jsonl``.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

WORKLOADS = ("p630-failover", "serving-flash", "fleet-chaos")

#: End-to-end metrics in the final JSON line (every workload has them).
E2E_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "sim_gips", "energy_kj")
#: Every end-to-end metric the report prints, in order; a workload
#: without one (no SLO, no supply failure) prints it as n/a.
REPORT_METRICS = E2E_METRICS + (
    "slo_compliance", "infeasible_passes", "failover_response_ms",
    "overcommit_w", "error_rate")
#: Per-layer metrics in the final JSON line of a traced run: the layers
#: every workload enters.  Workload-specific layers are in the report and
#: the results record.
PER_LAYER_METRICS = (
    "import.repro_s",
    "sim.driver.spans", "sim.driver.wall_per_span_us",
    "sim.driver.loop.self_s",
    "sim.driver.events.calls", "sim.driver.events.self_s",
    "sim.fleet.advance.calls", "sim.fleet.advance.self_s",
    "sim.fleet.prepare.calls", "sim.fleet.prepare.self_s",
    "sim.fleet.residency",
    "sim.counters.sample.calls", "sim.counters.sample.self_s",
    "core.scheduler.schedule.calls", "core.scheduler.schedule.self_s",
    "core.scheduler.schedule.p50_ms", "core.scheduler.schedule.p99_ms",
    "core.scheduler.schedule.procs_per_call",
    "core.predictor.signatures.calls", "core.predictor.signatures.self_s",
    "trace.overhead",
)

#: Simulated per-layer metrics a workload reports with its modelled
#: output (so the determinism check covers them): name -> layer name.
SIMULATED_LAYER_METRICS = {
    "req_p50_ms": "workloads.serving.req_p50_ms",
    "req_p99_ms": "workloads.serving.req_p99_ms",
}

MIN_REPS = 3            # untraced repetitions per --trace 0 run
MIN_SETUP_SAMPLES = 10  # set-up samples per --trace 0 run
MIN_TRACE_PAIRS = 1     # (untraced, traced) pairs per --trace 1 run
MAX_REPS = 64
#: What a worker reports of its set-up (see worker.py).
SETUP_KEYS = ("setup_s", "setup_raw_s", "setup_speed")
WORKER_TIMEOUT_S = 170
#: The second seed ``--all`` runs and records next to ``--seed``.
SECOND_SEED = 7

# Keep numeric libraries single-threaded and string hashing fixed so
# repetitions see the same host load and the same program behaviour.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, crashed worker)."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(workload: str, seed: int, mode: str | None = None) -> dict:
    """One worker; ``mode`` is None, "trace" or "setup-only"."""
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed)]
    if mode is not None:
        cmd.append(f"--{mode}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                              capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{' '.join(cmd)}\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def repeat(workload: str, seed: int, seconds: float, trace: bool
           ) -> tuple[list[dict], list[dict], list[dict]]:
    """(untraced reps, traced reps, set-up samples) filling about
    ``seconds`` of host time."""
    plain: list[dict] = []
    traced: list[dict] = []
    t0 = time.perf_counter()
    unit_s = 0.0            # host time of the full repetitions alone
    while True:
        t_unit = time.perf_counter()
        plain.append(run_worker(workload, seed))
        if trace:
            traced.append(run_worker(workload, seed, "trace"))
        unit_s += time.perf_counter() - t_unit
        units = len(traced) if trace else len(plain)
        done = units >= (MIN_TRACE_PAIRS if trace else MIN_REPS)
        # Host time of one more repetition plus the set-up-only samples
        # still owed after it.
        owed = 0 if trace else max(0, MIN_SETUP_SAMPLES - len(plain) - 1)
        next_s = unit_s / units + owed * median_of(plain, "setup_raw_s")
        elapsed = time.perf_counter() - t0
        if units >= MAX_REPS or (done and elapsed + next_s > seconds):
            break
    # Set-up-only workers top the full repetitions' set-up samples up to
    # MIN_SETUP_SAMPLES, so the set-up median rests on enough samples.
    setups = [{k: r[k] for k in SETUP_KEYS} for r in plain]
    while not trace and len(setups) < MIN_SETUP_SAMPLES:
        rep = run_worker(workload, seed, "setup-only")
        setups.append({k: rep[k] for k in SETUP_KEYS})
    return plain, traced, setups


def modelled_signature(rep: dict) -> tuple:
    """Everything a run of the same seed must reproduce exactly."""
    return (rep["fingerprint"], json.dumps(rep["modelled"], sort_keys=True),
            rep["attempted"], rep["failed"],
            json.dumps(rep["fleet"], sort_keys=True))


def check(plain: list[dict], traced: list[dict]
          ) -> dict[str, tuple[bool, str]]:
    """Every invariant of every rep, determinism, and trace neutrality."""
    checks: dict[str, tuple[bool, str]] = {}
    for rep in plain + traced:
        for name, (ok, detail) in rep["invariants"].items():
            prev = checks.get(name)
            if prev is None or (prev[0] and not ok):
                checks[name] = (ok, detail)
    threads = max(r["max_threads"] for r in plain)
    checks["single_threaded"] = (
        threads == 1,
        f"at most {threads} thread(s) alive at the host-speed gauge's "
        f"ticks; the gauge shares the process, so the timings assume one")
    sigs = {modelled_signature(r) for r in plain}
    checks["deterministic"] = (
        len(sigs) == 1,
        f"{len(plain)} runs, {len(sigs)} distinct fingerprint/modelled "
        f"outputs")
    if traced:
        ref = plain[0]
        same = all(t["fingerprint"] == ref["fingerprint"]
                   and t["fleet"]["fallback_breakdown"]
                   == ref["fleet"]["fallback_breakdown"]
                   and t["modelled"] == ref["modelled"] for t in traced)
        checks["trace_neutral"] = (
            same, f"{len(traced)} traced runs vs fingerprint "
                  f"{ref['fingerprint']}")
    return checks


def environment() -> dict:
    import numpy

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit,
            "src_sha256": h.hexdigest()[:16],
            "machine": platform.machine()}


def summarize(workload: str, seed: int, plain: list[dict],
              traced: list[dict], setups: list[dict]) -> dict:
    """Aggregate one run: medians of host timings, the (identical)
    modelled metrics, error rate, and the traced per-layer medians."""
    ref = plain[0]
    attempted = sum(r["attempted"] for r in plain + traced)
    failed = sum(r["failed"] for r in plain + traced)
    e2e: dict[str, tuple[float, str]] = {
        "wall_s": (median_of(plain, "wall_s"), "s"),
        "setup_s": (median_of(setups, "setup_s"), "s"),
        "peak_rss_mb": (median_of(plain, "peak_rss_mb"), "MB"),
    }
    for name, (value, unit) in ref["modelled"].items():
        if name not in SIMULATED_LAYER_METRICS:
            e2e[name] = (value, unit)
    e2e["error_rate"] = (failed / attempted if attempted else 0.0, "ratio")
    out = {"workload": workload, "seed": seed, "reps": len(plain),
           "traced_reps": len(traced), "horizon_s": ref["horizon_s"],
           "shape": ref["shape"], "fingerprint": ref["fingerprint"],
           "fleet": ref["fleet"], "attempted": attempted, "failed": failed,
           "end_to_end": e2e,
           "host": {"wall_raw_s": median_of(plain, "wall_raw_s"),
                    "host_speed": median_of(plain, "host_speed"),
                    "setup_raw_s": median_of(setups, "setup_raw_s"),
                    "setup_speed": median_of(setups, "setup_speed")},
           "wall_s_reps": [r["wall_s"] for r in plain],
           "wall_raw_s_reps": [r["wall_raw_s"] for r in plain],
           "host_speed_reps": [r["host_speed"] for r in plain],
           "setup_s_reps": [r["setup_s"] for r in setups],
           "setup_raw_s_reps": [r["setup_raw_s"] for r in setups]}
    if traced:
        names = traced[0]["layers"].keys()
        layers = {n: (statistics.median(t["layers"][n][0] for t in traced),
                      traced[0]["layers"][n][1]) for n in names}
        # Raw host time on both sides: traced runs do not tick the gauge.
        traced_wall = median_of(traced, "wall_raw_s")
        plain_wall = out["host"]["wall_raw_s"]
        layers["trace.overhead"] = (traced_wall / plain_wall, "x")
        for name, layer_name in SIMULATED_LAYER_METRICS.items():
            if name in ref["modelled"]:
                layers[layer_name] = tuple(ref["modelled"][name])
        out["layers"] = layers
        out["trace_overhead_base"] = {"traced_wall_s": traced_wall,
                                      "untraced_wall_s": plain_wall}
    return out


def print_report(summary: dict, checks: dict, env: dict) -> None:
    print(f"== {summary['workload']}  seed={summary['seed']}  "
          f"horizon={summary['horizon_s']} s simulated  "
          f"reps={summary['reps']} untraced, "
          f"{len(summary['setup_s_reps'])} set-up samples"
          + (f" + {summary['traced_reps']} traced"
             if summary['traced_reps'] else ""))
    print(f"   shape: {summary['shape']}")
    print(f"   env: nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']} commit={env['git_commit']} "
          f"src={env['src_sha256']}")
    print(f"   sim_fingerprint={summary['fingerprint']}  "
          f"fleet={summary['fleet']}")
    host = summary["host"]
    print("   end-to-end (host: wall_s setup_s peak_rss_mb, the timings at "
          "reference speed; the rest simulated):")
    for name in REPORT_METRICS:
        if name in summary["end_to_end"]:
            value, unit = summary["end_to_end"][name]
            print(f"     {name:28s} {value:16.6g} {unit}")
        else:
            print(f"     {name:28s} {'n/a':>16s}")
    print(f"   host speed (1 = reference): run {host['host_speed']:.3f}, "
          f"set-up {host['setup_speed']:.3f}; raw wall_s "
          f"{host['wall_raw_s']:.4f} s, raw setup_s "
          f"{host['setup_raw_s']:.4f} s")
    if "layers" in summary:
        base = summary["trace_overhead_base"]
        print(f"   per-layer (traced; trace.overhead = "
              f"{base['traced_wall_s']:.4f} s traced / "
              f"{base['untraced_wall_s']:.4f} s untraced raw wall):")
        for name, (value, unit) in sorted(summary["layers"].items()):
            print(f"     {name:60s} {value:14.6g} {unit}")
    print("   checks:")
    for name, (ok, detail) in checks.items():
        print(f"     [{'ok' if ok else 'FAIL'}] {name}: {detail}")


def record(entry: dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "runs.jsonl"), "a") as f:
        f.write(json.dumps(entry) + "\n")


def one_run(workload: str, seed: int, seconds: float, trace: bool,
            env: dict) -> tuple[dict, dict]:
    plain, traced, setups = repeat(workload, seed, seconds, trace)
    checks = check(plain, traced)
    summary = summarize(workload, seed, plain, traced, setups)
    print_report(summary, checks, env)
    record({"time": time.strftime("%Y-%m-%dT%H:%M:%S"), "env": env,
            "seconds": seconds, "checks": checks, **summary})
    return summary, checks


def result_line(summary: dict, checks: dict, trace: bool) -> dict:
    """The final JSON line of a single-workload run."""
    source = summary["layers"] if trace else summary["end_to_end"]
    names = PER_LAYER_METRICS if trace else E2E_METRICS
    return {"correct": all(ok for ok, _ in checks.values()),
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {n: {"value": source[n][0], "unit": source[n][1]}
                        for n in names}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help=f"every workload at --seed and at {SECOND_SEED}, "
                         "plus a traced run at --seed")
    ap.add_argument("--seed", type=int, default=2005)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and args.workload is None:
        ap.error("give --workload NAME or --all")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        env = environment()
        if not args.all:
            summary, checks = one_run(args.workload, args.seed, args.seconds,
                                      bool(args.trace), env)
            line = result_line(summary, checks, bool(args.trace))
            print(json.dumps(line))
            return 0 if line["correct"] else 1
        ok = True
        for workload in WORKLOADS:
            runs = [one_run(workload, args.seed, args.seconds, False, env),
                    one_run(workload, SECOND_SEED, args.seconds, False, env),
                    one_run(workload, args.seed, args.seconds, True, env)]
            same = runs[0][0]["fingerprint"] == runs[2][0]["fingerprint"]
            print(f"   [{'ok' if same else 'FAIL'}] {workload}: "
                  f"fingerprint at seed {args.seed} repeats across runs")
            ok &= same and all(o for _, c in runs for o, _ in c.values())
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
