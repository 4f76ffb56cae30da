"""One benchmark repetition in a fresh interpreter.

Usage (from the repository root; ``run.py`` launches it)::

    python3 perfbench/worker.py --workload p630-failover --seed 2005 \
        [--trace | --setup-only]

Prints one JSON object: host timings (``setup_s`` from before ``import
repro`` to the first simulated event, ``wall_s`` to simulate the fixed
horizon), peak RSS, the modelled metrics, the correctness invariants,
the simulated-output fingerprint, the fleet kernel's residency and
fallback tallies, and with ``--trace`` the per-layer statistics.  With
``--setup-only`` it stops at the first simulated event and prints only
the set-up timings: a cheap extra sample of set-up time.

Host speed on a shared box drifts by tens of percent within minutes, so
both host timings are given at reference speed.  A fixed pure-Python
reference kernel runs interleaved with the timed work: on every
``IMPORT_TICK``-th module lookup during set-up, and at ``RUN_TICKS``
evenly spaced marks of simulated time during the run.  Its time is
subtracted from the timing (giving ``setup_raw_s`` and ``wall_raw_s``),
and the raw timing is scaled by the window's host speed,
``REF_KERNEL_S`` / the kernel's mean time there (``setup_speed``,
``host_speed``), giving ``setup_s`` and ``wall_s``.  A traced run does
not tick during the simulation (the kernel would land in the driver's
self time), so its ``wall_s`` is raw.
"""

import time

_T0 = time.perf_counter()   # before anything of the program is imported

import sys  # noqa: E402

#: Loop count of the reference kernel, and its time at reference speed:
#: warm, at a quiet moment on the 2-core x86_64 box the bounds were set
#: on.  Each tick first runs WARM_LOOPS untimed, so that the kernel's
#: own cache misses after the program's work do not enter its time.
KERNEL_LOOPS = 1500
WARM_LOOPS = 200
REF_KERNEL_S = 0.22e-3
#: The set-up gauge ticks on every IMPORT_TICK-th module lookup.
IMPORT_TICK = 4
#: Run-gauge ticks, spread evenly over the simulated horizon.
RUN_TICKS = 200


def reference_kernel(loops: int = KERNEL_LOOPS) -> float:
    """Fixed pure-Python work: dict updates and float arithmetic."""
    d: dict[int, float] = {}
    x = 0.0
    for i in range(loops):
        k = i & 63
        d[k] = d.get(k, 0.0) + i * 1.0001
        x += d[k] ** 0.5
    return x


class Gauge:
    """Reference-kernel times taken inside one timed window."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0          # host time of the ticks, warm-up too

    def tick(self) -> None:
        t0 = time.perf_counter()
        reference_kernel(WARM_LOOPS)
        t1 = time.perf_counter()
        reference_kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.spent_s += t2 - t0

    def speed(self) -> float:
        """Host speed relative to the reference (above 1: faster)."""
        return REF_KERNEL_S * len(self.samples) / sum(self.samples)


class _ImportTicker:
    """A meta-path finder that finds nothing.  It ticks a gauge on every
    ``IMPORT_TICK``-th module lookup, so host speed is sampled all
    through the imports."""

    def __init__(self, gauge: Gauge) -> None:
        self.gauge = gauge
        self.lookups = 0

    def find_spec(self, name, path, target=None):
        self.lookups += 1
        if self.lookups % IMPORT_TICK == 0:
            self.gauge.tick()
        return None


_SETUP_GAUGE = Gauge()
_TICKER = _ImportTicker(_SETUP_GAUGE)
sys.meta_path.insert(0, _TICKER)
_SETUP_GAUGE.tick()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class _SetupDone(Exception):
    """Raised at the first simulated event of a ``--setup-only`` run."""


def setup_timings(end: float) -> dict:
    """Set-up time up to ``end``: raw, host speed and at reference speed."""
    raw_s = end - _T0 - _SETUP_GAUGE.spent_s
    speed = _SETUP_GAUGE.speed()
    return {"setup_raw_s": raw_s, "setup_speed": speed,
            "setup_s": raw_s * speed}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import repro  # noqa: F401  (timed: the program's import cost)
    import_s = time.perf_counter() - _T0 - _SETUP_GAUGE.spent_s

    import layers
    from workloads import BY_NAME

    from repro.sim.fleet import fallback_breakdown, fleet_stats

    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    stats0 = dict(fleet_stats)
    reasons0 = fallback_breakdown()

    _SETUP_GAUGE.tick()
    work = BY_NAME[args.workload](args.seed)
    queue = work.sim.events
    class_run_due = type(queue).run_due   # the tracer's wrapper when traced
    run_gauge = Gauge()
    step_s = work.horizon_s / RUN_TICKS
    first_event: list[float] = []
    threads = [threading.active_count()]

    def timed_run_due(now_s: float) -> int:
        # Instance hook: stamp the first simulated event, then tick the
        # run gauge at each mark of simulated time the clock passes.
        # Event times are seeded, so every repetition ticks alike.
        if not first_event:
            first_event.append(time.perf_counter())
            sys.meta_path.remove(_TICKER)
            if args.setup_only:
                raise _SetupDone
        if tracer is None and (min(int(now_s / step_s), RUN_TICKS)
                               > len(run_gauge.samples)):
            run_gauge.tick()
            threads.append(threading.active_count())
        return class_run_due(queue, now_s)

    queue.run_due = timed_run_due
    t_run = time.perf_counter()
    if args.setup_only:
        try:
            work.sim.run_until(work.horizon_s)
        except _SetupDone:
            print(json.dumps({"workload": work.name, "seed": args.seed,
                              "import_s": import_s,
                              **setup_timings(first_event[0])}))
            return 0
        raise RuntimeError("the workload ran without a simulated event")
    work.sim.run_until(work.horizon_s)
    wall_raw_s = time.perf_counter() - t_run - run_gauge.spent_s
    del queue.run_due
    if tracer is not None:
        tracer.uninstall()
    host_speed = run_gauge.speed() if run_gauge.samples else 1.0
    outcome = work.finish()

    advances = fleet_stats["advances"] - stats0["advances"]
    fallbacks = fleet_stats["fallbacks"] - stats0["fallbacks"]
    reasons = {k: v - reasons0.get(k, 0)
               for k, v in fallback_breakdown().items()
               if v - reasons0.get(k, 0)}
    result = {
        "workload": work.name,
        "seed": args.seed,
        "trace": args.trace,
        "horizon_s": work.horizon_s,
        "shape": work.shape,
        "import_s": import_s,
        **setup_timings(first_event[0] if first_event else t_run),
        "wall_raw_s": wall_raw_s,
        "host_speed": host_speed,
        "wall_s": wall_raw_s * host_speed,
        "max_threads": max(threads),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "modelled": outcome.modelled,
        "invariants": outcome.invariants,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fingerprint": outcome.fingerprint,
        "fleet": {"advances": advances, "fallbacks": fallbacks,
                  "residency": advances / (advances + fallbacks)
                  if advances + fallbacks else 1.0,
                  "fallback_breakdown": reasons},
    }
    if tracer is not None:
        per_layer = layers.layer_metrics(tracer)
        per_layer["import.repro_s"] = (import_s, "s")
        per_layer["sim.fleet.residency"] = (result["fleet"]["residency"],
                                            "ratio")
        for reason, count in reasons.items():
            per_layer[f"sim.fleet.fallbacks.{reason}"] = (float(count),
                                                          "count")
        result["layers"] = per_layer
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
