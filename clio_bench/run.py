"""Run one benchmark workload of the Clio simulator and print its metrics.

    python3 clio_bench/run.py --workload echo --seed 1 --seconds 20 --trace 0

Runs in one process with no threads or forks.  A seed expands into the
workload's ``REPLICAS`` independent episodes (each its own cluster and
inputs); simulated metrics pool one pass over them.  After one discarded
warm-up episode the run cycles through the replicas for ``--seconds`` of
wall time, at least one full pass, timing each episode in calibrated CPU
time (see ``hostclock.py``).  With ``--trace 1`` it then runs one more
episode with ``cProfile`` and span tracing on and reports per-layer
metrics instead of end-to-end ones.  Provenance lines start with ``#``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed; it is 2, with no JSON line, when the simulator cannot be imported.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_DIR = BENCH_DIR.parent
SRC_DIR = REPO_DIR / "src"

#: Paper's unloaded 64 B read latency (ASPLOS'22 section 7.1): median, p99.
PAPER_READ_P50_NS = 2500
PAPER_READ_P99_NS = 3200


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile of ``values``.

    A weighted mean of all order statistics, with Beta(p(n+1), (1-p)(n+1))
    weights (here its normal approximation).  Simulated latencies are
    integer ns that pile up on a few values, so a single order statistic
    jumps between them from seed to seed; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    p = q / 100
    scale = math.sqrt(2 * p * (1 - p) / (n + 2))

    def cdf(x: float) -> float:
        return 0.5 * (1 + math.erf((x - p) / scale))

    low = max(0, int((p - 6 * scale) * n))
    high = min(n, int((p + 6 * scale) * n) + 1)
    total = weights = 0.0
    below = cdf(low / n)
    for index in range(low, high):
        above = cdf((index + 1) / n)
        total += (above - below) * ordered[index]
        weights += above - below
        below = above
    return total / weights


def quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return f"q1 {low:.6g}  median {mid:.6g}  q3 {high:.6g}"


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, or raise ImportError."""
    sys.path.insert(0, str(SRC_DIR))
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise ImportError(f"repro imported from {origin}, not {SRC_DIR}")
    return repro


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = REPO_DIR / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = REPO_DIR / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        packed = (REPO_DIR / ".git" / "packed-refs").read_text()
        for line in packed.splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def source_digest() -> str:
    hasher = hashlib.blake2b(digest_size=8)
    for path in sorted((SRC_DIR / "repro").rglob("*.py")):
        hasher.update(path.relative_to(SRC_DIR).as_posix().encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def simulated_metrics(replicas) -> dict:
    """End-to-end metrics of simulated time, pooled over one pass of replicas.

    Simulated time is deterministic, so these are the same for every pass.
    """
    latencies = [value for e in replicas for value in e.latencies_ns]
    reads = [value for e in replicas for value in e.read_latencies_ns]
    sim_ms = sum(e.window_sim_ns for e in replicas) / 1e6
    read_p50 = quantile(reads, 50)
    read_p99 = quantile(reads, 99)
    return {
        "ops_per_sim_ms": (len(latencies) / sim_ms, "1/ms"),
        "sim_p50_us": (quantile(latencies, 50) / 1000, "us"),
        "sim_p99_us": (quantile(latencies, 99) / 1000, "us"),
        "read_p50_err_pct": (100 * abs(read_p50 - PAPER_READ_P50_NS)
                             / PAPER_READ_P50_NS, "%"),
        "read_p99_err_pct": (100 * abs(read_p99 - PAPER_READ_P99_NS)
                             / PAPER_READ_P99_NS, "%"),
    }


def digest_of(replicas) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for episode in replicas:
        hasher.update(episode.digest.encode())
    return hasher.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's op count (tests)")
    args = parser.parse_args(argv)

    try:
        import_repro()
    except ImportError as error:
        print(f"error: cannot import the simulator from {SRC_DIR}: {error}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import episodes
    import hostclock
    import layers

    workload = episodes.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {sorted(episodes.WORKLOADS)})", file=sys.stderr)
        return 2

    def episode(replica: int, **kwargs):
        gc.collect()
        return episodes.run_episode(args.workload, args.seed, replica,
                                    scale=args.scale, **kwargs)

    print(f"# workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  scale {args.scale:g}")
    print(f"# git {git_sha()}  src {source_digest()}  python "
          f"{platform.python_version()}  nproc {os.cpu_count()}")

    warmup = episode(0)                              # discarded
    deadline = time.monotonic() + args.seconds
    measured = []
    while len(measured) < workload.REPLICAS or time.monotonic() < deadline:
        measured.append(episode(len(measured) % workload.REPLICAS))
    first_pass = measured[:workload.REPLICAS]

    problems = []
    for each in [warmup] + measured:
        problems.extend(p for p in each.problems if p not in problems)
    digests = {0: warmup.digest}
    for each in measured:
        if digests.setdefault(each.replica, each.digest) != each.digest:
            problems.append(f"replica {each.replica}: op-log digest differs "
                            "between episodes")

    # Replicas differ in work, and the last pass is partial: take each
    # replica's median first, so every replica weighs the same, then the
    # median over replicas, so one disturbed episode moves nothing.
    by_replica = {}
    for each in measured:
        by_replica.setdefault(each.replica, []).append(each)
    ops_per_host_s = statistics.median(
        runs[0].attempted
        / statistics.median(e.window.calibrated_s for e in runs)
        for runs in by_replica.values())
    setup_s = statistics.median(
        statistics.median(e.setup.calibrated_s for e in runs)
        for runs in by_replica.values())
    slices = [s for e in measured for s in e.window.slices_s]
    print(f"# episodes {len(measured)} over {workload.REPLICAS} replicas  "
          f"ops/pass {sum(e.attempted for e in first_pass)}  "
          f"failed/pass {sum(e.failed for e in first_pass)}  "
          f"digest {digest_of(first_pass)}")
    throughput = [e.attempted / e.window.calibrated_s for e in measured]
    print(f"# per episode: ops_per_host_s {quartiles(throughput)}")
    for name, phase in (("window_s", "window"), ("setup_s", "setup")):
        timings = [getattr(e, phase) for e in measured]
        print(f"# per episode: {name} raw "
              f"{quartiles([t.raw_s for t in timings])}  calibrated "
              f"{quartiles([t.calibrated_s for t in timings])}")
    print(f"# speed factor {quartiles([e.window.speed for e in measured])}  "
          f"applied with exponent {hostclock.SENSITIVITY}  (reference "
          f"slice raw {quartiles(slices)} s, nominal "
          f"{hostclock.NOMINAL_SLICE_S} s)")

    if args.trace:
        profile = cProfile.Profile()
        traced = episode(0, traced=True, profiler=profile)
        if traced.digest != warmup.digest:
            problems.append("the traced episode's op-log digest differs")
        if simulated_metrics([traced]) != simulated_metrics([warmup]):
            problems.append("tracing changed a simulated metric")
        untraced_raw = statistics.median(
            e.window.raw_s for e in measured if e.replica == 0)
        print(f"# traced window raw {traced.window.raw_s:.6g} s vs untraced "
              f"median {untraced_raw:.6g} s (replica 0)")
        host_ns_per_event = statistics.median(
            1e9 * e.window.calibrated_s / max(e.events, 1) for e in measured)
        metrics = layers.layer_metrics(traced, profile, host_ns_per_event,
                                       traced.window.raw_s / untraced_raw)
    else:
        metrics = {
            "ops_per_host_s": (ops_per_host_s, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
            **simulated_metrics(first_pass),
        }

    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(e.attempted for e in measured),
        "failed": sum(e.failed for e in measured),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
