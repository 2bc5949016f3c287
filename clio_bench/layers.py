"""Per-layer numbers from one traced episode.

Host self time and call counts come from ``cProfile`` and are mapped to
layers by source file.  A function outside ``repro`` (a builtin, or
stdlib Python) is charged to the layers of the functions that called it,
in proportion to the time each caller spent in it.  Simulated time per
layer comes from the span records of ``cluster.enable_tracing()``; the
remaining counts come from ``cluster.metrics.snapshot()`` deltas over the
timed window.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict

#: Layer of a ``repro`` source file, by path below ``repro/``; the first
#: matching prefix wins, so the alloc files are listed before ``core/``.
LAYER_PREFIXES = (
    ("sim/", "sim"),
    ("net/", "net"),
    ("transport/", "transport"),
    ("clib/", "clib"),
    ("core/slowpath.py", "alloc"),
    ("core/pa_allocator.py", "alloc"),
    ("core/va_allocator.py", "alloc"),
    ("alloc/", "alloc"),
    ("core/", "core"),
    ("rack/", "rack"),
    ("distributed/", "rack"),
    ("verify/", "verify"),
    ("telemetry/", "telemetry"),
)
LAYERS = ("sim", "net", "transport", "clib", "core", "alloc", "rack",
          "verify", "telemetry")
#: Code of ``repro`` that no layer claims (cluster assembly, params, ...).
UNMAPPED = "repro-other"
#: Everything outside ``repro``: the benchmark's own driver code.
OUTSIDE = "outside"

_MARKER = os.sep + "repro" + os.sep


def file_layer(path: str) -> str | None:
    """Layer of a source file; ``None`` when it is not part of ``repro``."""
    index = path.rfind(_MARKER)
    if index < 0:
        return None
    relative = path[index + len(_MARKER):].replace(os.sep, "/")
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return UNMAPPED


def attribute(profile) -> tuple[dict, dict]:
    """(self seconds, calls) per layer from a finished ``cProfile.Profile``.

    A function outside ``repro`` is split over its callers' layers: its
    time by the time each caller spent in it, its calls by each caller's
    call count, so call totals repeat exactly from run to run.
    """
    stats = pstats.Stats(profile).stats
    # callers[caller] = (calls, primitive calls, self time, cumulative time)
    TIME, CALLS = 2, 0

    def owner(func, weight: int, memo: dict, visiting=frozenset()) -> dict:
        """Share of each layer in ``func``, weighted by ``weight``."""
        if func in memo:
            return memo[func]
        layer = file_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        shares: dict = defaultdict(float)
        for caller, entry in stats[func][4].items():
            if caller in visiting or caller not in stats:
                continue
            for name, share in owner(caller, weight, memo,
                                     visiting | {func}).items():
                shares[name] += share * entry[weight]
        total = sum(shares.values())
        result = ({name: value / total for name, value in shares.items()}
                  if total > 0 else {OUTSIDE: 1.0})
        if not visiting:
            memo[func] = result
        return result

    self_s: dict = defaultdict(float)
    calls: dict = defaultdict(float)
    for target, weight in ((self_s, TIME), (calls, CALLS)):
        memo: dict = {}
        for func, (_, ncalls, tottime, _, _) in stats.items():
            amount = tottime if weight == TIME else ncalls
            for name, share in owner(func, weight, memo).items():
                target[name] += share * amount
    return dict(self_s), dict(calls)


def _span_total(tracer, prefix: str) -> int:
    return sum(span.end_ns - span.start_ns
               for span in tracer.find_spans(prefix)
               if span.end_ns is not None)


def _sum(counters: dict, prefix: str, suffix: str) -> float:
    return sum(value for key, value in counters.items()
               if key.startswith(prefix) and key.endswith(suffix))


def layer_metrics(episode, profile, host_ns_per_event: float,
                  overhead_x: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.

    ``episode`` is the traced episode and ``profile`` its window's
    profile; ``host_ns_per_event`` and ``overhead_x`` (traced over
    untraced window time) come from the untraced episodes of the run.
    """
    ops = episode.attempted
    self_s, calls = attribute(profile)
    total_self = sum(self_s.values()) or 1.0
    out: dict = {}
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = (100.0 * self_s.get(layer, 0.0)
                                    / total_self, "%")
        out[f"{layer}.calls_per_op"] = (calls.get(layer, 0.0) / ops,
                                        "count")

    counters = episode.counters
    events = episode.events
    out["sim.events_per_op"] = (events / ops, "count")
    out["sim.host_ns_per_event"] = (host_ns_per_event, "ns")

    packets = (_sum(counters, "link.cn", ".packets_sent")
               + _sum(counters, "link.mn", ".packets_sent"))
    out["net.packets_per_op"] = (packets / ops, "count")
    # Star switches register as "switch.*", rack ToRs/spine as "rack.*".
    out["net.switch_forwards_per_op"] = (
        _sum(counters, "", ".packets_forwarded") / ops, "count")
    out["net.drops"] = (_sum(counters, "link.", ".packets_dropped")
                        + _sum(counters, "link.", ".packets_dropped_down"),
                        "count")

    out["transport.retries_per_op"] = (
        _sum(counters, "transport.", ".total_retries") / ops, "count")
    out["transport.failed"] = (
        _sum(counters, "transport.", ".requests_failed"), "count")

    hits = _sum(counters, "cboard.", ".tlb.hits")
    misses = _sum(counters, "cboard.", ".tlb.misses")
    out["core.tlb_hit_rate"] = (hits / (hits + misses) if hits + misses
                                else 0.0, "ratio")
    out["core.faults_per_op"] = (_sum(counters, "cboard.", ".faults") / ops,
                                 "count")

    allocs = _sum(counters, "cboard.", ".slowpath.allocs")
    out["alloc.va_retries_per_alloc"] = (
        _sum(counters, "cboard.", ".alloc.va_retries") / allocs
        if allocs else 0.0, "count")
    out["alloc.crossings_per_op"] = (
        _sum(counters, "cboard.", ".alloc.slow_crossings") / ops, "count")
    out["alloc.buffer_underruns"] = (
        episode.board_counts["buffer_underruns"], "count")
    out["alloc.stalled_requests"] = (
        _sum(counters, "cboard.", ".slowpath.stalled_requests"), "count")

    out["rack.migrations"] = (counters.get("rack.migrations", 0), "count")
    out["verify.violations"] = (len(episode.problems), "count")

    tracer = episode.tracer
    request_ns = _span_total(tracer, "request:")
    board_ns = _span_total(tracer, "mn:")
    slow_ns = _span_total(tracer, "slowpath:")
    out["net.sim_ns_per_op"] = ((request_ns - board_ns) / ops, "ns")
    out["core.sim_ns_per_op"] = ((board_ns - slow_ns) / ops, "ns")
    out["alloc.sim_ns_per_op"] = (slow_ns / ops, "ns")

    out["trace.overhead_x"] = (overhead_x, "x")
    return out


def unmapped_share(profile) -> float:
    """Share of ``repro`` self time that no named layer claims."""
    self_s, _ = attribute(profile)
    inside = sum(value for name, value in self_s.items() if name != OUTSIDE)
    return self_s.get(UNMAPPED, 0.0) / inside if inside else 0.0
