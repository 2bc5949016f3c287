"""The benchmark's three workloads, each driven through the public API.

Every workload is a closed loop in simulated time: a client issues its
next operation only after the previous one completed.  One *episode*
builds a fresh cluster (set-up), runs the timed window, then checks the
outputs.  The seed fixes every input and the simulator's own RNG, so all
episodes of one seed are identical in simulated time and produce the same
op-log digest; only host time differs between them.

The benchmark drives only the stable surface: ``ClioCluster``,
``cn(i).process(...).thread()`` with ``ralloc``/``rfree``/``rread``/
``rwrite``/``rfaa``, ``enable_verification``, ``enable_tracing``,
``metrics.snapshot()`` and ``rack.controller``/``rack.membership``.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

from hostclock import HostClock, PhaseTiming

from repro import ClioCluster, RemoteAccessError
from repro.distributed import LeaseLost
from repro.rack import RackConfig
from repro.transport import RequestFailed
from repro.verify import AtomicWordModel, check_board, check_history

KB = 1024
MB = 1024 * KB
US = 1000
VALUE_BYTES = 64

#: Typed failures an operation may end with; counted, never fatal.
OP_FAILURES = (RequestFailed, RemoteAccessError)


class OpLog:
    """The benchmark's own issue -> completion record of every operation."""

    def __init__(self):
        self.records: list[tuple] = []
        self.latencies_ns: list[int] = []
        self.read_latencies_ns: list[int] = []
        self.failed = 0

    def add(self, kind: str, key, ok: bool, start: int, end: int,
            result=None) -> None:
        self.records.append((kind, key, ok, start, end, result))
        if not ok:
            self.failed += 1
            return
        self.latencies_ns.append(end - start)
        if kind == "read":
            self.read_latencies_ns.append(end - start)

    def digest(self, end_ns: int) -> str:
        hasher = hashlib.blake2b(digest_size=16)
        for record in self.records:
            hasher.update(repr(record).encode())
        hasher.update(repr(end_ns).encode())
        return hasher.hexdigest()


def _engine_events(env) -> int:
    """Events the engine has scheduled so far (0 if it stops counting)."""
    return getattr(env, "_seq", 0)


def _numeric(snapshot: dict) -> dict:
    return {key: value for key, value in snapshot.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


@dataclass
class Episode:
    """What one episode produced: simulated results, checks, host timing."""

    workload: str
    replica: int
    attempted: int
    failed: int
    latencies_ns: list
    read_latencies_ns: list
    window_sim_ns: int
    events: int
    digest: str
    problems: list
    counters: dict
    board_counts: dict
    setup: PhaseTiming
    window: PhaseTiming
    tracer: Optional[object] = None


class Workload:
    """One workload: inputs from the seed, set-up, timed window, checks."""

    name = ""
    #: Independent episodes one seed expands into; simulated metrics pool
    #: them, so a tail percentile rests on enough samples to repeat.
    REPLICAS = 1

    def __init__(self, seed: int, replica: int, scale: float):
        self.seed = seed
        self.replica = replica
        #: Seed of the simulator's own RNG for this replica.
        self.sim_seed = seed * 1000 + replica
        self.scale = scale
        self.log = OpLog()
        self.cluster: Optional[ClioCluster] = None

    def scaled(self, count: int, minimum: int = 1) -> int:
        return max(minimum, int(count * self.scale))

    def setup(self, clock: HostClock) -> None:
        raise NotImplementedError

    def window(self, clock: HostClock) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        """Problems found after the window (empty when outputs are right)."""
        return []

    def board_counts(self) -> dict:
        """Allocator counters the metrics registry does not export."""
        underruns = 0
        for board in self.cluster.mns:
            buffer = getattr(board, "async_buffer", None)
            underruns += getattr(buffer, "underruns", 0)
            bank = getattr(board, "buffer_bank", None)
            underruns += getattr(bank, "underruns", 0) if bank else 0
        return {"buffer_underruns": underruns}

    def run(self, proc) -> None:
        self.cluster.run(until=self.cluster.env.process(proc))

    def timed(self, clock: HostClock, kind: str, key, operation):
        """Process-generator: run one operation and log it.

        Returns ``(ok, result)``; a typed failure gives ``(False, None)``.
        """
        clock.tick()
        env = self.cluster.env
        start = env.now
        try:
            result = yield from operation
        except OP_FAILURES:
            self.log.add(kind, key, False, start, env.now)
            return False, None
        self.log.add(kind, key, True, start, env.now, result)
        return True, result


class Echo(Workload):
    """1 CN, 1 board, one client with one op outstanding: 64 B reads and
    writes 50/50 at uniform offsets in a pre-faulted 4 MB region."""

    name = "echo"
    REPLICAS = 4
    REGION = 4 * MB
    OPS = 8000
    PID = 4101

    def __init__(self, seed: int, replica: int, scale: float):
        super().__init__(seed, replica, scale)
        rng = random.Random(f"echo/{seed}/{replica}")
        self.inputs = []
        for _ in range(self.scaled(self.OPS, 100)):
            offset = rng.randrange(self.REGION // VALUE_BYTES) * VALUE_BYTES
            payload = (rng.randbytes(VALUE_BYTES) if rng.random() < 0.5
                       else None)
            self.inputs.append((offset, payload))
        self.shadow = bytearray(self.REGION)
        self.mismatches = 0

    def setup(self, clock: HostClock) -> None:
        self.cluster = ClioCluster(seed=self.sim_seed)
        self.thread = self.cluster.cn(0).process("mn0", pid=self.PID).thread()
        page = self.cluster.mn.page_spec.page_size

        def prefault():
            va = yield from self.thread.ralloc(self.REGION)
            for offset in range(0, self.REGION, page):
                yield from self.thread.rwrite(va + offset, bytes(1))
            self.va = va

        self.run(prefault())

    def window(self, clock: HostClock) -> None:
        thread, shadow = self.thread, self.shadow

        def client():
            for offset, payload in self.inputs:
                va = self.va + offset
                if payload is None:
                    ok, data = yield from self.timed(
                        clock, "read", offset, thread.rread(va, VALUE_BYTES))
                    if ok and data != shadow[offset:offset + VALUE_BYTES]:
                        self.mismatches += 1
                else:
                    ok, _ = yield from self.timed(
                        clock, "write", offset, thread.rwrite(va, payload))
                    if ok:
                        shadow[offset:offset + VALUE_BYTES] = payload

        self.run(client())

    def check(self) -> list[str]:
        if self.mismatches:
            return [f"{self.mismatches} reads differ from the shadow copy"]
        return []


class Churn(Workload):
    """1 CN, 1 board with its page table pre-loaded into the Fig 13 retry
    regime; four processes alloc/free 1- and 8-page objects with short and
    long lifetimes, write every new page and spot-read them back."""

    name = "churn"
    REPLICAS = 32
    PAGE = 64 * KB
    CAPACITY = 48 * MB
    #: Page-table entries pinned before the window, as a share of physical
    #: pages: Fig 13's ">90%" bucket, where VA allocation retries.
    PRELOAD = 0.95
    ALLOCS = 300
    PROCESSES = 4
    LARGE_PAGES = 8
    LARGE_SHARE = 0.5
    LONG_SHARE = 0.25
    SHORT_LIFE = (1, 8)
    LONG_LIFE = (40, 120)
    READBACK_SHARE = 1 / 3
    BALLAST_PAGES = 8
    BALLAST_PID = 4201
    PID_BASE = 4211

    def __init__(self, seed: int, replica: int, scale: float):
        super().__init__(seed, replica, scale)
        rng = random.Random(f"churn/{seed}/{replica}")
        self.inputs = []
        for step in range(self.scaled(self.ALLOCS, 40)):
            pages = (self.LARGE_PAGES if rng.random() < self.LARGE_SHARE
                     else 1)
            life = rng.randint(*(self.LONG_LIFE
                                 if rng.random() < self.LONG_SHARE
                                 else self.SHORT_LIFE))
            self.inputs.append((rng.randrange(self.PROCESSES), pages, life,
                                rng.random() < self.READBACK_SHARE,
                                rng.randbytes(VALUE_BYTES)))
        self.readback_errors = 0
        self.leaked = 0

    def _free_pages(self) -> int:
        return self.cluster.metrics.snapshot()["cboard.mn0.alloc.free_pages"]

    def setup(self, clock: HostClock) -> None:
        self.cluster = ClioCluster(seed=self.sim_seed,
                                   mn_capacity=self.CAPACITY,
                                   page_size=self.PAGE)
        node = self.cluster.cn(0)
        self.threads = [node.process("mn0", pid=self.PID_BASE + i).thread()
                        for i in range(self.PROCESSES)]
        ballast = node.process("mn0", pid=self.BALLAST_PID).thread()
        target = int(self.PRELOAD * self.CAPACITY // self.PAGE)

        def preload():
            # Ballast is never touched: it fills page-table buckets
            # without using physical pages.
            for _ in range(-(-target // self.BALLAST_PAGES)):
                clock.tick()
                yield from ballast.ralloc(self.BALLAST_PAGES * self.PAGE)

        self.run(preload())
        snapshot = self.cluster.metrics.snapshot()
        entries = snapshot["cboard.mn0.page_table.entries"]
        if entries < target:
            raise RuntimeError(f"pre-load reached {entries} of {target} "
                               "page-table entries")
        self.free_pages_before = self._free_pages()

    def window(self, clock: HostClock) -> None:
        threads = self.threads
        live: list[tuple[int, int, int]] = []   # (expiry step, process, va)

        def free(owner: int, va: int):
            ok, _ = yield from self.timed(clock, "free", va,
                                          threads[owner].rfree(va))
            if not ok:
                self.leaked += 1

        def storm():
            for step, (owner, pages, life, readback, payload) in enumerate(
                    self.inputs):
                for entry in [entry for entry in live if entry[0] <= step]:
                    live.remove(entry)
                    yield from free(entry[1], entry[2])
                thread = threads[owner]
                ok, va = yield from self.timed(
                    clock, "alloc", step, thread.ralloc(pages * self.PAGE))
                if not ok:
                    continue
                for page in range(pages):
                    yield from self.timed(
                        clock, "write", (step, page),
                        thread.rwrite(va + page * self.PAGE, payload))
                if readback:
                    ok, data = yield from self.timed(
                        clock, "read", step, thread.rread(va, VALUE_BYTES))
                    if ok and data != payload:
                        self.readback_errors += 1
                live.append((step + 1 + life, owner, va))
            for entry in sorted(live):
                yield from free(entry[1], entry[2])

        self.run(storm())

    def check(self) -> list[str]:
        problems = []
        if self.readback_errors:
            problems.append(f"{self.readback_errors} read-backs differ")
        # Let the async buffer refill completely (one page per PA
        # allocation time) before counting free pages.
        board = self.cluster.params.cboard
        self.cluster.run(until=self.cluster.env.now + board.arm_pa_alloc_ns
                         * (board.async_buffer_depth + 1))
        problems += [violation.describe()
                     for violation in check_board(self.cluster.mn)]
        free_after = self._free_pages()
        if not self.leaked and free_after != self.free_pages_before:
            problems.append(f"free pages not conserved: "
                            f"{self.free_pages_before} -> {free_after}")
        return problems


class RackYCSB(Workload):
    """8 boards under 2 ToRs and a spine, 4 CNs, a few hundred clients:
    Zipf-hot 64 B gets/sets (50% sets) while one board drains by live
    migration, with the shadow oracle and the linearizer on."""

    name = "rack_ycsb"
    REPLICAS = 12
    BOARDS = 8
    TORS = 2
    CNS = 4
    CLIENTS = 256
    OPS_PER_CLIENT = 12
    REGIONS = 16
    REGION = 64 * KB
    THETA = 0.99
    SET_SHARE = 0.5
    #: Every client bumps the shared atomic word after this many data ops.
    FAA_EVERY = 8
    #: Client start times spread evenly over this window (plus jitter).
    RAMP_NS = 50 * US
    #: Closed-loop think time between a client's operations.
    THINK_NS = (2 * US, 10 * US)
    ATTEMPTS = 8
    DRAIN = "mn1"          # never mn0, which holds the linearizer word
    DATA_PID = 4301
    SYNC_PID = 4302
    GUARD_NS = 1_000_000_000

    def __init__(self, seed: int, replica: int, scale: float):
        super().__init__(seed, replica, scale)
        rng = random.Random(f"rack_ycsb/{seed}/{replica}")
        weights = itertools.accumulate(1.0 / (rank + 1) ** self.THETA
                                       for rank in range(self.REGIONS))
        cumulative = list(weights)
        slots = self.REGION // VALUE_BYTES
        self.clients = []
        count = self.scaled(self.CLIENTS, 16)
        spacing = self.RAMP_NS // count
        for index in range(count):
            ops = []
            for _ in range(self.OPS_PER_CLIENT):
                region = bisect.bisect(cumulative,
                                       rng.random() * cumulative[-1])
                payload = (rng.randbytes(VALUE_BYTES)
                           if rng.random() < self.SET_SHARE else None)
                ops.append((min(region, self.REGIONS - 1),
                            rng.randrange(slots), payload,
                            rng.randrange(*self.THINK_NS)))
            self.clients.append((index * spacing + rng.randrange(spacing),
                                 ops))
        self.total_ops = sum(len(ops) for _, ops in self.clients)
        self.drain = None

    def setup(self, clock: HostClock) -> None:
        config = RackConfig(boards=self.BOARDS, tors=self.TORS)
        self.cluster = cluster = ClioCluster(
            seed=self.sim_seed, num_cns=self.CNS, rack=config,
            page_size=self.REGION,
            mn_capacity=2 * self.REGIONS * self.REGION + 4 * MB)
        cluster.rack.start()
        self.verifier = cluster.enable_verification()
        controller = cluster.rack.controller
        controller.verifier = self.verifier
        self.data_threads = [
            {board.name: cluster.cn(i).process(board.name,
                                               pid=self.DATA_PID).thread()
             for board in cluster.mns}
            for i in range(self.CNS)]
        self.sync_threads = [
            cluster.cn(i).process("mn0", pid=self.SYNC_PID).thread()
            for i in range(self.CNS)]

        def place():
            self.region_ids = []
            for _ in range(self.REGIONS):
                clock.tick()
                lease = yield from controller.allocate(self.DATA_PID,
                                                       self.REGION)
                # Controller allocations bypass CLib, so the oracle learns
                # of the fresh (zeroed) region here.
                self.verifier.oracle.region_cleared(
                    lease.mn, self.DATA_PID, lease.va, lease.size)
                self.region_ids.append(lease.region_id)
            self.word = yield from self.sync_threads[0].ralloc(4 * KB)

        self.run(place())

    def window(self, clock: HostClock) -> None:
        cluster, log = self.cluster, self.log
        env = cluster.env
        controller = cluster.rack.controller
        membership = cluster.rack.membership
        completed = [0]
        drain_at = self.total_ops // 3

        def drain():
            yield from membership.drain_board(self.DRAIN)

        def data_op(cn: int, region_index: int, slot: int, payload):
            region_id = self.region_ids[region_index]
            for attempt in range(self.ATTEMPTS):
                try:
                    lease = controller.lookup(region_id)
                except LeaseLost:
                    yield env.timeout(30 * US + attempt * 20 * US)
                    continue
                thread = self.data_threads[cn][lease.mn]
                va = lease.va + slot * VALUE_BYTES
                try:
                    if payload is None:
                        yield from thread.rread(va, VALUE_BYTES)
                    else:
                        yield from thread.rwrite(va, payload)
                    return True
                except OP_FAILURES:
                    # Stale lease or write fence mid-migration: refresh.
                    yield env.timeout(10 * US + attempt * 10 * US)
            return False

        def client(index: int, delay: int, ops: list):
            cn = index % self.CNS
            yield env.timeout(delay)
            for serial, (region, slot, payload, think) in enumerate(ops):
                clock.tick()
                start = env.now
                ok = yield from data_op(cn, region, slot, payload)
                log.add("read" if payload is None else "write",
                        (index, serial), ok, start, env.now)
                completed[0] += 1
                if completed[0] == drain_at:
                    self.drain = env.process(drain())
                if serial % self.FAA_EVERY == self.FAA_EVERY - 1:
                    yield from self.timed(
                        clock, "faa", (index, serial),
                        self.sync_threads[cn].rfaa(self.word, 1))
                yield env.timeout(think)

        processes = [env.process(client(index, delay, ops))
                     for index, (delay, ops) in enumerate(self.clients)]
        everyone = env.all_of(processes)
        # The window ends when every client finishes; the guard only
        # bounds a hang, and check() reports it.
        cluster.run(until=env.any_of([everyone, env.timeout(self.GUARD_NS)]))
        self.finished = everyone.triggered

    def check(self) -> list[str]:
        problems = []
        if not self.finished:
            problems.append("clients still running at the guard deadline")
        env = self.cluster.env
        if self.drain is not None and not self.drain.triggered:
            # A short window can end mid-drain; let the drain finish.
            self.cluster.run(until=env.any_of([self.drain,
                                               env.timeout(self.GUARD_NS)]))
        if self.drain is None or not self.drain.triggered:
            problems.append(f"drain of {self.DRAIN} did not complete")
        history = self.verifier.atomic_histories.get(
            ("mn0", self.SYNC_PID, self.word), [])
        if not history:
            problems.append("empty linearizability history")
        elif not check_history(history, AtomicWordModel):
            problems.append("atomic-word history is not linearizable")
        self.verifier.sweep()
        problems += [violation.describe()
                     for violation in self.verifier.violations]
        return problems


WORKLOADS = {cls.name: cls for cls in (Echo, Churn, RackYCSB)}


def run_episode(name: str, seed: int, replica: int = 0, scale: float = 1.0,
                traced: bool = False, profiler=None) -> Episode:
    """Build, run and check one episode of workload ``name``.

    ``traced`` turns on span tracing for the window; ``profiler`` (a
    ``cProfile.Profile``) is enabled around the window only.  Neither
    changes anything simulated.
    """
    workload = WORKLOADS[name](seed, replica, scale)
    setup_clock = HostClock()
    setup_clock.begin()
    workload.setup(setup_clock)
    setup = setup_clock.end()

    cluster = workload.cluster
    if traced:
        cluster.enable_tracing()
    env = cluster.env
    before = _numeric(cluster.metrics.snapshot())
    events_before = _engine_events(env)
    counts_before = workload.board_counts()
    start_ns = env.now
    window_clock = HostClock(interleave=profiler is None)
    window_clock.begin()
    if profiler is not None:
        profiler.enable()
    workload.window(window_clock)
    if profiler is not None:
        profiler.disable()
    window = window_clock.end()
    end_ns = env.now
    events = _engine_events(env) - events_before
    after = _numeric(cluster.metrics.snapshot())
    counters = {key: after[key] - before.get(key, 0) for key in after}
    board_counts = {key: value - counts_before[key]
                    for key, value in workload.board_counts().items()}

    problems = workload.check()
    log = workload.log
    return Episode(
        workload=name, replica=replica, attempted=len(log.records),
        failed=log.failed,
        latencies_ns=log.latencies_ns,
        read_latencies_ns=log.read_latencies_ns,
        window_sim_ns=end_ns - start_ns, events=events,
        digest=log.digest(end_ns), problems=problems, counters=counters,
        board_counts=board_counts, setup=setup, window=window,
        tracer=cluster.tracer)
