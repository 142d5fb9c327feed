"""The fleet_mixed workload: a 2-shard `bdc cluster` in the run's work
area, driven over HTTP by one closed-loop caller on one keep-alive
connection that mixes warm reads and first-time misses."""

import http.client
import json
import os
import random
import subprocess
import time
from statistics import median

from common import IntegrityError, Tally, free_ports, fresh_dir, kill_group, proc_cpu_s, proc_hwm_mb
from inputs import READ_SET, MissDraw

SHARDS = 2
SETUP_REPEATS = 3
# One op: READS_PER_OP warm reads and the op's 16 first-time misses in a
# seeded order, each request sent when the reply to the previous one is
# in. Ops start OP_S apart.
READS_PER_OP = 300
OP_S = 2.0
COMPUTE_ENDPOINTS = ("library", "synth", "depth", "width", "ipc")

# Every live fleet, so an exit on any path can still tear it down.
LIVE = []


class Conn:
    """One keep-alive HTTP connection; reconnects after a transport error."""

    def __init__(self, port):
        self.port = port
        self.c = None

    def get(self, path):
        """(status, body, shard header); status 0 on a transport error."""
        for attempt in (0, 1):
            try:
                if self.c is None:
                    self.c = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
                self.c.request("GET", path)
                r = self.c.getresponse()
                body = r.read()
                return r.status, body, r.getheader("x-bdc-shard")
            except (OSError, http.client.HTTPException):
                if self.c is not None:
                    self.c.close()
                self.c = None
                if attempt:
                    return 0, b"", None

    def close(self):
        if self.c is not None:
            self.c.close()
            self.c = None


class Fleet:
    """A `bdc cluster --shards 2` on free loopback ports, with its cache
    root, pid file and logs under one directory of the work area.

    While it runs, the fleet and the benchmark process share one vCPU. The
    benchmark is one closed-loop caller, so the fleet serves one request at
    a time; on two vCPUs each hop between caller, router and shard also
    pays a cross-CPU wakeup, whose cost swings with the hypervisor's load
    (see README.md)."""

    def __init__(self, ctx, name):
        self.ctx = ctx
        self.dir = fresh_dir(os.path.join(ctx.work, name))
        self.proc = None
        self.shard_pids = []
        self.shard_ports = []
        self.saved_cpus = None

    def start(self):
        router, *shards = free_ports(SHARDS + 1)
        self.router_port, self.shard_ports = router, shards
        env = {k: v for k, v in os.environ.items() if not k.startswith("BDC_")}
        env["BDC_WORKERS"] = "1"  # one pool worker per shard
        # The cluster and the shards it spawns inherit this process's CPU.
        self.saved_cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self.saved_cpus)})
        argv = [
            self.ctx.bin("bdc"), "cluster", "--shards", str(SHARDS),
            "--addr", f"127.0.0.1:{router}", "--base-port", str(shards[0]),
            "--cache-root", os.path.join(self.dir, "cache"),
            "--pid-file", os.path.join(self.dir, "pids.json"),
            "--serve-bin", self.ctx.bin("bdc_serve"),
        ]
        with open(os.path.join(self.dir, "cluster.log"), "wb") as log:
            self.proc = subprocess.Popen(
                argv, cwd=self.dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        LIVE.append(self)
        self.router = Conn(router)
        deadline = time.perf_counter() + 30
        while True:
            if self.proc.poll() is not None:
                raise IntegrityError(f"bdc cluster exited with {self.proc.returncode}")
            status, body, _ = self.router.get("/healthz")
            if status == 200 and body.count(b'"ok"') >= SHARDS:
                break
            if time.perf_counter() > deadline:
                raise IntegrityError(f"fleet not healthy after 30s: {body[:200]!r}")
            time.sleep(0.02)
        with open(os.path.join(self.dir, "pids.json")) as f:
            self.shard_pids = [w["pid"] for w in json.load(f)["workers"]]

    def warm_and_prime(self, tally):
        """Builds both kits on every shard, then primes the read set
        through the router. Returns {read path: owning shard}."""
        refs = self.ctx.ref["fleet"]
        for port in self.shard_ports:
            c = Conn(port)
            for p in ("organic", "silicon"):
                path = f"/v1/library?process={p}"
                status, body, _ = c.get(path)
                tally.check(f"warm {path}", body, refs.get(path), status == 200)
            c.close()
        owners = {}
        for path in READ_SET:
            status, body, shard = self.router.get(path)
            tally.check(f"prime {path}", body, refs.get(path), status == 200)
            owners[path] = int(shard) if shard is not None else 0
        return owners

    def metrics(self):
        status, body, _ = self.router.get("/v1/metrics")
        if status != 200:
            raise IntegrityError(f"router /v1/metrics answered {status}")
        return json.loads(body)

    def pids(self):
        return [self.proc.pid] + self.shard_pids

    def cpu_s(self):
        return sum(proc_cpu_s(p) for p in self.pids())

    def peak_rss_mb(self):
        return sum(proc_hwm_mb(p) for p in self.pids())

    def stop(self):
        """SIGTERM drain, then SIGKILL; waits until every shard is gone."""
        if self in LIVE:
            LIVE.remove(self)
        if self.saved_cpus is not None:
            os.sched_setaffinity(0, self.saved_cpus)
            self.saved_cpus = None
        if hasattr(self, "router"):
            self.router.close()
        if self.proc is not None:
            kill_group(self.proc, grace_s=10)
        deadline = time.time() + 10
        for pid in self.shard_pids:
            while os.path.exists(f"/proc/{pid}") and time.time() < deadline:
                try:
                    os.kill(pid, 9)
                except ProcessLookupError:
                    break
                time.sleep(0.02)


def stop_all():
    for fleet in list(LIVE):
        fleet.stop()


def engine_totals(m):
    """Summed (response-cache hits, computed jobs, compute requests) over
    the shards of a router /v1/metrics snapshot."""
    hits = jobs = requests = 0
    for shard in m["shards"]:
        sm = shard["metrics"]
        hits += sm["engine"]["cache_hits"]
        jobs += sm["engine"]["batched_jobs"]
        requests += sum(sm["endpoints"][e]["requests"] for e in COMPUTE_ENDPOINTS)
    return hits, jobs, requests


def boot(ctx, name, tally):
    """Boots, warms and primes one fleet; checks that a second pass over
    the read set is served entirely from the response cache."""
    fleet = Fleet(ctx, name)
    t0 = time.perf_counter()
    fleet.start()
    owners = fleet.warm_and_prime(tally)
    setup_s = time.perf_counter() - t0
    before = engine_totals(fleet.metrics())[0]
    for path in READ_SET:
        fleet.router.get(path)
    hits = engine_totals(fleet.metrics())[0] - before
    if hits != len(READ_SET):
        raise IntegrityError(f"read set not primed: {hits}/{len(READ_SET)} response-cache hits")
    return fleet, owners, setup_s


def caller(conn, paths, results):
    """Sends `paths` closed-loop on `conn`; appends (path, ms, status,
    body) per request."""
    for path in paths:
        t0 = time.perf_counter()
        status, body, _ = conn.get(path)
        results.append((path, (time.perf_counter() - t0) * 1e3, status, body))


def fleet_mixed(ctx, seconds, seed):
    tally = Tally()
    setup = []
    fleet = None
    for i in range(SETUP_REPEATS):
        if fleet is not None:
            fleet.stop()
        fleet, _, s = boot(ctx, f"fleet-{i}", tally)
        setup.append(s)

    n_ops = max(1, round(seconds / OP_S))
    rng = random.Random(f"reads-{seed}")
    draw = MissDraw(seed)
    if n_ops > draw.capacity():
        raise IntegrityError(f"miss lattice holds only {draw.capacity()} ops")
    refs = ctx.ref["fleet"]
    before = fleet.metrics()
    conn = Conn(fleet.router_port)
    cpu0 = fleet.cpu_s()
    t0 = time.perf_counter()
    results, op_s = [], []
    for op in range(n_ops + 1):
        delay = t0 + op * OP_S - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if op == n_ops:
            break
        paths = [rng.choice(READ_SET) for _ in range(READS_PER_OP)] + draw.op()
        rng.shuffle(paths)
        start = time.perf_counter()
        caller(conn, paths, results)
        op_s.append(time.perf_counter() - start)
    # /proc CPU counters tick at 10 ms, too coarse for one op, so CPU is
    # taken over all the ops' OP_S slots and divided by the op count.
    cpu_per_op = (fleet.cpu_s() - cpu0) / n_ops
    conn.close()
    after = fleet.metrics()
    rss = fleet.peak_rss_mb()

    read_ms, miss_ms, by_endpoint = [], [], {}
    for path, ms, status, body in results:
        tally.check(path, body, refs.get(path), status == 200)
        if path in READ_SET:
            read_ms.append(ms)
        else:
            miss_ms.append(ms)
            by_endpoint.setdefault(path.split("?")[0], []).append(ms)

    hits0, jobs0, _ = engine_totals(before)
    hits1, jobs1, _ = engine_totals(after)
    if hits1 - hits0 != len(read_ms):
        raise IntegrityError(
            f"{hits1 - hits0} response-cache hits for {len(read_ms)} warm reads: "
            "a read was recomputed or a miss was served from cache"
        )
    if jobs1 - jobs0 != len(miss_ms):
        raise IntegrityError(f"{jobs1 - jobs0} computed jobs for {len(miss_ms)} first-time misses")
    ctx.log("miss p50 by endpoint: " + ", ".join(
        f"{e} {median(v):.1f} ms" for e, v in sorted(by_endpoint.items())))
    ctx.log(
        f"fleet_mixed: {len(read_ms)} reads, {len(miss_ms)} misses over {n_ops} ops; "
        f"op wall {min(op_s):.3f}-{max(op_s):.3f}s; failovers {after['router']['failovers']}"
    )
    fleet.stop()

    miss_p50_ms = median(miss_ms)
    metrics = {
        "setup_s": (median(setup), "s"),
        "ok_frac": (tally.frac(), "fraction"),
        "peak_rss_mb": (rss, "MB"),
        "op_p50_s": (median(op_s), "s"),
        "cpu_s": (cpu_per_op, "CPU-s"),
        # Each miss is a new design point, as each V_T value is in vt_sweep.
        "point_s": (miss_p50_ms / 1e3, "s"),
        "read_p50_ms": (median(read_ms), "ms"),
        "miss_p50_ms": (miss_p50_ms, "ms"),
    }
    return metrics, tally
