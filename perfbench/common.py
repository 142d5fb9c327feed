"""Shared helpers for the perfbench benchmark: the checked-output tally, child
processes with resource accounting, digests, ports and /proc readings."""

import collections
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import threading
import time

# One process with at most 2 threads or connections of load; the flow's
# own pool gets the same two workers.
WORKERS = "2"


class IntegrityError(Exception):
    """A workload did not do the work it claims to measure; the run fails
    instead of reporting a number."""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


class Tally:
    """Counts checked outputs: an item is ok only if it succeeded and its
    bytes match the reference digest for its input."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.mismatches = []

    def check(self, label, data, expected, succeeded=True):
        self.attempted += 1
        if succeeded and expected is not None and sha256(data) == expected:
            self.ok += 1
            return True
        self.mismatches.append(label)
        return False

    @property
    def failed(self):
        return self.attempted - self.ok

    def frac(self):
        return self.ok / self.attempted if self.attempted else 0.0


# One finished child process.
Child = collections.namedtuple("Child", "code out err wall_s cpu_s maxrss_mb")


def run_child(argv, cwd, env, timeout):
    """Runs `argv` to completion and returns its output together with its
    own wall time, user+sys CPU and peak RSS (from wait4)."""
    out_path = os.path.join(cwd, ".child.out")
    err_path = os.path.join(cwd, ".child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if wall >= timeout:
            raise IntegrityError(f"{' '.join(argv[1:3])} timed out after {timeout}s")
    with open(out_path, "rb") as f:
        stdout = f.read()
    with open(err_path, "rb") as f:
        stderr = f.read()
    return Child(
        proc.returncode,
        stdout,
        stderr,
        wall,
        ru.ru_utime + ru.ru_stime,
        ru.ru_maxrss / 1024.0,
    )


def flow_env(store):
    env = dict(os.environ)
    for k in list(env):
        if k.startswith("BDC_"):
            del env[k]
    env["BDC_WORKERS"] = WORKERS
    env["BDC_CACHE_DIR"] = store
    return env


def read_json(path):
    with open(path) as f:
        return json.load(f)


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def free_ports(count):
    """`count` currently free loopback ports, the last `count - 1` of them
    consecutive (the fleet puts its shards on base..base+n-1)."""
    for _ in range(200):
        socks = []
        try:
            s = socket.socket()
            s.bind(("127.0.0.1", 0))
            socks.append(s)
            base = s.getsockname()[1] + 1
            if base + count > 65535:
                continue
            for p in range(base, base + count - 1):
                t = socket.socket()
                socks.append(t)
                t.bind(("127.0.0.1", p))
            return [socks[0].getsockname()[1]] + list(range(base, base + count - 1))
        except OSError:
            continue
        finally:
            for s in socks:
                s.close()
    raise IntegrityError("no free loopback ports")


def proc_cpu_s(pid):
    """user+sys CPU seconds of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    """Peak resident set of a live process, from /proc."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise IntegrityError(f"no VmHWM for pid {pid}")


def kill_group(proc, grace_s):
    """SIGTERM the process group of `proc`, then SIGKILL after `grace_s`,
    and reap it."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
