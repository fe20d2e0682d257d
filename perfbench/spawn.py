"""Spawn-to-exit process runner and the `banger serve` daemon handle.

Requests go through the `spawner` helper (tracer/src/spawner.rs): a small
process that starts each child, times it from spawn to reap and reports
its exit code, CPU and peak resident set. A child spawned straight from
Python would inherit the harness's resident set as its peak.

Children start in the harness's current directory at the time of the
request.
"""

import os
import re
import signal
import subprocess
import time
from dataclasses import dataclass

# The daemon's socket, relative to the run directory: an absolute path
# inside a deep checkout could exceed the 107-byte limit of a Unix
# socket address.
SOCKET = "d.sock"
START_TIMEOUT_S = 20.0  # for `banger serve` to answer ping
ADMIN_TIMEOUT_S = 10.0  # for one `ping` or `stats` request
CLOSE_TIMEOUT_S = 70.0  # longer than any request's timeout
_REQUESTS = re.compile(rb"^requests (\d+) ")


@dataclass
class Outcome:
    rc: int  # exit code; -N when killed by signal N
    stdout: bytes
    wall_s: float
    cpu_s: float  # user + system CPU of the child
    maxrss_kb: int
    timed_out: bool


class Spawner:
    """One spawner process; not shared between threads."""

    def __init__(self, program, stdout_path):
        self.stdout_path = os.path.abspath(stdout_path)
        self.proc = subprocess.Popen(
            [program], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1
        )

    def run(self, argv, timeout_s):
        """Runs argv to completion (or until timeout_s) and returns an Outcome."""
        for a in argv:
            if "\t" in a or "\n" in a:
                raise ValueError("argument %r cannot be sent to the spawner" % a)
        fields = [str(int(timeout_s * 1000)), self.stdout_path, os.getcwd()] + list(argv)
        self.proc.stdin.write("\t".join(fields) + "\n")
        reply = self.proc.stdout.readline().rstrip("\n").split("\t")
        if len(reply) != 5:
            raise RuntimeError("spawner: %s" % " ".join(reply))
        with open(self.stdout_path, "rb") as f:
            out = f.read()
        return Outcome(
            rc=int(reply[0]),
            stdout=out,
            wall_s=int(reply[1]) / 1e9,
            cpu_s=int(reply[2]) / 1e6,
            maxrss_kb=int(reply[3]),
            timed_out=reply[4] == "1",
        )

    def close(self):
        """Ends the spawner after its current child, which its watchdog
        kills at the request's timeout."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


class Daemon:
    """A `banger serve` child bound to SOCKET in the current directory."""

    def __init__(self, banger):
        self.banger = banger
        self.socket_abs = os.path.abspath(SOCKET)
        self.pid = None
        self.queries = 0  # `stats` requests sent by served()

    def start(self, spawner):
        """Starts the daemon and waits until it answers `ping`."""
        log = os.path.abspath("daemon.log")
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        argv = [self.banger, "serve", "--socket", SOCKET]
        self.pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        deadline = time.perf_counter() + START_TIMEOUT_S
        while time.perf_counter() < deadline:
            if spawner.run([self.banger, "--connect", SOCKET, "ping"], ADMIN_TIMEOUT_S).rc == 0:
                return
            time.sleep(0.01)
        raise RuntimeError("banger serve did not answer ping within %.0f s" % START_TIMEOUT_S)

    def served(self, spawner):
        """Requests the daemon has dispatched so far, not counting the
        `stats` queries made here; None when it has exited or does not
        answer. A `--connect` request that cannot reach the daemon runs
        locally with the same stdout, so only this count tells them apart."""
        if self.pid is None or os.waitpid(self.pid, os.WNOHANG)[0]:
            self.pid = None  # reaped: stop() must not signal a reused pid
            return None
        o = spawner.run([self.banger, "--connect", SOCKET, "stats"], ADMIN_TIMEOUT_S)
        m = _REQUESTS.match(o.stdout)
        if o.rc != 0 or not m:
            return None
        self.queries += 1  # the daemon counts the query before it answers
        return int(m.group(1)) - self.queries

    def _proc(self, name):
        with open("/proc/%d/%s" % (self.pid, name)) as f:
            return f.read()

    def cpu_s(self):
        """User + system CPU of the daemon so far (all its threads)."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def hwm_kb(self):
        """Peak resident set of the daemon's own address space so far."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    def stop(self):
        """SIGTERM, then SIGKILL after 5 s; always reaps and unlinks the socket."""
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGTERM)
                deadline = time.perf_counter() + 5.0
                while time.perf_counter() < deadline:
                    done, _ = os.waitpid(self.pid, os.WNOHANG)
                    if done:
                        break
                    time.sleep(0.01)
                else:
                    os.kill(self.pid, signal.SIGKILL)
                    os.waitpid(self.pid, 0)
            except ChildProcessError:
                pass
            self.pid = None
        try:
            os.unlink(self.socket_abs)
        except FileNotFoundError:
            pass
