"""Running jobs: hermetic child processes, drained and reaped one at a time.

Jobs run under the benchmark's own interpreter with PYTHONPATH set to
the checkout's `src/` and every PRIMEWHEEL_* variable removed. They are
started by spawner.py, a small helper process, so that each job's
ru_maxrss is its own peak (see spawner.py); the helper reaps each job
with os.wait4, whose rusage belongs to that child alone
(getrusage(RUSAGE_CHILDREN) would report the largest peak of any child
so far). This process drains the job's pipes together in chunks, so a
child that fills one pipe never stalls.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
JOB_TIMEOUT_S = 120.0
_CHUNK = 1 << 20
_MSG = 1 << 16


@dataclass
class Run:
    """A finished child: exit code, captured output and what it cost."""

    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    first_out_s: float | None  # spawn to first stdout byte; None if it printed nothing
    peak_rss_mb: float
    side: bytes = b""  # what the child wrote to its extra pipe, if it had one


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PRIMEWHEEL_")}
    env["PYTHONPATH"] = str(SRC)
    return env


class Spawner:
    """A running spawner.py; use as a context manager.

    No job may run past `deadline` (a time.perf_counter() value): a job
    still running then is killed, and run() refuses to start another.
    """

    def __init__(self, deadline: float = float("inf")) -> None:
        self.deadline = deadline
        self._sock, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            script = Path(__file__).with_name("spawner.py")
            self._proc = subprocess.Popen(
                [sys.executable, str(script), str(theirs.fileno())],
                cwd=ROOT,
                env=child_env(),
                stdin=subprocess.DEVNULL,
                pass_fds=(theirs.fileno(),),
            )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._sock.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def _recv(self) -> tuple[dict, list[int]]:
        data, fds, _, _ = socket.recv_fds(self._sock, _MSG, 3)
        if not data:
            raise RuntimeError(f"spawner exited with code {self._proc.wait()}")
        return json.loads(data), fds

    def run(self, argv: list[str], side_pipe: bool = False) -> Run:
        """Run `python <argv>` from the checkout root and wait for it to end.

        With side_pipe the child gets a third pipe whose write-end number
        is appended to argv; its contents come back in Run.side.
        """
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.perf_counter())
        if timeout <= 0:
            raise TimeoutError("the benchmark's time limit has passed")
        self._sock.send(json.dumps({"argv": argv, "side": side_pipe}).encode())
        started, fds = self._recv()
        start = started["start"]
        chunks: dict[int, list[bytes]] = {fd: [] for fd in fds}
        first_out = None
        timed_out = False
        with selectors.DefaultSelector() as sel:
            for fd in fds:
                sel.register(fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    os.kill(started["pid"], signal.SIGKILL)
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, _CHUNK)
                    if not data:
                        sel.unregister(key.fd)
                        continue
                    if first_out is None and key.fd == fds[0]:
                        first_out = time.perf_counter() - start
                    chunks[key.fd].append(data)
        for fd in fds:
            os.close(fd)
        ended, _ = self._recv()
        stderr = b"".join(chunks[fds[1]])
        if timed_out:
            stderr += f"\n[killed after {timeout:.0f} s]\n".encode()
        return Run(
            code=ended["status"],
            stdout=b"".join(chunks[fds[0]]),
            stderr=stderr,
            wall_s=ended["end"] - start,
            first_out_s=first_out,
            peak_rss_mb=ended["maxrss_kb"] / 1024,
            side=b"".join(chunks[fds[2]]) if side_pipe else b"",
        )


def tail(values, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) at the highest nearest-rank percentile that leaves
    at least `beyond` samples above it; with too few samples, the minimum."""
    values = sorted(values)
    rank = max(len(values) - beyond, 1)
    return 100 * rank / len(values), values[rank - 1]
