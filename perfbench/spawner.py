"""Starts the benchmark's jobs on behalf of harness.Spawner.

    python perfbench/spawner.py <socket fd>

Jobs inherit this process's working directory and environment, which
harness.Spawner sets up.

Linux counts the memory of the process that forks a child in the
child's ru_maxrss: the forked copy's pages (or, with vfork, the parent's
whole high-water mark) before exec. The benchmark process grows as it
reads job output, so jobs it started itself would report its size, not
their own. This process stays small and starts every job instead.

Protocol, one SOCK_SEQPACKET message each: the benchmark sends
{"argv", "side"}; the spawner starts `python <argv>` with fresh pipes
for stdout and stderr (and, with "side", one more pipe whose write-end
number is appended to argv), sends {"pid", "start"} with the read ends
attached, waits for the job, and sends {"status", "end", "maxrss_kb"}.
Times are time.perf_counter(), which is system-wide on Linux.
"""

from __future__ import annotations

import fcntl
import json
import os
import socket
import subprocess
import sys
import time

_MSG = 1 << 16


def serve(sock: socket.socket) -> None:
    """Start one job per request until the benchmark closes its end."""
    while True:
        data = sock.recv(_MSG)
        if not data:
            return
        request = json.loads(data)
        argv = list(request["argv"])
        pipes = [os.pipe(), os.pipe()]
        # A 1 MiB stdout pipe (the unprivileged maximum) lets a job write
        # ahead of the benchmark's reads instead of waiting on them.
        fcntl.fcntl(pipes[0][1], fcntl.F_SETPIPE_SZ, 1 << 20)
        if request["side"]:
            pipes.append(os.pipe())
            argv.append(str(pipes[2][1]))
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=pipes[0][1],
            stderr=pipes[1][1],
            pass_fds=[w for _, w in pipes[2:]],
        )
        for r, w in pipes:
            os.close(w)
        message = json.dumps({"pid": proc.pid, "start": start}).encode()
        socket.send_fds(sock, [message], [r for r, _ in pipes])
        for r, _ in pipes:
            os.close(r)
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({"status": proc.returncode, "end": end,
                              "maxrss_kb": usage.ru_maxrss}).encode())


def main() -> int:
    with socket.socket(fileno=int(sys.argv[1])) as sock:
        try:
            serve(sock)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the benchmark went away while a job ran
    return 0


if __name__ == "__main__":
    sys.exit(main())
