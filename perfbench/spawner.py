"""A small helper process that starts the benchmark's children.

Linux records the parent's resident-memory high-water mark in a child's
``ru_maxrss`` when the child is forked and exec'd, so children started
directly by the benchmark (hundreds of MB after ingest) would report the
benchmark's peak, not their own. The helper is started before numpy is
imported, stays small, and runs each child one at a time, reaping it with
``os.wait4`` so wall time and ``ru_maxrss`` belong to that child alone.

Requests and replies are JSON lines on the helper's stdin and stdout.
"""

from __future__ import annotations

import json
import subprocess
import sys

HELPER = r"""
import json, os, subprocess, sys, threading, time
for line in sys.stdin:
    req = json.loads(line)
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    reply = {"wall": wall, "rc": proc.returncode, "maxrss_kb": usage.ru_maxrss}
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
"""


class Spawner:
    """Owns the helper process; use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-c", HELPER],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, env, cwd: str, stdout: str, stderr: str, timeout: float) -> dict:
        """Run argv to completion; returns {"wall", "rc", "maxrss_kb"}."""
        req = {"argv": argv, "env": env, "cwd": cwd, "stdout": stdout,
               "stderr": stderr, "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner helper exited")
        return json.loads(line)

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
