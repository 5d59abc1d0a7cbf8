"""Starts a ``dagkernel.cli`` child from a fresh helper process.

Linux carries a process's peak RSS across ``exec``: a child's ``ru_maxrss``
starts from the peak RSS of the process it was forked (or vforked) from.  A
benchmark process that holds a parsed corpus would leak its own size into
every child's figure.  ``run_cli`` therefore starts this file as a helper: a
fresh, small interpreter that starts the CLI child, so the peak RSS that
``os.wait4`` reports is the child's own.

Run as a script, the helper reads one JSON request on stdin, runs it with
``run_child`` and prints one JSON reply.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class CliRun:
    returncode: int
    seconds: float
    peak_rss_mb: float


def run_child(argv: Sequence[str], env: dict, log_path: str, timeout: float) -> dict:
    """Run ``argv`` to completion: wall time from start to exit, and peak RSS
    from ``os.wait4``.  A child still running after ``timeout`` seconds is
    killed."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=env
        )
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "seconds": seconds,
            "peak_rss_mb": usage.ru_maxrss / 1024.0}


def run_cli(args: Sequence[str], env: dict, log_path: str, timeout: float = 170.0) -> CliRun:
    """``python -m dagkernel.cli <args>`` in a fresh child, started by the helper."""
    request = {"argv": [sys.executable, "-m", "dagkernel.cli", *args], "env": env,
               "log_path": log_path, "timeout": timeout}
    done = subprocess.run([sys.executable, os.path.abspath(__file__)], input=json.dumps(request),
                          capture_output=True, text=True, timeout=timeout + 5)
    if done.returncode != 0:
        raise RuntimeError(f"launcher exited with code {done.returncode}: {done.stderr}")
    return CliRun(**json.loads(done.stdout))


if __name__ == "__main__":
    print(json.dumps(run_child(**json.load(sys.stdin))))
