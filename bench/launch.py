"""Starts the benchmark's child processes, so their peak RSS is their own.

Linux carries the high-water RSS of the process that forks and execs into
the child's ru_maxrss, so children started straight from the benchmark,
which holds the workload's inputs, would all report at least its peak.
This process stays small and starts them instead.

Reads one JSON request per line on stdin and answers each with one line:

    {"argv": [...], "env": {...}, "cwd": "...", "stdout": "path",
     "stderr": "path", "timeout": seconds}
    -> {"code": exit code, "rss_mb": peak RSS, "timed_out": bool}
"""

import json
import os
import signal
import subprocess
import sys
import threading


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                env=request["env"], cwd=request["cwd"])
    killed = []

    def kill():
        killed.append(True)
        os.kill(proc.pid, signal.SIGKILL)

    # The child stays unreaped (WNOWAIT) until the timer is cancelled, so the
    # timer can never signal a recycled pid.
    timer = threading.Timer(request["timeout"], kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
    except BaseException:
        os.kill(proc.pid, signal.SIGKILL)
        raise
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024,
            "timed_out": bool(killed)}


def main() -> None:
    # On SIGTERM, unwind through run() so that a running child is killed and
    # reaped rather than left behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
