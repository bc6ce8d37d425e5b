"""Run `python -m radiohamming ARGS...` and bound its peak RSS.

Usage: python .github/peak_rss.py MAX_MB ARGS...

The child inherits stdin, stdout and stderr.  Its exit code and peak RSS
(from os.wait4) go to stderr, and this script exits 1 unless the child
exited 0 with a peak RSS under MAX_MB megabytes.
"""

import os
import subprocess
import sys

bound_mb, *args = sys.argv[1:]
child = subprocess.Popen([sys.executable, "-m", "radiohamming", *args])
_, status, usage = os.wait4(child.pid, 0)
code, rss_mb = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
print(f"exit {code}, peak RSS {rss_mb:.1f} MB", file=sys.stderr)
sys.exit(code != 0 or rss_mb >= float(bound_mb))
