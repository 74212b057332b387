"""Run one benchmark workload and print its result as the last line.

    python3 rpmbench/run.py --workload direct-ucr --seed 1 --seconds 10 --trace 0

The run itself happens in a child process (``runner.py``) in a session
of its own. This supervisor waits for the child, then for every process
the child left behind -- the ``multiprocessing`` resource tracker only
exits once its parent has -- and exits non-zero, naming them, if any
outlives the grace period. The child's standard output is relayed only
when the child succeeded and nothing was left behind.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: One BLAS thread per process. On a 2-core host OpenBLAS's default two
#: threads stall after idling: ten 120x120 matmuls took 160 ms instead of
#: 0.8 ms for the first few hundred ms after a pause, at random points of a
#: run, which spread fit_s by 22% across runs. The header records the count.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: The child must finish well inside the 180 s a run is allowed.
CHILD_TIMEOUT_S = 165.0
TERM_GRACE_S = 8.0
#: How long processes left in the child's session may take to exit.
DESCENDANT_GRACE_S = 5.0


def _session_members(sid: int) -> dict[int, str]:
    """Live (non-zombie) processes of session ``sid``: pid -> command line."""
    members = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            if fields[0] == "Z" or int(fields[3]) != sid:
                continue
            with open(f"/proc/{entry}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode(errors="replace").strip()
        except (OSError, IndexError, ValueError):
            continue
        members[int(entry)] = command
    return members


def _reap_session(sid: int) -> dict[int, str]:
    """Wait for session ``sid`` to empty; kill and return what stayed."""
    deadline = time.monotonic() + DESCENDANT_GRACE_S
    while time.monotonic() < deadline:
        members = _session_members(sid)
        if not members:
            return {}
        time.sleep(0.05)
    members = _session_members(sid)
    for pid in members:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + DESCENDANT_GRACE_S
    while _session_members(sid) and time.monotonic() < deadline:
        time.sleep(0.05)
    return members


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    child = subprocess.Popen(
        [sys.executable, str(HERE / "runner.py"), *sys.argv[1:]],
        cwd=ROOT,
        env={**os.environ, **BLAS_ENV},
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {CHILD_TIMEOUT_S:.0f}s; stopping it", file=sys.stderr)
        child.send_signal(signal.SIGTERM)
        try:
            out, _ = child.communicate(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
            out, _ = child.communicate()
        code = 124
    else:
        code = child.returncode
    left = _reap_session(child.pid)
    if left:
        for pid, command in sorted(left.items()):
            print(f"error: process {pid} still alive after the run: {command}", file=sys.stderr)
        return 3
    if code != 0:
        sys.stderr.write(out)
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
