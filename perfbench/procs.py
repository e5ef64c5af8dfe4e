"""Child processes: spawn under a wall limit, reap with rusage, clean up.

Every child starts in a new session, so its process group holds it and
everything it forks (the serve daemon's fork server and workers too);
killing the group kills them all.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence


@dataclass
class Finished:
    """How one child ended."""

    wall_s: float          # spawn to reaped, as observed
    timed_out: bool
    returncode: Optional[int]
    maxrss_mb: float


def child_env(root: Path) -> Dict[str, str]:
    """The environment every child runs with: the checkout's ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONHASHSEED", None)
    return env


def _status_code(status: int) -> int:
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    return -os.WTERMSIG(status)


def signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def kill_group(pgid: int) -> None:
    signal_group(pgid, signal.SIGKILL)


def run_limited(argv: Sequence[str], *, cwd: Path, env: Mapping[str, str],
                limit_s: float, stdout_path: Path, grace_s: float = 0.0,
                cpu: Optional[int] = None) -> Finished:
    """Run ``argv`` to completion or until ``limit_s``; kill its group then.

    A thread blocks in ``wait4`` so the end time is exact and the child's
    own peak RSS comes back with it.  With ``grace_s`` the group first
    gets SIGTERM and that long to exit on its own.  With ``cpu`` the
    child is pinned to that CPU from its start.
    """
    reaped: Dict[str, object] = {}
    allowed = os.sched_getaffinity(0)
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})  # the child inherits it
        try:
            proc = subprocess.Popen(list(argv), cwd=cwd, env=dict(env),
                                    stdout=out, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL,
                                    start_new_session=True)
        finally:
            os.sched_setaffinity(0, allowed)

        def reap() -> None:
            _pid, status, usage = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()
            reaped["status"] = status
            reaped["usage"] = usage

        waiter = threading.Thread(target=reap, daemon=True)
        waiter.start()
        waiter.join(limit_s)
        timed_out = waiter.is_alive()
        if timed_out:
            if grace_s:
                signal_group(proc.pid, signal.SIGTERM)
                waiter.join(grace_s)
            kill_group(proc.pid)
            waiter.join()
        # Reap anything the child left in its group (it should be empty).
        kill_group(proc.pid)
    status = int(reaped["status"])  # type: ignore[arg-type]
    proc.returncode = _status_code(status)  # stop Popen reaping again
    return Finished(
        wall_s=float(reaped["end"]) - start,  # type: ignore[arg-type]
        timed_out=timed_out,
        returncode=None if timed_out else proc.returncode,
        maxrss_mb=reaped["usage"].ru_maxrss / 1024.0,  # type: ignore[union-attr]
    )


# -- /proc scans -----------------------------------------------------------------

def _proc_pids() -> List[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _read(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read().decode(errors="replace")
    except OSError:
        return ""


def group_members(pgid: int) -> List[int]:
    """Live processes whose process group is ``pgid``."""
    members = []
    for pid in _proc_pids():
        stat = _read(f"/proc/{pid}/stat")
        fields = stat.rsplit(")", 1)[-1].split()
        # fields: state ppid pgrp ...; zombies are already dead.
        if len(fields) > 2 and fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(pid)
    return members


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of the peak resident sizes (VmHWM) of ``pids``."""
    total_kb = 0
    for pid in pids:
        for line in _read(f"/proc/{pid}/status").splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def stray_processes(root: Path) -> List[str]:
    """Simulator processes left running in this checkout.

    Matches ``repro`` / benchmark / multiprocessing helper processes whose
    working directory lies in ``root``; the calling process and its
    ancestors are not strays.
    """
    mine = set()
    pid = os.getpid()
    while pid > 1 and pid not in mine:
        mine.add(pid)
        fields = _read(f"/proc/{pid}/stat").rsplit(")", 1)[-1].split()
        pid = int(fields[1]) if len(fields) > 1 else 0
    root_text = str(root.resolve())
    strays = []
    for pid in _proc_pids():
        if pid in mine:
            continue
        cmdline = _read(f"/proc/{pid}/cmdline").replace("\0", " ")
        if not any(word in cmdline for word in
                   ("repro", "perfbench", "multiprocessing")):
            continue
        try:
            cwd = os.readlink(f"/proc/{pid}/cwd")
        except OSError:
            continue
        if cwd == root_text or cwd.startswith(root_text + os.sep):
            strays.append(f"{pid}: {cmdline.strip()[:120]}")
    return strays
