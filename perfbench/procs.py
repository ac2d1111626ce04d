"""Process ownership for the benchmark: every process it starts ends with it.

Two kinds of processes appear during a run:

* pool workers forked by the program inside the benchmark process
  (``executor="process"``) -- they are ``multiprocessing`` children and
  must be gone from :func:`multiprocessing.active_children` at exit;
* the ``repro serve`` child of the wire workload, started in a session of
  its own so that it and everything it forks share one process group.
  Waiting on the leader is not enough: a pool worker of the server can
  outlive the server process itself, so :meth:`GroupChild.stop` waits
  until the whole group is empty and SIGKILLs the group after a timeout.

:class:`Ownership` records every group the run created and, at exit,
checks from ``/proc`` that none of their members survives (psutil is not
a dependency).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

_GONE_STATES = frozenset("ZXx")  # zombie / dead: no longer running


@dataclass(frozen=True)
class ProcEntry:
    pid: int
    ppid: int
    pgrp: int
    state: str


def process_table() -> list[ProcEntry]:
    """Every process visible in ``/proc`` with its parent, group and state."""
    entries = []
    for path in Path("/proc").iterdir():
        if not path.name.isdigit():
            continue
        try:
            raw = (path / "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # The command name may contain spaces or parentheses; the fixed
        # fields start after the last ')'.
        fields = raw[raw.rindex(")") + 2 :].split()
        entries.append(
            ProcEntry(
                pid=int(path.name),
                ppid=int(fields[1]),
                pgrp=int(fields[2]),
                state=fields[0],
            )
        )
    return entries


def live_in_group(pgid: int) -> list[int]:
    """Pids of the still-running members of process group ``pgid``."""
    return [
        entry.pid
        for entry in process_table()
        if entry.pgrp == pgid and entry.state not in _GONE_STATES
    ]


def live_children(pid: int | None = None) -> list[int]:
    """Pids of the still-running direct children of ``pid`` (default: self)."""
    parent = os.getpid() if pid is None else pid
    return [
        entry.pid
        for entry in process_table()
        if entry.ppid == parent and entry.state not in _GONE_STATES
    ]


def peak_rss_kib(pid: int) -> int:
    """``VmHWM`` of a running process, in KiB; 0 when it has gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def wait_group_empty(pgid: int, timeout: float) -> bool:
    """Poll until no member of ``pgid`` runs; true when it emptied in time."""
    deadline = time.monotonic() + timeout
    while live_in_group(pgid):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.02)
    return True


class GroupChild:
    """A child process started as the leader of a new session and group.

    ``stop()`` sends SIGINT to the leader (``repro serve`` drains its
    pending waves on it), reaps the leader, then waits until every member
    of the group has ended, SIGKILLing the group after ``grace`` seconds.
    """

    def __init__(
        self, argv: Sequence[str], *, cwd: str, env: dict[str, str]
    ) -> None:
        self.process = subprocess.Popen(
            list(argv),
            cwd=cwd,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.pgid = self.process.pid  # session leader: pgid == pid
        #: The leader's own peak RSS, read from ``/proc`` just before stop().
        self.peak_rss_kib = 0
        self._stderr: list[bytes] = []
        self._stderr_reader = threading.Thread(
            target=self._drain_stderr, name="perfbench-stderr", daemon=True
        )
        self._stderr_reader.start()

    def _drain_stderr(self) -> None:
        assert self.process.stderr is not None
        for line in self.process.stderr:
            self._stderr.append(line)

    def stderr_text(self) -> str:
        return b"".join(self._stderr).decode("utf-8", "replace")

    def read_line_with_prefix(self, prefix: str, timeout: float) -> str:
        """Read stdout lines until one starts with ``prefix``; return it."""
        found: list[str] = []

        def scan() -> None:
            assert self.process.stdout is not None
            for raw in self.process.stdout:
                line = raw.decode("utf-8", "replace").strip()
                if line.startswith(prefix):
                    found.append(line)
                    return

        reader = threading.Thread(target=scan, name="perfbench-stdout", daemon=True)
        reader.start()
        reader.join(timeout)
        if not found:
            raise RuntimeError(
                f"child did not print {prefix!r} within {timeout:.0f} s "
                f"(exit code {self.process.poll()}); stderr:\n{self.stderr_text()}"
            )
        return found[0]

    def stop(self, grace: float = 20.0) -> bool:
        """Stop the group; true when it ended without SIGKILL."""
        graceful = True
        if self.process.poll() is None:
            self.peak_rss_kib = max(self.peak_rss_kib, peak_rss_kib(self.process.pid))
            try:
                os.kill(self.process.pid, signal.SIGINT)
            except ProcessLookupError:
                pass
            try:
                self.process.wait(timeout=grace)
            except subprocess.TimeoutExpired:
                graceful = False
        if not wait_group_empty(self.pgid, timeout=grace if graceful else 0.0):
            graceful = False
            try:
                os.killpg(self.pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.process.wait()
            wait_group_empty(self.pgid, timeout=grace)
        self.process.wait()
        for stream in (self.process.stdout, self.process.stderr):
            if stream is not None:
                stream.close()
        self._stderr_reader.join(timeout=5)
        return graceful


class Ownership:
    """The process groups a run created, and the exit-time survivor check."""

    def __init__(self) -> None:
        self.groups: list[int] = []
        self.children: list[GroupChild] = []

    def child_peak_rss_kib(self) -> int | None:
        """The largest peak RSS of the started children; None if none started.

        ``RUSAGE_CHILDREN`` cannot stand in for it: a child's peak there
        includes the copy of the benchmark process it was forked from
        before it executed the server.
        """
        if not self.children:
            return None
        return max(child.peak_rss_kib for child in self.children)

    def start(
        self, argv: Sequence[str], *, cwd: str, env: dict[str, str]
    ) -> GroupChild:
        child = GroupChild(argv, cwd=cwd, env=env)
        self.groups.append(child.pgid)
        self.children.append(child)
        return child

    def survivors(self) -> list[str]:
        """Describe every process of this run still alive; empty when clean.

        Stops the interpreter's shared-memory resource tracker first: the
        program starts it on its first broadcast and it would otherwise
        outlive the run by the time the interpreter takes to exit.
        """
        _stop_resource_tracker()
        problems = []
        children = multiprocessing.active_children()
        if children:
            problems.append(
                "multiprocessing children still alive: "
                + ", ".join(f"{c.name}(pid={c.pid})" for c in children)
            )
        for pgid in self.groups:
            members = live_in_group(pgid)
            if members:
                problems.append(f"process group {pgid} still has members {members}")
        direct = live_children()
        if direct:
            problems.append(f"child processes still alive: {direct}")
        return problems

    def kill_survivors(self) -> None:
        """Last resort after a failed run: SIGKILL and reap what is left."""
        for child in multiprocessing.active_children():
            child.kill()
            child.join(timeout=10)
        for pgid in self.groups:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            wait_group_empty(pgid, timeout=10)
        for pid in live_children():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def _stop_resource_tracker() -> None:
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()
