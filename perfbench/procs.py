"""Process hygiene: the program runs in its own session, dies with us.

``python -m repro serve|cluster`` is started as the leader of a new
session; its output goes to a log file under ``perfbench/out/`` (a pipe
nobody drains could block it) and the bound address is read from the
banner there.  ``stop()`` kills the whole session and verifies that
nothing of it survives — an orphaned worker of a killed router would otherwise steal a
core from the next run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: every Program not yet stopped, so an exit path that skipped a
#: ``finally`` (SIGTERM, a bug) still kills them — see ``stop_all``.
_live: list = []


def program_environment() -> dict:
    """The child environment: this checkout's ``src`` first on the path."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    return env


def _session_pids(session: int) -> list:
    """Every live process whose session id is ``session``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were looking
        # after the command name: state ppid pgrp session ...
        if int(fields[3]) == session and fields[0] != b"Z":
            pids.append(int(entry))
    return pids


class Program:
    """One started ``python -m repro <argv>`` and its whole session."""

    def __init__(self, argv: list, spans_path=None) -> None:
        OUT.mkdir(exist_ok=True)
        self.log_path = OUT / f"{argv[0]}-{os.getpid()}.log"
        self._log = open(self.log_path, "w+")
        env = program_environment()
        if spans_path is None:
            command = [sys.executable, "-u", "-m", "repro", *argv]
        else:
            # the traced run boots the same program through the wrapper
            # installer; cluster workers stay untraced (the launcher
            # starts them with ``-m repro``)
            env["PERFBENCH_SPANS"] = str(spans_path)
            command = [sys.executable, "-u", str(HERE / "traced_main.py"), *argv]
        self.process = subprocess.Popen(
            command,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=str(ROOT),
            start_new_session=True,
        )
        self.session = self.process.pid
        self._traced = spans_path is not None
        _live.append(self)

    def wait_for(self, pattern: str, timeout: float = 60.0) -> "re.Match":
        """Block until the log matches ``pattern``; the banner reader."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        while True:
            match = regex.search(self.log_text())
            if match:
                return match
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"program exited with {self.process.returncode} before "
                    f"printing {pattern!r}:\n{self.log_text()}"
                )
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"no {pattern!r} within {timeout:g}s:\n{self.log_text()}"
                )
            time.sleep(0.01)

    def log_text(self) -> str:
        return self.log_path.read_text(errors="replace")

    def pids(self) -> list:
        return _session_pids(self.session)

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of the session's processes, MiB."""
        total_kb = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0

    def cpu_seconds(self) -> dict:
        """User + system CPU seconds so far, per pid."""
        usage = {}
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/stat", "rb") as handle:
                    fields = handle.read().rsplit(b")", 1)[1].split()
            except (OSError, IndexError):
                continue
            usage[pid] = (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS
        return usage

    def stop(self) -> None:
        """Kill the session and verify it is gone.

        A traced program is interrupted first and given time to exit on
        its own, because it writes its spans on the way out (the cluster
        router takes about five seconds to close).
        """
        if self not in _live:
            return
        try:
            if self._traced and self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(timeout=20.0)
                except subprocess.TimeoutExpired:
                    pass
            deadline = time.monotonic() + 5.0
            while True:
                survivors = self.pids()
                if not survivors:
                    break
                for pid in survivors:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"processes {survivors} of session {self.session} "
                        "survived SIGKILL"
                    )
                time.sleep(0.01)
            self.process.wait()
        finally:
            _live.remove(self)
            self._log.close()
            self.log_path.unlink(missing_ok=True)  # its text is in any start-up error


def stop_all() -> None:
    """Stop every program still running (exit paths, signal handlers)."""
    for program in list(_live):
        program.stop()


def own_peak_rss_mb() -> float:
    """``VmHWM`` of this process, MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0
