"""One ``tcam serve`` subprocess: start, observe from outside, drain.

The service is the system under test, so it runs exactly as a user would
start it (``tcam serve --model … --port 0 --workers 2``, every other flag
at its default) and is only touched through its TCP protocol, its exit
status and ``/proc``.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
WORKERS = 2
_PORT_RE = re.compile(rb"tcam serve: \d+ workers on [\w.\-]+:(\d+)")
_START_TIMEOUT_S = 90.0
_DRAIN_TIMEOUT_S = 60.0


class ServeProcess:
    """A running ``tcam serve``; ``port`` is parsed from its first line."""

    def __init__(self, snapshot: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
                "serve",
                "--model",
                str(snapshot),
                "--port",
                "0",
                "--workers",
                str(WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        try:
            self._head = b""
            self.port = self._wait_for_port()
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            raise

    def _wait_for_port(self) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            self._head += chunk
            match = _PORT_RE.search(self._head)
            if match:
                return int(match.group(1))
        raise RuntimeError(f"tcam serve never reported a port; output: {self._head!r}")

    def front_end_peak_rss_bytes(self) -> int:
        """Peak resident set (``VmHWM``) of the front-end process."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
        raise RuntimeError("no VmHWM line for the tcam serve front-end")

    def drain(self) -> None:
        """SIGTERM, then require exit 0 and the clean-drain marker."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            tail, _ = self.proc.communicate(timeout=_DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            tail, _ = self.proc.communicate()
            raise RuntimeError(f"tcam serve did not drain; output: {self._head + tail!r}") from None
        output = self._head + tail
        if self.proc.returncode != 0 or b"drained cleanly" not in output:
            raise RuntimeError(f"tcam serve exited {self.proc.returncode}; output: {output!r}")
