"""Run one CLI call in a process forked from the benchmark process.

The benchmark process imports snc80211 once; each request forks from it, so
no state (caches, memo tables, RNG) carries from one request to the next,
as with separate `snc80211` invocations. The child sends its exit code,
captured stdout and, when traced, its spans back over one pipe.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import select
import signal
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

REQUEST_TIMEOUT_S = 60.0
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_cli():
    """Import snc80211.cli from this checkout's src/, never an installed copy."""
    if not (SRC / "snc80211" / "__init__.py").is_file():
        raise SystemExit(f"error: no snc80211 sources under {SRC}")
    # a config file named in the environment would change every output
    os.environ.pop("SNC80211_CONFIG", None)
    sys.path.insert(0, str(SRC))
    import snc80211.cli
    if Path(snc80211.cli.__file__).resolve().parent != SRC / "snc80211":
        raise SystemExit(f"error: imported {snc80211.cli.__file__}, not {SRC}")
    return snc80211.cli


@dataclass
class Reply:
    rc: int | None          # cli.main's return value (None if it raised)
    stdout: str
    error: str | None       # traceback, crash or timeout description
    spans: list | None
    maxrss_kb: int


def _child(cli, argv, install_tracer, w) -> None:
    msg = {"rc": None, "stdout": "", "error": None, "spans": None}
    status = 1
    try:
        try:
            recorder = install_tracer() if install_tracer else None
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                msg["rc"] = cli.main(argv)  # looked up after tracing wraps it
            msg["stdout"] = buf.getvalue()
            if recorder is not None:
                msg["spans"] = recorder.spans
        except SystemExit as e:  # argparse usage errors
            msg["rc"] = e.code if isinstance(e.code, int) else 2
        except Exception:
            msg["error"] = traceback.format_exc()
        with os.fdopen(w, "wb") as fh:
            fh.write(json.dumps(msg).encode())
        status = 0
    finally:
        os._exit(status)


def call(cli, argv, install_tracer=None,
         timeout: float = REQUEST_TIMEOUT_S) -> Reply:
    """Fork, run cli.main(argv) in the child, and collect its reply."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _child(cli, argv, install_tracer, w)
    os.close(w)
    chunks, error = [], None
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                error = f"timed out after {timeout:g} s"
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status, usage = os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if error is None and code != 0:
        error = f"request process exited with {code}"
    if error is not None:
        return Reply(None, "", error, None, usage.ru_maxrss)
    msg = json.loads(b"".join(chunks))
    return Reply(msg["rc"], msg["stdout"], msg["error"], msg["spans"],
                 usage.ru_maxrss)
