"""Where and on what a result was measured."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy


def calibration_loop(iterations: int = 300_000) -> int:
    """A fixed pure-Python workload: integer arithmetic and a dict."""
    acc, table = 0, {}
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
    return acc + len(table)


def calibration_ms(repeats: int = 5) -> float:
    """Median ms of :func:`calibration_loop` at the start of a run.
    Recorded beside every result so host drift between two sets of
    runs shows; it is not applied to any metric.  (The harness's probes
    between rounds run the same loop, shorter, and are applied.)"""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def git_commit(root: Path) -> str:
    """HEAD of the git checkout at ``root``; git does not look above
    ``root``, so a copy without history inside another repository
    reports ``unknown`` rather than that repository's commit."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_sha256(src: Path) -> str:
    """Hash of every ``.py`` file under ``src``, so a checkout without
    git history still names the code it measured."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path) -> dict:
    return {
        "git_commit": git_commit(root),
        "source_sha256": source_sha256(root / "src" / "repro"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "calibration_ms": calibration_ms(),
    }
