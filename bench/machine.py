"""Facts about the machine and the code under test, recorded with every result.

Everything here is read-only: environment variables, files under the
checkout, and the CPU cache description the kernel publishes under /sys.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _llc() -> str | None:
    """Size of the highest-level unified cache of CPU 0, as the kernel reports it."""
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind != "Instruction" and (best is None or level > best[0]):
            best = (level, size)
    return f"L{best[0]} {best[1]}" if best else None


def _blas() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = deps.get("name"), deps.get("version")
    except (KeyError, TypeError, ValueError):
        name = version = None
    threads = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {"name": name, "version": version,
            "threads": threads or f"library default (nproc={os.cpu_count()})"}


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git directly; None outside a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def describe(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "llc": _llc(),
        "git_commit": _git_commit(root),
        "src_lines": src_lines(root),
    }
