"""Host fingerprint stored in every result file, so that two files are only
compared when comparable and a file from a loaded host says so."""

from __future__ import annotations

import os
import platform
import subprocess

from bench.spec import ROOT

# One BLAS thread per process: with the default 2, a step costs twice the
# CPU for the same wall time, and the second core is needed for the load
# generator / daemon pair; spin-waiting BLAS threads made numbers drift.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        return "unknown"


def fingerprint() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": THREAD_ENV,
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "git_commit": _git_commit(),
    }
