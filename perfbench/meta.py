"""Run metadata, recorded with every benchmark run as information only."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu() -> dict:
    info = {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0))}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["model"] = platform.processor() or "unknown"
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (
                Path(index, name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = size
    info["caches"] = caches
    return info


def _openblas() -> dict:
    import numpy

    info = {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is None:
                    continue
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode(errors="replace")
                return info
    info["threads"] = "unknown"
    return info


def _git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _source(root: Path) -> dict:
    """Line count and content hash of src/imdsec, which identify the code
    measured even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "imdsec").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def collect(root: Path) -> dict:
    import cryptography
    import numpy
    import scipy

    return {
        "cpu": _cpu(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cryptography": cryptography.__version__,
        "openblas": _openblas(),
        "git_commit": _git_commit(root),
        **_source(root),
    }
