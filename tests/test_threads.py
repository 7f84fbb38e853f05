"""Importing ldconv sets the loaded OpenBLAS's thread count from LDCONV_THREADS."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

# Imports ldconv, optionally after numpy, and prints the thread count the
# loaded OpenBLAS reports (None without one) and whether os.environ changed.
PROBE = """
import ctypes, os, sys
if sys.argv[1] == "numpy-first":
    import numpy
before = dict(os.environ)
import ldconv
with open("/proc/self/maps") as fh:
    paths = sorted({line.split()[-1] for line in fh
                    if "openblas" in line.lower() and ".so" in line})
threads = None
for lib in map(ctypes.CDLL, paths):
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, name):
            getattr(lib, name).restype = ctypes.c_int
            threads = getattr(lib, name)()
print(threads, dict(os.environ) == before)
"""

THREAD_VARIABLES = ("LDCONV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _import_ldconv(order, **variables):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", PROBE, order], env={**env, **variables},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(not Path("/proc/self/maps").exists(),
                    reason="the loaded libraries are read from /proc/self/maps")
@pytest.mark.parametrize(("order", "variables", "threads"), [
    ("numpy-first", {"OPENBLAS_NUM_THREADS": "2"}, 1),
    ("ldconv-first", {"LDCONV_THREADS": ""}, 1),
    ("ldconv-first", {"LDCONV_THREADS": "2"}, 2),
], ids=["default-after-numpy", "empty", "two"])
def test_import_sets_the_blas_thread_count(order, variables, threads):
    proc = _import_ldconv(order, **variables)
    assert proc.returncode == 0, proc.stderr
    reported, environ_unchanged = proc.stdout.split()
    if reported == "None":
        pytest.skip("numpy loaded no OpenBLAS")
    assert int(reported) == threads
    assert environ_unchanged == "True"


@pytest.mark.parametrize("value", ["0", "-1", "1.5", "abc"])
def test_import_refuses_a_thread_count_that_is_not_a_positive_integer(value):
    proc = _import_ldconv("ldconv-first", LDCONV_THREADS=value)
    assert proc.returncode != 0
    assert f"LDCONV_THREADS must be a positive integer, got {value!r}" in proc.stderr
