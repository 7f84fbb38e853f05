"""Linear deformable convolution: operators, training harness, analysis tools."""


def _keep_freed_heap() -> None:
    """Keep freed heap blocks in the process instead of returning them to the kernel.

    By default glibc unmaps large blocks on free and trims the heap top, so
    each layer call faults its temporaries back in (about 10,000 minor faults
    per 256-image TinyNet forward).  M_MMAP_THRESHOLD (-3) = 32 MiB, the
    ceiling of glibc's dynamic threshold on 64-bit, keeps such blocks on the
    heap; M_TRIM_THRESHOLD (-1) = 64 MiB keeps the freed top for the next
    call.  Setting either one turns the dynamic thresholds off, and either
    alone measured slower than the default, so the trim threshold is set only
    once the mmap one took.  Other C libraries keep their own behaviour.
    """
    import ctypes
    import platform

    if platform.libc_ver()[0] != "glibc":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(-3, 32 << 20) == 1:
        mallopt(-1, 64 << 20)


_keep_freed_heap()


def _set_blas_threads() -> None:
    """Run the loaded OpenBLAS at LDCONV_THREADS threads, 1 when unset or empty.

    Set on the library, as threadpoolctl does, the count holds whatever the
    import order or the exported BLAS variables.  Other BLAS builds are not set.
    """
    import ctypes
    import os
    value = os.environ.get("LDCONV_THREADS") or "1"
    if not value.isdecimal() or int(value) < 1:
        raise ValueError(f"LDCONV_THREADS must be a positive integer, got {value!r}")
    import numpy  # noqa: F401  (loads OpenBLAS, once the heap thresholds are set)
    if not os.path.exists("/proc/self/maps"):
        return
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    names = [f"{p}_set_num_threads{s}" for p in ("scipy_openblas", "openblas") for s in ("64_", "")]
    for lib in map(ctypes.CDLL, paths):
        for setter in [getattr(lib, name) for name in names if hasattr(lib, name)][:1]:
            setter.argtypes, setter.restype = (ctypes.c_int,), None
            setter(int(value))


_set_blas_threads()

from .tensor import (Rng, ShapeError, Tensor4, conv2d_reference, rand_uniform,
                     read_tensors, write_tensors)
from .geometry import (BaseGrid, KernelGeometry, ShapeFileError, base_grid,
                       gen_initial_coords, load_custom_shape)
from .sampler import SampleGrid, bilinear_backward, bilinear_sample
from .layer import LdconvLayer, OffsetField
from .training import (Dataset, DivergenceError, TinyNet, TrainConfig, evaluate,
                       load_idx, load_net, save_net, synthetic_bars, train)
from .analysis import (AoReport, GrowthRow, IncompatibleCheckpointError,
                       average_offset, growth_audit, shape_ao_compare)

__version__ = "0.1.0"

__all__ = [
    "AoReport", "BaseGrid", "Dataset", "DivergenceError", "GrowthRow",
    "IncompatibleCheckpointError", "KernelGeometry", "LdconvLayer", "OffsetField",
    "Rng", "SampleGrid", "ShapeError", "ShapeFileError", "Tensor4",
    "TinyNet", "TrainConfig", "average_offset", "base_grid", "bilinear_backward",
    "bilinear_sample", "conv2d_reference", "evaluate", "gen_initial_coords",
    "growth_audit", "load_custom_shape", "load_idx", "load_net", "rand_uniform",
    "read_tensors", "save_net", "shape_ao_compare", "synthetic_bars", "train",
    "write_tensors",
]
