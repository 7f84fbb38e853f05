"""Linear deformable convolution: operators, training harness, analysis tools."""

import os as _os

# Pin BLAS pools before numpy loads anywhere in this package; LDCONV_THREADS=1
# makes every reduction single-threaded and therefore bitwise deterministic.
_requested = _os.environ.get("LDCONV_THREADS")
if _requested:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _requested)

from .tensor import (Rng, ShapeError, Tensor4, conv2d_reference, rand_uniform,
                     read_tensors, write_tensors)
from .geometry import (BaseGrid, KernelGeometry, ShapeFileError, base_grid,
                       gen_initial_coords, load_custom_shape)
from .sampler import SampleGrid, bilinear_backward, bilinear_sample
from .layer import LdconvLayer, OffsetField, STRATEGIES
from .training import (Dataset, DivergenceError, TinyNet, TrainConfig, evaluate,
                       load_idx, load_net, save_net, synthetic_bars, train)
from .analysis import (AoReport, GrowthRow, IncompatibleCheckpointError,
                       average_offset, growth_audit, shape_ao_compare)

__version__ = "0.1.0"

__all__ = [
    "AoReport", "BaseGrid", "Dataset", "DivergenceError", "GrowthRow",
    "IncompatibleCheckpointError", "KernelGeometry", "LdconvLayer", "OffsetField",
    "Rng", "SampleGrid", "ShapeError", "ShapeFileError", "STRATEGIES", "Tensor4",
    "TinyNet", "TrainConfig", "average_offset", "base_grid", "bilinear_backward",
    "bilinear_sample", "conv2d_reference", "evaluate", "gen_initial_coords",
    "growth_audit", "load_custom_shape", "load_idx", "load_net", "rand_uniform",
    "read_tensors", "save_net", "shape_ao_compare", "synthetic_bars", "train",
    "write_tensors",
]
