"""Offset magnitude statistics and parameter/compute growth audits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import KernelGeometry
from .layer import LdconvLayer, NonFiniteError, OffsetField
from .tensor import Rng, Tensor4
from .training import load_net


class IncompatibleCheckpointError(ValueError):
    """Checkpoints under comparison disagree on kernel size or architecture."""


@dataclass(frozen=True)
class AoReport:
    """Mean absolute offset (AO) per position, with batch-level reductions.

    per_position is the raw (B, H_out, W_out) field: at each output cell the
    mean of |offset| over all 2n offset channels.  position_mean averages it
    over the batch, per_sample_mean over space; mean/std summarise the whole
    field.
    """

    per_position: np.ndarray
    position_mean: np.ndarray
    per_sample_mean: np.ndarray
    mean: float
    std: float

    def summary(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "per_sample_mean": [float(v) for v in self.per_sample_mean],
            "position_mean": [[float(v) for v in row] for row in self.position_mean],
        }


def average_offset(offsets: OffsetField) -> AoReport:
    """AO(b, i, j) = sum_k |offset_k(b, i, j)| / 2n over the 2n offset channels.

    The absolute values are sorted before summation so the result is bitwise
    invariant under any permutation of the offset channels.
    """
    data = offsets.data
    twon = data.shape[1]
    magnitudes = np.sort(np.abs(data), axis=1)
    per_position = magnitudes.sum(axis=1) / data.dtype.type(twon)
    return AoReport(
        per_position=per_position,
        position_mean=per_position.mean(axis=0),
        per_sample_mean=per_position.mean(axis=(1, 2)),
        mean=float(per_position.mean()),
        std=float(per_position.std()),
    )


def ao_csv(report: AoReport) -> str:
    """One row per position: b,i,j,ao."""
    return "b,i,j,ao\n" + "".join(f"{b},{i},{j},{float(ao)!r}\n"
                                  for (b, i, j), ao in np.ndenumerate(report.per_position))


# -- growth audit -------------------------------------------------------------


@dataclass(frozen=True)
class GrowthRow:
    n: int
    params: int
    flops: int
    delta_params: int | None
    std_k: int
    std_params: int


GROWTH_EXTENT = 32


def growth_audit(c_in: int, c_out: int, n_range) -> list[GrowthRow]:
    """Parameter/FLOP table over kernel sizes, against k x k standard convs.

    delta_params is the difference to the previous row (empty for the first):
    constant over a contiguous n range because every count is linear in n.
    The companion columns give k = ceil(sqrt(n)) and the weight count
    c_out*c_in*k^2 of the standard convolution that covers the same extent.
    FLOPs are single-image estimates on a 32x32 input (GROWTH_EXTENT).
    """
    n_list = [int(n) for n in n_range]
    if not n_list:
        raise ValueError("n_range is empty")
    if any(n < 1 for n in n_list):
        raise ValueError(f"kernel sizes must be >= 1, got {n_list}")
    if sorted(n_list) != n_list:
        raise ValueError("n_range must be ascending")
    rows: list[GrowthRow] = []
    previous = None
    for n in n_list:
        layer = LdconvLayer.create(n, c_in, c_out, rng=Rng(0))
        params = layer.param_count()
        std_k = math.ceil(math.sqrt(n))
        rows.append(GrowthRow(
            n=n, params=params, flops=layer.flops_estimate(GROWTH_EXTENT, GROWTH_EXTENT),
            delta_params=None if previous is None else params - previous,
            std_k=std_k, std_params=c_out * c_in * std_k * std_k,
        ))
        previous = params
    return rows


def growth_csv(rows: list[GrowthRow]) -> str:
    lines = ["n,params,flops,delta_params,std_k,std_params"]
    for row in rows:
        delta = "" if row.delta_params is None else str(row.delta_params)
        lines.append(f"{row.n},{row.params},{row.flops},{delta},{row.std_k},{row.std_params}")
    return "\n".join(lines) + "\n"


# -- shape comparison ----------------------------------------------------------


def shape_ao_compare(checkpoint_paths,
                     probe: Tensor4) -> list[tuple[str, AoReport, KernelGeometry]]:
    """AO and kernel geometry of the last deformable layer per checkpoint on a shared probe.

    All checkpoints must agree on kernel sizes, channel structure, and stride
    so their AO fields are comparable; only the kernel geometry may differ.
    Parameters that overflow float32 on the probe raise NonFiniteError.
    """
    if not checkpoint_paths:
        raise ValueError("no checkpoints given")
    reports: list[tuple[str, AoReport, KernelGeometry]] = []
    reference = None
    for path in checkpoint_paths:
        net, _ = load_net(path)
        signature = [(ld.n, ld.c_in, ld.c_out, ld.stride) for ld in (net.ld1, net.ld2)]
        if reference is None:
            reference = signature
        elif signature != reference:
            raise IncompatibleCheckpointError(
                f"{path}: architecture {signature} != {reference}")
        try:
            with np.errstate(over="raise", invalid="raise"):
                ao = average_offset(net.offset_fields(probe.data)["ld2"])
        except FloatingPointError as exc:
            raise NonFiniteError(f"{path}: {exc} on the probe") from None
        reports.append((str(path), ao, net.ld2.geometry))
    return reports
