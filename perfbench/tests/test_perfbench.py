"""Tests of the benchmark itself: exact counts, span bookkeeping, checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spans
import workloads
import worker
from ldconv import layer, training
from spans import Tracer
from workloads import WORKLOADS, Clock, Patches, SetupDone

ROOT = Path(__file__).resolve().parents[2]

EXACT = ("sampler.samples", "sampler.bytes_computed", "sampler.clamp_fraction",
         "layer.macs", "layer.calls", "tensor.write_tensors.bytes",
         "layer.ld1.samples", "layer.ld2.samples",
         "layer.ld1.clamp_fraction", "layer.ld2.clamp_fraction")
SMALL_TRAIN = {"epochs": 1, "subset": 64, "eval_subset": 32}


def traced_run(name, seed, work_dir, **kwargs):
    """One traced round in this process; returns (per-layer metrics, workload)."""
    tracer = Tracer()
    clock = Clock(tracer)
    wl = WORKLOADS[name](seed, clock, work_dir, **kwargs)
    rounds = worker.measure(wl, tracer, Patches(), seconds=0)
    return tracer.metrics(clock.steps, len(rounds), worker.img_per_s(rounds)), wl


@pytest.mark.parametrize("name,kwargs", [("train_bars", SMALL_TRAIN),
                                         ("stress_layer", {}),
                                         ("infer_eval", {})])
def test_counts_repeat_exactly(name, kwargs, tmp_path):
    first, _ = traced_run(name, 3, tmp_path / "a", **kwargs)
    second, _ = traced_run(name, 3, tmp_path / "b", **kwargs)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first["sampler.samples"] > 0 and first["layer.macs"] > 0


def test_stress_counts_match_the_shape(tmp_path):
    metrics, _ = traced_run("stress_layer", 1, tmp_path)
    b_n, c_in, h_n, w_n = workloads.STRESS_DIMS
    samples = b_n * workloads.STRESS_N * h_n * w_n      # stride 1, padding 0
    assert metrics["sampler.samples"] == samples
    assert metrics["sampler.bytes_computed"] == 4 * samples * ((2 + 5 * c_in) + (4 + 9 * c_in))
    assert metrics["layer.calls"] == 2
    probe = layer.LdconvLayer.create(workloads.STRESS_N, c_in, workloads.STRESS_C_OUT)
    assert metrics["layer.macs"] == b_n * probe.flops_estimate(h_n, w_n)
    assert 0 < metrics["sampler.clamp_fraction"] < 1


def test_train_counts_per_instance_and_checkpoint(tmp_path):
    metrics, wl = traced_run("train_bars", 2, tmp_path, **SMALL_TRAIN)
    assert metrics["layer.ld1.samples"] + metrics["layer.ld2.samples"] \
        == metrics["sampler.samples"]
    assert metrics["tensor.write_tensors.bytes"] == \
        (tmp_path / "run" / "checkpoint.ldt").stat().st_size
    assert metrics["cli.main.self_ms"] > 0
    assert len(wl.clock.steps) == SMALL_TRAIN["subset"] // training.TrainConfig.batch


def test_self_times_partition_the_rounds(tmp_path):
    metrics, _ = traced_run("infer_eval", 1, tmp_path)
    parts = metrics["trace.module_self_ms"] + metrics["trace.glue_ms"] \
        + metrics["trace.overhead_ms"]
    assert parts == pytest.approx(metrics["trace.step_ms"], rel=1e-9)
    module_sum = sum(metrics[f"{name}.self_ms"] for name in spans.MODULE_SPANS)
    assert module_sum == pytest.approx(metrics["trace.module_self_ms"], rel=1e-9)
    per_instance = sum(metrics[f"layer.{inst}.forward.self_ms"] for inst in spans.INSTANCES)
    assert per_instance == pytest.approx(metrics["layer.forward.self_ms"], rel=1e-9)


def test_every_per_layer_name_is_reported(tmp_path):
    metrics, _ = traced_run("stress_layer", 1, tmp_path)
    assert list(metrics) == spans.per_layer_names()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == spans.per_layer_names()


def test_patches_are_undone(tmp_path):
    originals = (layer.bilinear_sample, layer.LdconvLayer.forward,
                 training.TinyNet.forward, training.softmax_cross_entropy)
    traced_run("train_bars", 1, tmp_path, **SMALL_TRAIN)
    assert (layer.bilinear_sample, layer.LdconvLayer.forward,
            training.TinyNet.forward, training.softmax_cross_entropy) == originals


def test_setup_only_stops_at_the_first_step(tmp_path):
    clock = Clock(setup_only=True)
    wl = WORKLOADS["stress_layer"](1, clock, tmp_path)
    with pytest.raises(SetupDone):
        worker.measure(wl, None, Patches(), seconds=10)
    assert clock.first_step is not None and clock.steps == []


def test_output_checks_catch_a_wrong_output():
    lay, x, upstream = workloads.stress_fixture(0)
    got = workloads.stress_outputs(lay, x, upstream)
    ref = workloads.stress_reference(0)
    stored = workloads.fingerprint(ref)
    assert all(c.ok for c in workloads.check_outputs(got, ref, stored))
    got["grad_agg_w"] = got["grad_agg_w"] * np.float32(1.0001)
    got["grad_offset_w"] = got["grad_offset_w"].copy()
    got["grad_offset_w"][:3] *= -1          # wrong sign on 3 of 18 offset channels
    failed = [c.name for c in workloads.check_outputs(got, ref, stored) if not c.ok]
    assert failed == ["f32_vs_f64/grad_offset_w", "f32_vs_f64/grad_agg_w"]
    ref["output"] = ref["output"] * 1.000001
    failed = [c.name for c in workloads.check_outputs(got, ref, stored) if not c.ok]
    assert "stored/output" in failed


def test_a_one_percent_coordinate_gradient_error_fails():
    lay, x, upstream = workloads.stress_fixture(0)
    got = workloads.stress_outputs(lay, x, upstream)
    ref = workloads.stress_reference(0)
    noise = np.random.default_rng(0).standard_normal(got["grad_offset_w"].shape)
    scale = 0.01 * np.linalg.norm(ref["grad_offset_w"]) / np.linalg.norm(noise)
    got["grad_offset_w"] = got["grad_offset_w"] + (scale * noise).astype(np.float32)
    failed = [c.name for c in workloads.check_outputs(got, ref, None) if not c.ok]
    assert failed == ["f32_vs_f64/grad_offset_w"]


def test_an_unstored_seed_says_so():
    lay, x, upstream = workloads.stress_fixture(0)
    got = workloads.stress_outputs(lay, x, upstream)
    checks = workloads.check_outputs(got, workloads.stress_reference(0), None)
    [note] = [c for c in checks if c.name == "stored_reference"]
    assert note.detail.startswith("NOT CHECKED")
    assert not any(c.name.startswith("stored/") for c in checks)


@pytest.mark.parametrize("threads,reason", [(1, None), (2, "not 1"), (3, "on 2 CPUs"),
                                            (None, "cannot read")])
def test_refuses_unless_blas_reports_one_thread(threads, reason):
    got = worker.refusal({"blas_threads": threads, "nproc": 2})
    assert got == reason if reason is None else reason in got


def test_this_process_runs_one_blas_thread():
    assert worker.environment()["blas_threads"] == 1


def test_img_per_s_counts_the_whole_round(tmp_path):
    clock = Clock()
    wl = WORKLOADS["infer_eval"](1, clock, tmp_path)
    [(images, wall)] = worker.measure(wl, None, Patches(), seconds=0)
    assert images == workloads.INFER_IMAGES
    # the round also runs offset_fields and average_offset outside the steps
    assert wall > sum(clock.steps)
    assert worker.img_per_s([(images, wall)]) == images / wall


def test_stored_references_match_this_commit():
    import references
    ref = workloads.infer_reference(0)
    prints = workloads.fingerprint(ref)
    stored = references.load("infer_eval", 0)
    assert stored is not None
    assert max(workloads.fingerprint_err(prints[k], stored[k]) for k in stored) \
        <= workloads.REL_TOL_STORED


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stress_layer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_float32_edge_crossings_pass():
    # at seed 21 float32 rounding moves stress coordinates across a cell edge
    lay, x, upstream = workloads.stress_fixture(21)
    got = workloads.stress_outputs(lay, x, upstream)
    ref = workloads.stress_reference(21)
    assert workloads.rel_err(got["grad_x"], ref["grad_x"]) > workloads.REL_TOL_F32
    assert all(c.ok for c in workloads.check_outputs(got, ref, None))
