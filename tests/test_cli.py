"""Command-line behaviour: exit codes, artifacts, and reproducibility.

Exit-code contract: 0 success, 1 quantitative failure, 2 usage/input error.
"""

import json
import re
import shlex
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ldconv import training
from ldconv.cli import build_parser, main
from ldconv.geometry import MAX_COORD, gen_initial_coords
from ldconv.tensor import Rng, Tensor4, read_tensors, write_tensors
from ldconv.training import TinyNet, TrainConfig, load_net, save_net, synthetic_bars


def _tiny_config(tmp_path, **overrides):
    cfg = {"epochs": 1, "subset": 16, "eval_subset": 8, "batch": 8, "seed": 1}
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# -- gen-coords -------------------------------------------------------------------


def test_gen_coords_csv_stdout(capsys):
    assert main(["gen-coords", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["index,row,col", "0,0,0", "1,0,1",
                                "2,1,0", "3,1,1", "4,2,0"]


def test_gen_coords_svg_requires_out(capsys):
    assert main(["gen-coords", "--n", "5", "--format", "svg"]) == 2
    assert "requires --out" in capsys.readouterr().err


def test_gen_coords_svg_written(tmp_path):
    out = tmp_path / "shape.svg"
    code = main(["gen-coords", "--n", "7", "--format", "svg",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 7


def test_gen_coords_svg_identical_across_directories(tmp_path):
    for name in ("a", "b"):
        assert main(["gen-coords", "--n", "7", "--format", "svg",
                     "--out", str(tmp_path / name / "shape.svg")]) == 0
    assert (tmp_path / "a" / "shape.svg").read_bytes() == \
        (tmp_path / "b" / "shape.svg").read_bytes()


def test_gen_coords_rejects_nonpositive_n(capsys):
    assert main(["gen-coords", "--n", "0"]) == 2
    assert "kernel size" in capsys.readouterr().err


def test_gen_coords_shape_file(tmp_path, capsys):
    shape = tmp_path / "plus.txt"
    shape.write_text("# plus\n0 1\n1 0\n1 1\n1 2\n2 1\n")
    assert main(["gen-coords", "--shape-file", str(shape)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,1"


def test_gen_coords_duplicate_shape_file(tmp_path, capsys):
    shape = tmp_path / "dup.txt"
    shape.write_text("0 0\n0 0\n")
    assert main(["gen-coords", "--shape-file", str(shape)]) == 2
    assert "duplicate coordinate" in capsys.readouterr().err


def test_gen_coords_refuses_a_coordinate_above_the_bound(tmp_path, capsys):
    # float() of a 401-digit row raised OverflowError, not a usage error
    shape = tmp_path / "far.txt"
    shape.write_text(f"0 0\n{10**400} 0\n")
    assert main(["gen-coords", "--shape-file", str(shape)]) == 2
    assert f"above {MAX_COORD}" in capsys.readouterr().err


@pytest.mark.parametrize("far", [(100_000, 0), (MAX_COORD, MAX_COORD)])
def test_gen_coords_svg_stays_small_for_a_wide_shape(tmp_path, far):
    # one grid line and label per unit made row 100000 an 18.7 MB drawing
    shape = tmp_path / "far.txt"
    shape.write_text(f"0 0\n{far[0]} {far[1]}\n")
    out = tmp_path / "far.svg"
    assert main(["gen-coords", "--shape-file", str(shape), "--format", "svg",
                 "--out", str(out)]) == 0
    assert out.stat().st_size < 64 * 1024
    ET.parse(out)


def test_gen_coords_needs_exactly_one_source():
    assert main(["gen-coords"]) == 2


# -- check-grad -------------------------------------------------------------------


def test_check_grad_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "grad.json"
    code = main(["check-grad", "--dims", "1,2,5,5", "--out", str(out)])
    assert code == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l]
    assert all(line.startswith("PASS") for line in lines)
    report = json.loads(out.read_text())
    assert report["command"] == "check-grad"
    assert "timestamp" not in report
    assert report["metrics"]["passed"] is True


def test_check_grad_sabotage_fails(capsys):
    code = main(["check-grad", "--dims", "1,2,5,5", "--sabotage"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_grad_bad_dims(capsys):
    assert main(["check-grad", "--dims", "1,2,3"]) == 2


@pytest.mark.parametrize("eps", ["0", "-0.001", "nan", "inf"])
def test_check_grad_rejects_a_step_that_is_not_finite_and_positive(capsys, eps):
    # a zero step divides by zero in the difference quotient; a negative one
    # only flips its sign and would pass unnoticed
    assert main(["check-grad", "--dims", "1,2,5,5", f"--eps={eps}"]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "--eps must be finite and > 0" in captured.err


@pytest.mark.parametrize("dims", ["1,2,1,5", "1,2,5,1"])
def test_check_grad_refuses_dims_with_an_empty_sampler_grid(capsys, dims):
    # the sampler fixture's grid is (H-1) x (W-1): a PASS there checked nothing
    assert main(["check-grad", "--dims", dims, "--f64"]) == 2
    captured = capsys.readouterr()
    assert "PASS" not in captured.out
    assert "H, W >= 2" in captured.err


# -- bench ------------------------------------------------------------------------


def test_bench_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--dims", "1,8,10,10", "--iters", "2",
                 "--warmup", "0", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["dims"] == [1, 8, 10, 10]
    assert (report["config"]["stride"], report["config"]["post"]) == (1, "none")
    metrics = report["metrics"]
    assert 0 < metrics["median_ms"] <= metrics["p90_ms"]
    assert 0 < metrics["backward_median_ms"] <= metrics["backward_p90_ms"]
    assert metrics["minor_faults_per_iter"] >= 0
    # the process's high-water mark: at least the interpreter and numpy
    assert 10 < metrics["peak_rss_mb"] < 4096
    printed = capsys.readouterr().out
    assert "forward  median=" in printed and "backward median=" in printed
    assert "minor page faults per forward+backward=" in printed
    assert f"peak RSS={metrics['peak_rss_mb']:.1f} MB" in printed
    # the TinyNet layers' setting: stride 2 with the post stage
    assert main(["bench", "--dims", "1,8,10,10", "--stride", "2", "--post",
                 "normalize+activation", "--iters", "2", "--warmup", "0",
                 "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["config"]["stride"], report["config"]["post"]) == (2, "normalize+activation")
    assert report["metrics"]["median_ms"] > 0


def test_bench_rejects_zero_iters(capsys):
    assert main(["bench", "--iters", "0"]) == 2
    assert "--iters" in capsys.readouterr().err


def test_bench_rejects_a_zero_stride(capsys):
    assert main(["bench", "--stride", "0", "--iters", "1"]) == 2
    assert "stride must be >= 1" in capsys.readouterr().err


# -- train ------------------------------------------------------------------------


def test_train_synthetic_end_to_end(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    out_dir = tmp_path / "run"
    code = main(["train", str(cfg), "--synthetic", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "checkpoint.ldt").exists()
    assert (out_dir / "checkpoint.ldt.json").exists()
    assert (out_dir / "ao_ld1.csv").exists()
    assert (out_dir / "ao_ld2.csv").exists()
    report = json.loads((out_dir / "report.json").read_text())
    assert report["command"] == "train"
    assert "timestamp" not in report
    assert len(report["metrics"]["loss"]) == 1
    assert set(report["metrics"]["ao"]) == {"ld1", "ld2"}
    assert "final_acc" in capsys.readouterr().out


def test_train_report_identical_across_directories(tmp_path):
    cfg = _tiny_config(tmp_path)
    for name in ("a", "b"):
        assert main(["train", str(cfg), "--synthetic",
                     "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "checkpoint.ldt").read_bytes() == \
        (tmp_path / "b" / "checkpoint.ldt").read_bytes()


def test_train_requires_data_source(tmp_path, capsys):
    cfg = _tiny_config(tmp_path)
    assert main(["train", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "data_dir" in capsys.readouterr().err


def test_train_rejects_unknown_config_key(tmp_path, capsys):
    cfg = _tiny_config(tmp_path, optimizer="adam")
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(("text", "kind"), [("5", "int"), ("null", "NoneType"),
                                           ("[1]", "list"), ('"ab"', "str")])
def test_train_rejects_a_config_that_is_not_an_object(tmp_path, capsys, text, kind):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert f"config must be a JSON object, got {kind}" in capsys.readouterr().err


def test_train_blow_up_is_a_divergence_not_a_usage_error(tmp_path, capsys):
    # lr=1e30 overflows the activations in the second step: a training
    # failure (exit 1) named by its operation and step, not bad input
    cfg = _tiny_config(tmp_path, lr=1e30, epochs=2, subset=32)
    code = main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "overflow encountered in square at epoch 1, batch 2" in capsys.readouterr().err
    # a malformed config is still a usage error
    cfg = _tiny_config(tmp_path, lr=-1.0)
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2


def test_train_finite_blow_up_exits_1(tmp_path, capsys):
    # lr=1e6 keeps the loss finite for a while; the overflow inside a step
    # is the divergence, not a report of a run that learnt nothing
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"lr": 1e6, "epochs": 2, "subset": 256}))
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "overflow encountered in" in err and " at epoch " in err
    assert not (tmp_path / "run" / "report.json").exists()


def test_train_rejects_old_strategy_key(tmp_path, capsys):
    # the layout label selects no code and is no longer a config key
    cfg = _tiny_config(tmp_path, strategy="channel-stack-1x1")
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert "unknown config keys: ['strategy']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(("key", "value"), [("epochs", "2"), ("batch", 8.5), ("n1", 2.5),
                                            ("eval_subset", 0), ("eval_subset", -1)])
def test_train_rejects_bad_config_values(tmp_path, capsys, key, value):
    cfg = _tiny_config(tmp_path, **{key: value})
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("lr", [float("nan"), float("inf")])
def test_train_rejects_non_finite_lr(tmp_path, capsys, lr):
    cfg = _tiny_config(tmp_path, lr=lr)       # written as JSON NaN / Infinity
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2
    assert "lr must be finite" in capsys.readouterr().err


def test_train_missing_config_file(tmp_path):
    assert main(["train", str(tmp_path / "nope.json"), "--synthetic",
                 "--out", str(tmp_path / "run")]) == 2


# -- analyze-ao -------------------------------------------------------------------


def _make_checkpoint(tmp_path, name, n=5, seed=0):
    cfg = TrainConfig(n1=n, n2=n)
    net = TinyNet.create(n1=n, n2=n, post=cfg.post, rng=Rng(seed))
    path = tmp_path / name
    save_net(net, path, cfg)
    return path


def _make_probe(tmp_path):
    probe = synthetic_bars(4, Rng(0), stream="probe")
    path = tmp_path / "probe.ldt"
    write_tensors(path, {"probe": Tensor4(probe.images)})
    return path


def test_analyze_ao_outputs(tmp_path, capsys):
    ck_a = _make_checkpoint(tmp_path, "a.ldt", seed=0)
    ck_b = _make_checkpoint(tmp_path, "b.ldt", seed=1)
    probe = _make_probe(tmp_path)
    out_dir = tmp_path / "ao"
    code = main(["analyze-ao", "--checkpoint", str(ck_a), "--checkpoint", str(ck_b),
                 "--probe", str(probe), "--out", str(out_dir)])
    assert code == 0
    for name in ("ao_0.csv", "ao_1.csv", "shape_0.svg", "shape_1.svg",
                 "ao_compare.svg", "report.json"):
        assert (out_dir / name).exists(), name
    chart = (out_dir / "ao_compare.svg").read_text()
    assert "a.ldt" in chart and "b.ldt" in chart
    assert "mean_ao" in capsys.readouterr().out


def test_analyze_ao_outputs_identical_across_directories(tmp_path):
    ck_a = _make_checkpoint(tmp_path, "a.ldt", seed=0)
    ck_b = _make_checkpoint(tmp_path, "b.ldt", seed=1)
    probe = _make_probe(tmp_path)
    for name in ("x", "y"):
        assert main(["analyze-ao", "--checkpoint", str(ck_a), "--checkpoint", str(ck_b),
                     "--probe", str(probe), "--out", str(tmp_path / name)]) == 0
    names = sorted(path.name for path in (tmp_path / "x").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "y").iterdir())
    assert len(names) == 6
    for name in names:
        assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes(), name


def test_analyze_ao_svgs_parse_with_markup_in_the_checkpoint_name(tmp_path):
    ck = _make_checkpoint(tmp_path, "a&b<1>.ldt")
    out_dir = tmp_path / "ao"
    assert main(["analyze-ao", "--checkpoint", str(ck), "--probe", str(_make_probe(tmp_path)),
                 "--out", str(out_dir)]) == 0
    for name, title in (("shape_0.svg", "kernel shape: a&b<1>.ldt"),
                        ("ao_compare.svg", "a&b<1>.ldt")):
        svg = ET.parse(out_dir / name)          # ParseError unless well-formed
        assert title in [el.text for el in svg.iter("{http://www.w3.org/2000/svg}text")], name


def test_analyze_ao_loads_each_checkpoint_once(tmp_path, monkeypatch):
    ck_a = _make_checkpoint(tmp_path, "a.ldt", seed=0)
    ck_b = _make_checkpoint(tmp_path, "b.ldt", seed=1)
    probe = _make_probe(tmp_path)
    reads = []
    real_read = training.read_tensors

    def counting_read(path):            # load_net reads the container with this
        reads.append(Path(path).name)
        return real_read(path)

    monkeypatch.setattr(training, "read_tensors", counting_read)
    assert main(["analyze-ao", "--checkpoint", str(ck_a), "--checkpoint", str(ck_b),
                 "--probe", str(probe), "--out", str(tmp_path / "ao")]) == 0
    assert reads == ["a.ldt", "b.ldt"]


def test_analyze_ao_architecture_mismatch(tmp_path, capsys):
    ck_a = _make_checkpoint(tmp_path, "a.ldt", n=5)
    ck_b = _make_checkpoint(tmp_path, "b.ldt", n=3)
    probe = _make_probe(tmp_path)
    code = main(["analyze-ao", "--checkpoint", str(ck_a), "--checkpoint", str(ck_b),
                 "--probe", str(probe), "--out", str(tmp_path / "ao")])
    assert code == 2
    assert "architecture" in capsys.readouterr().err


def test_analyze_ao_refuses_a_classifier_narrower_than_ld2(tmp_path, capsys):
    # the sidecar fixes fc.w at (classes, ld2.c_out) = (10, 16); a (10, 12)
    # record must be refused at load, not at the first forward's matmul
    path = _make_checkpoint(tmp_path, "narrow.ldt")
    records = read_tensors(path)
    records["fc.w"] = Tensor4(np.zeros((10, 12, 1, 1), dtype=np.float32))
    write_tensors(path, records)
    with pytest.raises(ValueError, match="'fc.w'"):
        load_net(path)
    code = main(["analyze-ao", "--checkpoint", str(path), "--probe", str(_make_probe(tmp_path)),
                 "--out", str(tmp_path / "ao")])
    assert code == 2
    assert "'fc.w'" in capsys.readouterr().err


def test_analyze_ao_refuses_offsets_that_overflow_float32(tmp_path, capsys):
    # a finite 1e38 offset bias overflowed the AO sums: RuntimeWarnings, exit 0,
    # and a report.json holding "std": NaN, which is not JSON
    path = _make_checkpoint(tmp_path, "huge.ldt")
    records = read_tensors(path)
    records["ld2.offset_b"] = Tensor4(np.full(records["ld2.offset_b"].dims, 1e38, np.float32))
    write_tensors(path, records)
    code = main(["analyze-ao", "--checkpoint", str(path), "--probe", str(_make_probe(tmp_path)),
                 "--out", str(tmp_path / "ao")])
    assert code == 2
    assert "huge.ldt: overflow encountered" in capsys.readouterr().err
    assert not (tmp_path / "ao").exists()


def test_analyze_ao_refuses_an_empty_probe_batch(tmp_path, capsys):
    probe = tmp_path / "empty.ldt"
    write_tensors(probe, {"probe": Tensor4(np.zeros((0, 1, 28, 28), dtype=np.float32))})
    code = main(["analyze-ao", "--checkpoint", str(_make_checkpoint(tmp_path, "a.ldt")),
                 "--probe", str(probe), "--out", str(tmp_path / "ao")])
    assert code == 2
    assert "input batch 0, extent 28x28 is empty" in capsys.readouterr().err


COORDS_MESSAGE = "sidecar key 'coords' is not a non-empty list of integer pairs"


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


@pytest.mark.parametrize(("damage", "message"), [
    (lambda s: {**s, "ld2": _without(s["ld2"], "stride")}, "sidecar has no key 'stride'"),
    (lambda s: _without(s, "classes"), "sidecar has no key 'classes'"),
    (lambda s: [1, 2], "sidecar is not a JSON object"),
    (lambda s: {**s, "ld1": 5}, "sidecar entry 'ld1' is not a JSON object"),
    (lambda s: {**s, "ld1": {**s["ld1"], "n": None}}, "sidecar key 'n' is not an integer: None"),
    (lambda s: {**s, "ld1": {**s["ld1"], "coords": 5}}, COORDS_MESSAGE),
    (lambda s: {**s, "ld1": {**s["ld1"], "coords": [[1.5, 0], [0, 0]]}}, COORDS_MESSAGE),
    (lambda s: {**s, "ld1": {**s["ld1"], "coords": [[True, 0], [0, 0]]}}, COORDS_MESSAGE),
    (lambda s: {**s, "ld1": {**s["ld1"], "coords": []}}, COORDS_MESSAGE),
    # the layer has no padding, so the format's padding is always 0
    (lambda s: {**s, "ld1": {**s["ld1"], "padding": 1}}, "sidecar key 'padding' is 1, not 0"),
    (lambda s: {**s, "ld1": {**s["ld1"], "padding": 65}}, "sidecar key 'padding' is 65, not 0"),
    (lambda s: {**s, "ld2": {**s["ld2"], "padding": 10**6}},
     "sidecar key 'padding' is 1000000, not 0"),
    # no record holds it
    (lambda s: {**s, "ld2": {**s["ld2"], "stride": 10**6}},
     "sidecar key 'stride' is 1000000, above 64"),
], ids=["no-ld2-stride", "no-classes", "not-an-object", "ld1-not-an-object", "null-n",
        "int-coords", "float-coords", "bool-coords", "empty-coords", "ld1-padding-1",
        "ld1-padding-65", "ld2-padding-1e6", "ld2-stride-1e6"])
def test_analyze_ao_refuses_a_damaged_sidecar(tmp_path, capsys, damage, message):
    path = _make_checkpoint(tmp_path, "damaged.ldt")
    sidecar_path = Path(str(path) + ".json")
    sidecar_path.write_text(json.dumps(damage(json.loads(sidecar_path.read_text()))))
    with pytest.raises(ValueError, match=f"damaged.ldt: {message}"):
        load_net(path)
    code = main(["analyze-ao", "--checkpoint", str(path), "--probe", str(_make_probe(tmp_path)),
                 "--out", str(tmp_path / "ao")])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(("damage", "record"), [
    (lambda s: {**s, "classes": 10**12}, "fc.w"),
    (lambda s: {**s, "ld2": {**s["ld2"], "c_out": 10**12}}, "ld2.agg_w"),
    (lambda s: {**s, "ld1": {**s["ld1"], "n": 200_000}}, "ld1.agg_w"),
], ids=["classes", "ld2-c_out", "ld1-n"])
def test_analyze_ao_refuses_sidecar_integers_before_allocating(tmp_path, capsys, damage, record):
    # these sized arrays from the sidecar before any record was compared:
    # MemoryError out of main for 10**12, 48.7 MiB traced and 2 s for n=200000
    path = _make_checkpoint(tmp_path, "big.ldt")
    probe = _make_probe(tmp_path)
    sidecar_path = Path(str(path) + ".json")
    sidecar_path.write_text(json.dumps(damage(json.loads(sidecar_path.read_text()))))
    tracemalloc.start()
    try:
        code = main(["analyze-ao", "--checkpoint", str(path), "--probe", str(probe),
                     "--out", str(tmp_path / "ao")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"record {record!r} has dims" in err and "Traceback" not in err
    assert peak < 1 << 20


def _with_ld2_point(path, point):
    """Rewrite the checkpoint's sidecar so ld2's last kernel point is point."""
    sidecar_path = Path(str(path) + ".json")
    sidecar = json.loads(sidecar_path.read_text())
    coords = [list(pair) for pair in gen_initial_coords(sidecar["ld2"]["n"]).coords]
    sidecar["ld2"]["coords"] = coords[:-1] + [list(point)]
    sidecar_path.write_text(json.dumps(sidecar))


def test_analyze_ao_refuses_a_sidecar_coordinate_above_the_bound(tmp_path, capsys):
    path = _make_checkpoint(tmp_path, "far.ldt")
    probe = _make_probe(tmp_path)
    # -10**400 escaped as an OverflowError from float(): a traceback and exit 1
    for point, message in (((10**400, 0), f"above {MAX_COORD}"),
                           ((-10**400, 0), "negative coordinate")):
        _with_ld2_point(path, point)
        code = main(["analyze-ao", "--checkpoint", str(path), "--probe", str(probe),
                     "--out", str(tmp_path / "ao")])
        assert code == 2
        assert message in capsys.readouterr().err


def test_analyze_ao_shape_svg_stays_small_for_a_wide_sidecar_shape(tmp_path):
    path = _make_checkpoint(tmp_path, "far.ldt")
    _with_ld2_point(path, (100_000, 0))
    out_dir = tmp_path / "ao"
    assert main(["analyze-ao", "--checkpoint", str(path), "--probe", str(_make_probe(tmp_path)),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "shape_0.svg").stat().st_size < 64 * 1024
    ET.parse(out_dir / "shape_0.svg")


# -- growth -----------------------------------------------------------------------


def test_growth_audit_outputs(tmp_path):
    out_dir = tmp_path / "growth"
    code = main(["growth", "--c-in", "16", "--c-out", "32", "--n-max", "16",
                 "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "growth.csv").read_text().splitlines()
    assert len(lines) == 17
    deltas = {line.split(",")[3] for line in lines[2:]}
    assert deltas == {"802"}
    chart = (out_dir / "growth.svg").read_text()
    assert "deformable params (linear)" in chart
    assert "k x k conv params (quadratic)" in chart
    text = (out_dir / "report.json").read_text()
    report = json.loads(text)
    # every report: exactly these four keys, sorted, 2-space indent, one trailing newline
    assert list(report) == ["artifacts", "command", "config", "metrics"]
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert "timestamp" not in text
    assert report["command"] == "growth"
    assert report["config"] == {"c_in": 16, "c_out": 32, "n_max": 16}
    assert report["artifacts"] == {"csv": "growth.csv", "svg": "growth.svg"}
    assert len(report["metrics"]["rows"]) == 16
    row = report["metrics"]["rows"][1]
    assert set(row) == {"n", "params", "flops", "delta_params", "std_k", "std_params"}
    assert (row["n"], row["delta_params"], row["std_k"]) == (2, 802, 2)


def test_growth_single_row(tmp_path):
    out_dir = tmp_path / "g1"
    assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "1",
                 "--out", str(out_dir)]) == 0
    lines = (out_dir / "growth.csv").read_text().splitlines()
    assert len(lines) == 2


def test_growth_rejects_bad_n_max(tmp_path):
    assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "0",
                 "--out", str(tmp_path / "g")]) == 2


@pytest.mark.parametrize("c_in", ["0", "-1"])
def test_growth_rejects_a_channel_count_below_one(tmp_path, capsys, c_in):
    # the fan-in bound divides by c_in, so the check has to come first
    assert main(["growth", f"--c-in={c_in}", "--c-out", "8", "--n-max", "3",
                 "--out", str(tmp_path / "g")]) == 2
    assert "channel counts must be >= 1" in capsys.readouterr().err


def test_growth_reports_identical_across_directories(tmp_path):
    for name in ("a", "b"):
        assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "4",
                     "--out", str(tmp_path / name)]) == 0
    for name in ("report.json", "growth.csv", "growth.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


# -- parser / report plumbing -------------------------------------------------------


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    assert main(["gen-coords", "--n", "2"]) == 0
    assert main(["gen-coords", "--n", "3", "--bogus"]) == 2
    assert build_parser.cache_info().misses == 1
    # argparse finds sys.stderr when it prints, so the cached parser's usage
    # errors still reach whatever stream is installed then
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gen-coords", "--n", "5", "--format", "svg"],
                                  ["bench"], ["analyze-ao", "--checkpoint", "c.ldt",
                                              "--probe", "p.ldt"],
                                  ["growth", "--c-in", "4", "--c-out", "8", "--n-max", "2"]])
def test_no_timestamp_is_a_usage_error(tmp_path, capsys, argv):
    # no artifact holds the wall-clock time, so there is nothing to turn off
    assert main(argv + ["--out", str(tmp_path / "out"), "--no-timestamp"]) == 2
    assert "unrecognized arguments: --no-timestamp" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_readme_layout_table_matches_src():
    root = Path(__file__).resolve().parents[1]
    table = (root / "README.md").read_text().split("## Layout\n", 1)[1].split("\n## ", 1)[0]
    paths = re.findall(r"^\| `([^`]+)` \|", table, flags=re.M)
    assert [path for path in paths if not (root / path).exists()] == []
    modules = {f"src/ldconv/{p.name}" for p in (root / "src" / "ldconv").glob("*.py")}
    assert modules - {"src/ldconv/__init__.py"} <= set(paths)


def test_readme_cli_commands_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert commands and all(argv[0] == "ldconv" for argv in commands)
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
