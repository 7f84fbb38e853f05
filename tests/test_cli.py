"""Command-line behaviour: exit codes, artifacts, and reproducibility.

Exit-code contract: 0 success, 1 quantitative failure, 2 usage/input error.
"""

import json

import numpy as np
import pytest

from ldconv.cli import main
from ldconv.report import RunReport
from ldconv.tensor import Rng, Tensor4, write_tensors
from ldconv.training import TinyNet, TrainConfig, save_net, synthetic_bars


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
                 "--out", str(out), "--no-timestamp"])
    assert code == 0
    text = out.read_text()
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<circle") == 7
    assert "generated" not in text       # --no-timestamp strips the stamp


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
    assert report["timestamp"] is None
    assert report["metrics"]["passed"] is True


def test_check_grad_sabotage_fails(capsys):
    code = main(["check-grad", "--dims", "1,2,5,5", "--sabotage"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_grad_bad_dims(capsys):
    assert main(["check-grad", "--dims", "1,2,3"]) == 2


# -- bench ------------------------------------------------------------------------


def test_bench_runs_and_reports(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = main(["bench", "--dims", "1,8,10,10", "--iters", "2",
                 "--warmup", "0", "--out", str(out), "--no-timestamp"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["dims"] == [1, 8, 10, 10]
    assert 0 < report["metrics"]["median_ms"] <= report["metrics"]["p90_ms"]
    assert "median=" in capsys.readouterr().out


def test_bench_rejects_zero_iters(capsys):
    assert main(["bench", "--iters", "0"]) == 2
    assert "--iters" in capsys.readouterr().err


def test_bench_dims_channel_mismatch(capsys):
    assert main(["bench", "--dims", "1,4,8,8", "--c-in", "8"]) == 2


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
    assert report["timestamp"] is None
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


def test_train_blow_up_is_a_divergence_not_a_usage_error(tmp_path, capsys):
    # lr=1e30 overflows the activations within a few steps; the non-finite
    # offset field that follows is a training failure (exit 1), not bad input
    cfg = _tiny_config(tmp_path, lr=1e30, epochs=2, subset=32)
    with np.errstate(all="ignore"):
        code = main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")])
    assert code == 1
    assert "non-finite values at epoch 1, batch 2" in capsys.readouterr().err
    # a malformed config is still a usage error
    cfg = _tiny_config(tmp_path, lr=-1.0)
    assert main(["train", str(cfg), "--synthetic", "--out", str(tmp_path / "run")]) == 2


def test_train_missing_config_file(tmp_path):
    assert main(["train", str(tmp_path / "nope.json"), "--synthetic",
                 "--out", str(tmp_path / "run")]) == 2


# -- analyze-ao -------------------------------------------------------------------


def _make_checkpoint(tmp_path, name, n=5, seed=0):
    cfg = TrainConfig(n1=n, n2=n)
    net = TinyNet.create(n1=n, n2=n, strategy=cfg.strategy, post=cfg.post,
                         rng=Rng(seed))
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
                 "--probe", str(probe), "--out", str(out_dir), "--no-timestamp"])
    assert code == 0
    for name in ("ao_0.csv", "ao_1.csv", "shape_0.svg", "shape_1.svg",
                 "ao_compare.svg", "report.json"):
        assert (out_dir / name).exists(), name
    chart = (out_dir / "ao_compare.svg").read_text()
    assert "a.ldt" in chart and "b.ldt" in chart
    assert "mean_ao" in capsys.readouterr().out


def test_analyze_ao_architecture_mismatch(tmp_path, capsys):
    ck_a = _make_checkpoint(tmp_path, "a.ldt", n=5)
    ck_b = _make_checkpoint(tmp_path, "b.ldt", n=3)
    probe = _make_probe(tmp_path)
    code = main(["analyze-ao", "--checkpoint", str(ck_a), "--checkpoint", str(ck_b),
                 "--probe", str(probe), "--out", str(tmp_path / "ao")])
    assert code == 2
    assert "architecture" in capsys.readouterr().err


# -- growth -----------------------------------------------------------------------


def test_growth_audit_outputs(tmp_path):
    out_dir = tmp_path / "growth"
    code = main(["growth", "--c-in", "16", "--c-out", "32", "--n-max", "16",
                 "--out", str(out_dir), "--no-timestamp"])
    assert code == 0
    lines = (out_dir / "growth.csv").read_text().splitlines()
    assert len(lines) == 17
    deltas = {line.split(",")[3] for line in lines[2:]}
    assert deltas == {"802"}
    chart = (out_dir / "growth.svg").read_text()
    assert "deformable params (linear)" in chart
    assert "k x k conv params (quadratic)" in chart
    report = json.loads((out_dir / "report.json").read_text())
    assert len(report["metrics"]["rows"]) == 16
    row = report["metrics"]["rows"][1]
    assert set(row) == {"n", "params", "flops", "delta_params", "std_k", "std_params"}
    assert (row["n"], row["delta_params"], row["std_k"]) == (2, 802, 2)


def test_growth_single_row(tmp_path):
    out_dir = tmp_path / "g1"
    assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "1",
                 "--out", str(out_dir), "--no-timestamp"]) == 0
    lines = (out_dir / "growth.csv").read_text().splitlines()
    assert len(lines) == 2


def test_growth_rejects_bad_n_max(tmp_path):
    assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "0",
                 "--out", str(tmp_path / "g")]) == 2


def test_growth_reports_identical_across_directories(tmp_path):
    for name in ("a", "b"):
        assert main(["growth", "--c-in", "4", "--c-out", "8", "--n-max", "4",
                     "--out", str(tmp_path / name), "--no-timestamp"]) == 0
    assert (tmp_path / "a" / "report.json").read_bytes() == \
        (tmp_path / "b" / "report.json").read_bytes()
    assert (tmp_path / "a" / "growth.svg").read_bytes() == \
        (tmp_path / "b" / "growth.svg").read_bytes()


# -- parser / report plumbing -------------------------------------------------------


def test_unknown_command_is_usage_error():
    assert main(["frobnicate"]) == 2


def test_run_report_round_trip():
    report = RunReport(command="x", config={"a": 1}, timestamp=None,
                       metrics={"loss": [1.0, 0.5]}, artifacts={"csv": "out.csv"})
    back = RunReport(**json.loads(report.to_json()))
    assert back == report
    assert report.to_json().endswith("\n")
    assert json.loads(report.to_json())["metrics"]["loss"] == [1.0, 0.5]
