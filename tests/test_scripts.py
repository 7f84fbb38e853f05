"""Smoke runs of the experiment scripts at a tiny size."""

import importlib.util
from pathlib import Path

from ldconv.training import load_net

_ROOT = Path(__file__).resolve().parent.parent


def _script(name):
    spec = importlib.util.spec_from_file_location(name, _ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_train_synthetic_sweep(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    code = _script("train_synthetic").main(
        ["--n-values", "1,3", "--epochs", "1", "--subset", "64", "--eval-subset", "32",
         "--out", str(out_dir)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# synthetic bars, 64 train / 32 eval, 1 epochs, seed 0"
    assert lines[1].split() == ["n", "params", "eval", "acc", "ao", "ld1", "ao", "ld2", "secs"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == ["1", "3"]
    for row in rows:
        net, sidecar = load_net(out_dir / f"net_n{row[0]}.ldt")
        assert int(row[1]) == net.param_count()
        assert sidecar["config"]["n1"] == int(row[0])
        assert 0.0 <= float(row[2]) <= 1.0


def test_compare_shape_ao(tmp_path, capsys):
    out_dir = tmp_path / "shape_ao"
    code = _script("compare_shape_ao").main(
        ["--shape", str(_ROOT / "shapes" / "plus_5.txt"), "--epochs", "1", "--subset", "64",
         "--probe-size", "8", "--out", str(out_dir)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[:2]] == [["trained", "generated"],
                                                        ["trained", "plus_5"]]
    table = lines[lines.index("AO of the last deformable layer on a shared 8-image probe:") + 1:]
    assert table[0].split() == ["variant", "ao", "mean", "ao", "std"]
    assert [row.split()[0] for row in table[1:]] == ["generated", "plus_5"]
    for row in table[1:]:
        assert float(row.split()[1]) >= 0.0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "generated.ldt", "generated.ldt.json", "plus_5.ldt", "plus_5.ldt.json"]


def _run(workload, pair, side, exit_code=0, **metrics):
    return {"workload": workload, "seed": 1, "pair": pair, "side": side, "exit": exit_code,
            "metrics": metrics}


def test_ab_bench_summary_counts_pair_wins_by_direction():
    better = {"peak_rss_mb": "lower", "img_per_s": "higher"}
    runs = [
        _run("stress_layer", 0, "base", peak_rss_mb=60.0, img_per_s=100.0),
        _run("stress_layer", 0, "change", peak_rss_mb=56.0, img_per_s=90.0),
        _run("stress_layer", 1, "change", peak_rss_mb=57.0, img_per_s=110.0),
        _run("stress_layer", 1, "base", peak_rss_mb=57.0, img_per_s=100.0),
        _run("stress_layer", 2, "base", peak_rss_mb=62.0, img_per_s=105.0),
        _run("stress_layer", 2, "change", 1),                  # crashed: no metrics
        _run("infer_eval", 0, "base", peak_rss_mb=61.0),
        _run("infer_eval", 0, "change", peak_rss_mb=62.0),
    ]
    summary = _script("ab_bench").summarize(runs, better)
    assert list(summary) == ["stress_layer seed 1", "infer_eval seed 1"]
    stress = summary["stress_layer seed 1"]
    assert stress["exit_codes"] == {"base": [0, 0, 0], "change": [0, 0, 1]}
    rss = stress["metrics"]["peak_rss_mb"]
    # the crashed pair counts for neither side; the equal pair is a tie
    assert rss["wins"] == {"change": 1, "base": 0, "ties": 1, "pairs": 2}
    assert rss["base"] == {"n": 3, "median": 60.0, "q1": 58.5, "q3": 61.0}
    assert rss["change"] == {"n": 2, "median": 56.5, "q1": 56.25, "q3": 56.75}
    assert stress["metrics"]["img_per_s"]["wins"] == {"change": 1, "base": 1, "ties": 0,
                                                      "pairs": 2}
    infer = summary["infer_eval seed 1"]["metrics"]
    assert infer["peak_rss_mb"]["wins"] == {"change": 0, "base": 1, "ties": 0, "pairs": 1}
    assert infer["peak_rss_mb"]["change"] == {"n": 1, "median": 62.0, "q1": 62.0, "q3": 62.0}
    assert infer["img_per_s"]["wins"]["pairs"] == 0
    assert infer["img_per_s"]["base"]["median"] is None


def test_ab_bench_keeps_failed_checks_and_the_stderr_of_a_failed_run(tmp_path):
    # a run that fails a check still prints both result lines, so its stderr
    # tail was dropped and the failed check's name was never kept
    stub = tmp_path / "perfbench" / "run.py"
    stub.parent.mkdir()
    stub.write_text(
        "import json, sys\n"
        "print('ok   stress_layer shapes: fine', file=sys.stderr)\n"
        "print('FAIL stress_layer float32_outputs: err 1e-2', file=sys.stderr)\n"
        "print(json.dumps({'env': {'blas_threads': 1}, 'failed_checks': ['float32_outputs']}))\n"
        "print(json.dumps({'correct': False, 'metrics': {'img_per_s': {'value': 5.0}}}))\n"
        "sys.exit(1)\n")
    record = _script("ab_bench").run_once(tmp_path, "stress_layer", 1, 1.0)
    assert record["exit"] == 1 and record["correct"] is False
    assert record["metrics"] == {"img_per_s": 5.0}
    assert record["failed_checks"] == ["float32_outputs"]
    assert record["stderr_tail"] == ["ok   stress_layer shapes: fine",
                                     "FAIL stress_layer float32_outputs: err 1e-2"]
