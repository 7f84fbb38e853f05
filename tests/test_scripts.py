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
