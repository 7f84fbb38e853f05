"""Fuzzers: generated inputs through `cli.main`, which must exit 0, 1 or 2 and
never raise, with small generated sizes."""

import contextlib
import functools
import io
import json
import re
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ldconv.cli import main
from ldconv.geometry import MAX_COORD
from ldconv.layer import MAX_SIDECAR_STRIDE
from ldconv.tensor import Rng, Tensor4, rand_uniform, write_tensors
from ldconv.training import TinyNet, save_net

_COORD = st.one_of(st.integers(0, 6), st.integers(-3, -1),
                   st.sampled_from([MAX_COORD, MAX_COORD + 1, 10**400, -10**400,
                                    "9" * 5000, "-" + "9" * 5000, "0" * 5000 + "5",
                                    "-" + "0" * 5000 + "5"]))
_PAIR = st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), _COORD,
                  st.sampled_from([" ", "  ", "\t"]), _COORD)
_JUNK = st.sampled_from(["", "  ", "# note", "#1 2", "5", "1 2 3", "x y", "1.5 2",
                         "--1 0", "1,2", "0 -", "0x1 0"])
_LINES = st.lists(st.one_of(_PAIR, _PAIR, _JUNK), max_size=8)
_INT = re.compile(r"[+-]?[0-9]+")


def _first_bad_line(lines):
    """(line number of the first bad line or None, the points before it)."""
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 2 or not all(map(_INT.fullmatch, parts[:2])):
            return lineno, points
        r, c = (int(Decimal(p)) for p in parts[:2])    # no digit limit, unlike int()
        if len(parts) != 2 or min(r, c) < 0 or max(r, c) > MAX_COORD or (r, c) in points:
            return lineno, points
        points.append((r, c))
    return None, points


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=_LINES, trailing_newline=st.booleans())
def test_gen_coords_fuzzed_shape_files(tmp_path, lines, trailing_newline):
    shape = tmp_path / "shape.txt"
    shape.write_text("\n".join(lines) + ("\n" if trailing_newline else ""))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["gen-coords", "--shape-file", str(shape)])
    bad, points = _first_bad_line(lines)
    if bad is not None:
        assert code == 2 and err.getvalue().startswith(f"error: line {bad}: "), err.getvalue()
    elif not points:
        assert code == 2 and "holds no coordinates" in err.getvalue()
    else:
        assert code == 0, err.getvalue()
        rows = out.getvalue().splitlines()
        assert rows[0] == "index,row,col"
        assert rows[1:] == [f"{k},{r},{c}" for k, (r, c) in enumerate(points)]


# -- checkpoints through analyze-ao ---------------------------------------------------

_SIZING_SPOTS = [("classes",)] + [(layer, key) for layer in ("ld1", "ld2")
                                   for key in ("n", "c_in", "c_out")]
_KEY_SPOTS = [("kind",), ("ld1",), ("ld2",), ("classes",)] + [
    (layer, key) for layer in ("ld1", "ld2")
    for key in ("n", "c_in", "c_out", "stride", "padding", "post")]
_INTS = st.sampled_from([0, -1, 2, MAX_SIDECAR_STRIDE + 1, 10**5, 10**12, True, "5", None, 2.5])
_COORDS = st.sampled_from([5, "x", None, [], [[0, 0]], [[0, 0], [0, 1]], [[-1, 0]],
                           [[10**400, 0]], [[1.5, 0]], [[True, 0]], [[0]], [[100_000, 0]]])
# the keys that size no record: the records' dims pre-check passes, so the
# layer itself reads the edited value
_LAYER_EDIT = st.one_of(
    st.tuples(st.just("set"), st.sampled_from([(layer, key) for layer in ("ld1", "ld2")
                                               for key in ("stride", "padding")]), _INTS),
    st.tuples(st.just("set"), st.sampled_from([("ld1", "post"), ("ld2", "post")]),
              st.sampled_from(["none", "normalize+activation", "", "y" * 5000, 5, None])),
    st.tuples(st.just("set"), st.sampled_from([("ld1", "coords"), ("ld2", "coords")]), _COORDS))
_EDIT = st.one_of(st.tuples(st.just("set"), st.sampled_from(_SIZING_SPOTS), _INTS),
                  st.tuples(st.just("del"), st.sampled_from(_KEY_SPOTS)), _LAYER_EDIT)
_DAMAGE = st.one_of(st.tuples(st.just("flip"), st.integers(0, 1 << 20), st.integers(1, 255)),
                    st.tuples(st.just("cut"), st.integers(0, 1 << 20)))
_DAMAGES = st.one_of(st.just([]), st.lists(_DAMAGE, min_size=1, max_size=2))
# (sidecar edits, container damage): in about half the examples only
# non-sizing layer keys are edited, on an undamaged container, so that the
# edit reaches layer_from_sidecar rather than a refused container or dims
_CHECKPOINT_CASES = st.one_of(
    st.tuples(st.lists(_LAYER_EDIT, min_size=1, max_size=3), st.just([])),
    st.tuples(st.lists(_EDIT, max_size=3), _DAMAGES))


@functools.cache
def _checkpoint():
    """(container bytes, sidecar) of a 2.5 KB n=1 TinyNet, and a 1x1x6x6 probe."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "net.ldt"
        save_net(TinyNet.create(n1=1, n2=1), path)
        write_tensors(Path(tmp) / "probe.ldt", {"probe": rand_uniform((1, 1, 6, 6), Rng(0))})
        return (path.read_bytes(), Path(str(path) + ".json").read_text(),
                (Path(tmp) / "probe.ldt").read_bytes())


def _damaged(blob, damage):
    blob = bytearray(blob)
    for kind, where, *bits in damage:
        where %= max(len(blob), 1)
        if kind == "cut":
            del blob[where:]
        elif blob:
            blob[where] ^= bits[0]
    return bytes(blob)


def _analyze_ao(tmp_path, blob, sidecar_text, probe):
    """Exit code of analyze-ao on the checkpoint and probe bytes given, after
    checking that it raised nothing and printed and wrote little."""
    path = tmp_path / "net.ldt"
    path.write_bytes(blob)
    Path(str(path) + ".json").write_text(sidecar_text)
    (tmp_path / "probe.ldt").write_bytes(probe)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze-ao", "--checkpoint", str(path),
                     "--probe", str(tmp_path / "probe.ldt"), "--out", str(tmp_path / "ao")])
    assert code in (0, 1, 2), err.getvalue()
    assert len(out.getvalue()) + len(err.getvalue()) < 4096
    if code == 0:
        assert sum(f.stat().st_size for f in (tmp_path / "ao").iterdir()) < 1 << 20
    return code, err.getvalue()


def _edit_sidecar(sidecar, edit):
    *where, key = edit[1]
    for step in where:
        sidecar = sidecar.get(step) if isinstance(sidecar, dict) else None
    if isinstance(sidecar, dict):
        if edit[0] == "set":
            sidecar[key] = edit[2]
        else:
            sidecar.pop(key, None)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_CHECKPOINT_CASES)
# an unbounded padding sized the padded probe: MemoryError out of main
@example(case=([("set", ("ld1", "padding"), 10**5)], []))
@example(case=([("set", ("ld2", "padding"), 10**5)], []))
def test_analyze_ao_fuzzed_checkpoints(tmp_path, case):
    edits, damage = case
    blob, sidecar_text, probe = _checkpoint()
    sidecar = json.loads(sidecar_text)
    for edit in edits:
        _edit_sidecar(sidecar, edit)
    code, err = _analyze_ao(tmp_path, _damaged(blob, damage), json.dumps(sidecar), probe)
    assert code in (0, 2), err
    if not edits and not damage:
        assert code == 0, err


# -- probes through analyze-ao --------------------------------------------------------

_VALUES = st.lists(st.sampled_from([0.0, 0.5, -1.0, 1e38, -1e38, np.nan, np.inf, -np.inf]),
                   min_size=1, max_size=4)
# (batch, channels, height, width, values repeated to fill them); TinyNet reads one channel
_RECORD = st.tuples(st.integers(0, 2), st.sampled_from([1, 1, 1, 2, 3]), st.integers(1, 8),
                    st.integers(1, 8), _VALUES)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(records=st.lists(_RECORD, max_size=2), damage=_DAMAGES)
# a flipped name length made the name 1,282 bytes of the record: a 5,162-character error
@example(records=[(2, 3, 8, 8, [0.0])], damage=[("flip", 5, 5)])
def test_analyze_ao_fuzzed_probes(tmp_path, records, damage):
    blob, sidecar_text, _ = _checkpoint()
    probe_path = tmp_path / "made.ldt"
    write_tensors(probe_path, {f"p{i}": Tensor4(np.resize(np.float32(values), dims))
                               for i, (*dims, values) in enumerate(records)})
    code, err = _analyze_ao(tmp_path, blob, sidecar_text,
                            _damaged(probe_path.read_bytes(), damage))
    if records and not damage:
        b_n, c_n, _, _, values = records[0]     # analyze-ao reads the first record
        if b_n and c_n == 1 and np.isfinite(values).all() and max(map(abs, values)) < 1e38:
            assert code == 0, err


# -- train configs ----------------------------------------------------------------------

_WRONG = st.sampled_from([None, True, "5", 2.5, [], {}, [1] * 2000, "x" * 5000])
# every size stays small: 1 epoch of at most 64 images, at most 32 evaluated
_CONFIG_VALUES = {
    "n1": st.integers(-1, 9), "n2": st.integers(-1, 9), "epochs": st.sampled_from([1, 1, 0, -1]),
    "batch": st.sampled_from([1, 7, 32, 10**30, 0, -1]),
    "lr": st.sampled_from([0, 0.05, 1.0, 1e30, 10**39, 10**400, 10**4000, -0.1,
                           float("nan"), float("inf")]),
    "seed": st.one_of(st.integers(0, 3), st.sampled_from([-1, 2**64, -10**30])),
    "subset": st.integers(-1, 64), "eval_subset": st.integers(-1, 32),
    "data_dir": st.sampled_from([None, "", "missing-dir", "\x00"]),
    "post": st.sampled_from(["none", "normalize+activation", "", "y" * 5000]),
}
_KNOWN_EDIT = st.one_of(*[st.tuples(st.just(key), values) for key, values in _CONFIG_VALUES.items()])
_CONFIG_EDIT = st.one_of(
    _KNOWN_EDIT, _KNOWN_EDIT, _KNOWN_EDIT, st.tuples(st.sampled_from(list(_CONFIG_VALUES)), _WRONG),
    st.tuples(st.sampled_from(["strategy", "padding", "", "N1", "z" * 5000]),
              st.one_of(_WRONG, st.integers(0, 2))))
_SMALL_CONFIG = {"epochs": 1, "subset": 16, "eval_subset": 8}


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(edits=st.lists(_CONFIG_EDIT, max_size=3), synthetic=st.sampled_from([True, True, False]),
       top=st.sampled_from([None] * 5 + [[], 5, "x"]))
# an lr int past the largest float: OverflowError out of the finiteness check
@example(edits=[("lr", 10**400)], synthetic=True, top=None)
# a wrong value, an unknown key or a post mode printed whole: errors of 5-10 KB
@example(edits=[("n1", [1] * 2000)], synthetic=True, top=None)
@example(edits=[("z" * 5000, 0)], synthetic=True, top=None)
@example(edits=[("post", "y" * 5000)], synthetic=True, top=None)
# a data_dir printed whole in the OSError of a path too long to open
@example(edits=[("data_dir", "x" * 5000)], synthetic=True, top=None)
def test_train_fuzzed_configs(tmp_path, edits, synthetic, top):
    config = dict(_SMALL_CONFIG, **dict(edits)) if top is None else top
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["train", str(path), "--out", str(tmp_path / "run")]
                    + ["--synthetic"] * synthetic)
    assert code in (0, 1, 2), err.getvalue()
    assert len(out.getvalue()) + len(err.getvalue()) < 4096, err.getvalue()[:200]
    if top is None and not edits and synthetic:
        assert code == 0, err.getvalue()
    if code == 0:
        assert sum(f.stat().st_size for f in (tmp_path / "run").iterdir()) < 1 << 20


# -- check-grad and bench arguments -------------------------------------------------

# --dims entries that parse to 1 or 2, and malformed ones; the 4,200-digit
# negative one parses
_ENTRY = st.one_of(st.integers(1, 2).map(str),
                   st.sampled_from(["", "0", "-1", "x", "1.5", " 2", "+2", "0_1", "9" * 5000,
                                    "-" + "9" * 4200]))


def _dims(valid):
    """--dims strings: B,C,H,W drawn from valid in about half the examples, else malformed."""
    valid = valid.map(lambda dims: ",".join(map(str, dims)))
    return st.one_of(valid, valid, st.lists(_ENTRY, max_size=6).map(",".join),
                     st.sampled_from(["1," * 3000, "x" * 5000, "1,1,1", "1,1,1,1,"]))


def _run_cli(argv):
    """main(argv)'s exit code, after checking that it raised nothing and printed little."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert len(out.getvalue()) + len(err.getvalue()) < 4096, err.getvalue()[:200]
    return code


_N = st.integers(-1, 6)
_FLAGS = st.lists(st.sampled_from(["--f64", "--sabotage"]), unique=True)
_SIZES = st.integers(1, 6)


@settings(max_examples=30, deadline=None)
@given(dims=_dims(st.tuples(st.integers(1, 2), st.integers(1, 2), _SIZES, _SIZES)), n=_N,
       eps=st.sampled_from([None] * 3 + ["0", "-1", "nan", "inf", "1e-300", "1e300"]), flags=_FLAGS)
# a --dims string or entry printed whole: errors of 5-6 KB
@example(dims="x" * 5000, n=3, eps=None, flags=[])
@example(dims="1,1,1,-" + "9" * 4200, n=3, eps=None, flags=[])
# a step past float32's range: an overflow warning out of the difference quotient
@example(dims="1,1,2,2", n=1, eps="1e300", flags=[])
def test_check_grad_fuzzed_arguments(dims, n, eps, flags):
    _run_cli(["check-grad", "--dims", dims, "--n", str(n)] + flags
             + ([] if eps is None else [f"--eps={eps}"]))


@settings(max_examples=30, deadline=None)
@given(dims=_dims(st.tuples(_SIZES, _SIZES, _SIZES, _SIZES)), n=_N, c_out=st.integers(0, 4),
       stride=st.sampled_from([0, 1, 2, 3, 10**6]), iters=st.sampled_from([0, 1, 1, 2]),
       warmup=st.sampled_from([-1, 0, 0, 1]),
       post=st.sampled_from(["none", "normalize+activation", "x"]))
# a --dims string printed whole: a 6 KB error
@example(dims="1," * 3000, n=3, c_out=2, stride=1, iters=1, warmup=0, post="none")
def test_bench_fuzzed_arguments(dims, n, c_out, stride, iters, warmup, post):
    _run_cli(["bench", "--dims", dims, "--n", str(n), "--c-out", str(c_out),
              "--stride", str(stride), "--iters", str(iters), "--warmup", str(warmup),
              "--post", post])
