"""Fuzzers: generated inputs through `cli.main`, which must exit 0 or 2 and
never raise, with small generated sizes."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ldconv.cli import main
from ldconv.geometry import MAX_COORD

_COORD = st.one_of(st.integers(0, 6), st.integers(-3, -1),
                   st.sampled_from([MAX_COORD, MAX_COORD + 1, 10**400, -10**400]))
_PAIR = st.builds("{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), _COORD,
                  st.sampled_from([" ", "  ", "\t"]), _COORD)
_JUNK = st.sampled_from(["", "  ", "# note", "#1 2", "5", "1 2 3", "x y", "1.5 2",
                         "--1 0", "1,2", "0 -", "0x1 0"])
_LINES = st.lists(st.one_of(_PAIR, _PAIR, _JUNK), max_size=8)


def _first_bad_line(lines):
    """(line number of the first bad line or None, the points before it)."""
    points = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            r, c = int(parts[0]), int(parts[1])
        except (IndexError, ValueError):
            return lineno, points
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
