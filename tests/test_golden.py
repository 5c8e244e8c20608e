"""Golden output: `track` on a checked-in sequence reproduces checked-in files.

`data/golden/seq8x60.txt` holds 8 synthetic objects over 60 frames, in
stationary/cv/ca/cj regimes, with one mid-track occlusion cut. Its track file
and trajectory CSV were written by the per-track filter this repository had
before the track bank. Text and integer columns must match exactly and every
number to 1e-12 relative, so a numeric rewrite cannot drift unnoticed.
"""
import math
from pathlib import Path

import pytest

from dynatrack import cli

GOLDEN = Path(__file__).parent / "data" / "golden"
REL = 1e-12


def _fields(path: Path, sep):
    return [line.split(sep) for line in path.read_text().splitlines()]


def _same_field(expected: str, actual: str) -> bool:
    if expected == actual:
        return True
    try:
        e, a = float(expected), float(actual)
    except ValueError:
        return False
    exact = expected.lstrip("-").isdigit()  # frame, id, occluded: integers
    return not exact and math.isfinite(a) and abs(a - e) <= REL * max(1.0, abs(e))


@pytest.mark.parametrize("output, sep", [("tracks/seq8x60.txt", None),
                                         ("trajectories/seq8x60.csv", ",")])
def test_track_reproduces_golden_output(tmp_path, capsys, output, sep):
    code = cli.main(["track", str(GOLDEN / "seq8x60.txt"), "--output",
                     str(tmp_path), "--dynamics-enabled", "true"])
    assert code == cli.EXIT_OK
    expected = _fields(GOLDEN / output, sep)
    actual = _fields(tmp_path / output, sep)
    assert len(actual) == len(expected)
    for line, (e, a) in enumerate(zip(expected, actual), start=1):
        assert len(a) == len(e), f"line {line}"
        bad = [k for k, (x, y) in enumerate(zip(e, a)) if not _same_field(x, y)]
        assert not bad, f"line {line}, fields {bad}: {e} != {a}"
