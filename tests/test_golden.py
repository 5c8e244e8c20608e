"""Golden output: `track` on a checked-in sequence reproduces checked-in files.

`data/golden/seq8x60.txt` holds 8 synthetic objects over 60 frames, in
stationary/cv/ca/cj regimes, with one mid-track occlusion cut. Its track file
and trajectory CSV were written by the per-track filter this repository had
before the track bank. Text and integer columns must match exactly and every
number to 1e-12 relative, so a numeric rewrite cannot drift unnoticed.

`data/golden/bank_seq8x60.npz` holds the bank's state after every step of
the same sequence with dynamics on, at model orders 1-3, so the weights,
which amplify last-bit changes about 100 times, are checked too;
`data/golden/bank_off_seq8x60.npz` holds it with dynamics off, without the
weights, which stay exact ones. Both store one covariance per ground axis,
so a bank that keeps one covariance for both axes is compared broadcast to
them. Run this file as a script to write both again: `PYTHONPATH=src python
tests/test_golden.py`.

`data/golden/scenario.yaml` uses every scenario, object, segment and
occlusion key, and its second object leaves out every optional one; the
label files `synth` wrote from it, in `data/golden/scenario/`, must be
reproduced byte for byte, so the scenario reader's defaults and the
generator's output cannot change unnoticed.
"""
import math
from pathlib import Path

import numpy as np
import pytest

from dynatrack import cli, kitti_io
from dynatrack.config import RunConfig
from dynatrack.tracker import MultiObjectTracker

GOLDEN = Path(__file__).parent / "data" / "golden"
REL = 1e-12
# Dynamics on or off -> the bank fixture and the fields it holds.
BANKS = {True: (GOLDEN / "bank_seq8x60.npz",
                ("ids", "hits", "misses", "mean", "cov", "weights")),
         False: (GOLDEN / "bank_off_seq8x60.npz",
                 ("ids", "hits", "misses", "mean", "cov"))}
EXACT_FIELDS = ("ids", "hits", "misses")
ORDERS = (1, 2, 3)


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


def test_synth_reproduces_golden_label_files(tmp_path, capsys):
    assert cli.main(["synth", str(GOLDEN / "scenario.yaml"), "--output",
                     str(tmp_path)]) == cli.EXIT_OK
    for name in ("gt.txt", "detections.txt", "occluded_detections.txt"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / "scenario" / name).read_bytes(), name


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


def _bank_states(order: int, dynamics: bool) -> dict:
    """The bank's fields, as its fixture holds them, after every step of the
    golden sequence at `order`, each as a list of one array per step; the
    covariance has one block per ground axis."""
    frames = kitti_io.measurements_from(
        kitti_io.parse_detections(GOLDEN / "seq8x60.txt"))
    tracker = MultiObjectTracker(RunConfig(model_order=order,
                                           dynamics_enabled=dynamics))
    states = {name: [] for name in BANKS[dynamics][1]}
    for frame, dets in enumerate(frames):
        tracker.step(frame, dets)
        bank = tracker.bank
        for name, steps in states.items():
            value = getattr(bank, name)
            if name == "cov":
                value = np.broadcast_to(value, bank.mean.shape[:-1] + value.shape[-1:])
            steps.append(value.copy())
    return states


def _write_bank_fixture(dynamics: bool):
    """Store each order's states concatenated over the steps, with the row
    count of every step under `o<order>_rows`."""
    arrays = {}
    for order in ORDERS:
        states = _bank_states(order, dynamics)
        arrays[f"o{order}_rows"] = np.array([len(ids) for ids in states["ids"]])
        for name, steps in states.items():
            arrays[f"o{order}_{name}"] = np.concatenate(steps)
    np.savez_compressed(BANKS[dynamics][0], **arrays)


def _check_bank(order: int, dynamics: bool):
    # Ids and counters match exactly; each step's mean, per-axis packed
    # covariance and weights match within REL of that block's largest entry.
    path, fields = BANKS[dynamics]
    with np.load(path) as fixture:
        expected = {name: np.split(fixture[f"o{order}_{name}"],
                                   np.cumsum(fixture[f"o{order}_rows"])[:-1])
                    for name in fields}
    actual = _bank_states(order, dynamics)
    assert len(actual["ids"]) == len(expected["ids"])
    for step in range(len(expected["ids"])):
        for name in fields:
            e, a = expected[name][step], actual[name][step]
            assert a.shape == e.shape, f"step {step} {name}"
            if name in EXACT_FIELDS:
                assert a.tolist() == e.tolist(), f"step {step} {name}"
            elif e.size:
                drift = np.abs(a - e).max()
                assert drift <= REL * np.abs(e).max(), f"step {step} {name}: {drift:.3g}"


@pytest.mark.parametrize("order", ORDERS)
def test_bank_state_reproduces_golden_fixture(order):
    _check_bank(order, dynamics=True)


@pytest.mark.parametrize("order", ORDERS)
def test_dynamics_off_bank_state_reproduces_golden_fixture(order):
    _check_bank(order, dynamics=False)


if __name__ == "__main__":
    for dynamics in BANKS:
        _write_bank_fixture(dynamics)
