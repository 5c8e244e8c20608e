"""CLI subcommands end to end: synth, occlude, track, evaluate, compare."""
import concurrent.futures
import contextlib
import csv
import io
import math
import os
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from dynatrack import cli, metrics
from dynatrack import kitti_io as kio
from dynatrack.association import MAX_CONTESTED_CELLS
from dynatrack.config import (FIELD_TYPES, MAX_WINDOW, RunConfig, load_config,
                              save_config)
from dynatrack.tracker import MultiObjectTracker, TrackBank

from helpers import python_stdout, read_trajectory_csv

GOLDEN = Path(__file__).parent / "data" / "golden" / "seq8x60.txt"

SCENARIO = """
dt: 0.1
noise_sigma: 0.2
seed: 4
objects:
  - initial: [0.0, 10.0]
    segments:
      - {kind: cv, duration: 40, value: [1.0, 0.0]}
  - initial: [20.0, 30.0]
    segments:
      - {kind: stationary, duration: 40}
"""

SCENARIO_WITH_OCCLUSION = SCENARIO + """
occlusion:
  kind: mid
  start_after: 5
  length: 8
"""


@pytest.fixture
def scenario_dir(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO)
    out = tmp_path / "data"
    assert cli.main(["synth", str(path), "--output", str(out)]) == 0
    return out


def test_no_command_prints_usage(capsys):
    assert cli.main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["polish"])
    assert err.value.code == 2


def test_synth_writes_gt_and_detections(scenario_dir, capsys):
    gt_path = scenario_dir / "gt.txt"
    det_path = scenario_dir / "detections.txt"
    assert gt_path.exists() and det_path.exists()
    assert not (scenario_dir / "occluded_detections.txt").exists()
    gt = kio.parse_annotations(gt_path)
    dets = kio.parse_detections(det_path)
    assert len(gt) == 40
    assert len(dets.detections) == 40
    assert {i for f in gt for i in f.track_id.tolist()} == {1, 2}


def test_synth_with_occlusion_block(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO_WITH_OCCLUSION)
    out = tmp_path / "data"
    assert cli.main(["synth", str(path), "--output", str(out)]) == 0
    occ = kio.parse_detections(out / "occluded_detections.txt")
    full = kio.parse_detections(out / "detections.txt")
    n_occ = sum(len(f) for f in occ.detections)
    n_full = sum(len(f) for f in full.detections)
    assert n_full - n_occ == 2 * 8


def test_synth_missing_scenario_exits_two(tmp_path, capsys):
    assert cli.main(["synth", str(tmp_path / "nope.yaml")]) == 2
    assert "not found" in capsys.readouterr().err


def test_synth_bad_scenario_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("objects: []\n")
    assert cli.main(["synth", str(path)]) == 2
    assert "objects" in capsys.readouterr().err


@pytest.mark.parametrize("old,new", [
    ("seed: 4\n", "seed: 4\nocclusion: 5\n"),
    ("duration: 40, value", "duration: abc, value"),
    ("initial: [0.0, 10.0]", "initial: 5"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    elevation: high"),
    ("dt: 0.1", "dt: fast"),
    ("dt: 0.1", "dt: .nan"),
    ("noise_sigma: 0.2", "noise_sigma: [0.2]"),
    ("seed: 4", "seed: -1"),
    ("initial: [0.0, 10.0]", "initial: [1.0]"),
    ("initial: [0.0, 10.0]", "initial: [0, 10, 5]"),
    ("initial: [0.0, 10.0]", "initial: [.nan, 0.0]"),
    ("initial: [0.0, 10.0]", "initial: [0.0, 10.0]\n    velocity: [1.0]"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    dims: [1.0]"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    elevation: .inf"),
    ("value: [1.0, 0.0]", "value: [.inf, 0.0]"),
    ("segments:\n      - {kind: stationary, duration: 40}", "segments: []"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    type: ''"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    type: Big Car"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    type: ' Car'"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    type: 7"),
    ("duration: 40, value", "duration: 40.7, value"),
    ("duration: 40, value", "duration: true, value"),
    ("seed: 4", "seed: 4.0"),
    ("seed: 4", "seed: false"),
    ("seed: 4\n", "seed: 4\nocclusion: {kind: mid, start_after: 5, length: 8.5}\n"),
    ("seed: 4\n", "seed: 4\nocclusion: {kind: mid, start_after: true, length: 8}\n"),
    ("dt: 0.1", "dt: true"),
    ("initial: [0.0, 10.0]", "initial: [true, \"2\"]"),
    ("initial: [20.0, 30.0]", "initial: [20.0, 30.0]\n    dims: [1, 2, true]"),
    ("dt: 0.1", "dt: .inf"),
    ("noise_sigma: 0.2", "noise_sigma: .inf"),
    ("seed: 4\n", "seed: 4\nocclusion: {kind: mid, start_after: 5, length: 8, "
                  "match_threshold: .inf}\n"),
    # past the frames a label file holds, refused before it is integrated
    ("duration: 40, value", "duration: 1000002, value"),
])
def test_synth_malformed_scenario_exits_two(tmp_path, capsys, old, new):
    path = tmp_path / "bad.yaml"
    path.write_text(SCENARIO.replace(old, new))
    assert cli.main(["synth", str(path), "--output", str(tmp_path / "out")]) == 2
    assert f"error: scenario file {path}" in capsys.readouterr().err


def test_synth_whose_motion_overflows_writes_no_label_file(tmp_path, capsys):
    # Finite input, but the positions leave the float range by frame 1: the
    # writer refuses rows its parser would refuse, before writing a line.
    path = tmp_path / "far.yaml"
    path.write_text("objects:\n  - initial: [1.7e+308, 0.0]\n"
                    "    velocity: [1.0e+308, 0.0]\n"
                    "    segments: [{kind: cv, duration: 5}]\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore"):
        assert cli.main(["synth", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == \
        f"error: {out / 'gt.txt'}: a number to write is not finite\n"
    assert list(out.iterdir()) == []


def test_occlude_command(scenario_dir, tmp_path, capsys):
    out = tmp_path / "occluded.txt"
    rc = cli.main(["occlude", str(scenario_dir / "detections.txt"),
                   str(scenario_dir / "gt.txt"), "--kind", "late",
                   "--start-after", "5", "--length", "10",
                   "--output", str(out)])
    assert rc == 0
    assert "occluded 2 objects" in capsys.readouterr().out
    kept = out.read_text().splitlines()
    original = (scenario_dir / "detections.txt").read_text().splitlines()
    assert len(original) - len(kept) == 20
    assert set(kept) <= set(original)


def test_track_produces_outputs(scenario_dir, capsys):
    out = scenario_dir / "run"
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--output", str(out), "--min-hits", "1"])
    assert rc == 0
    assert "2 tracks" in capsys.readouterr().out
    tracks = kio.parse_tracks(out / "tracks" / "detections.txt")
    assert len(tracks) == 40
    ids = {i for f in tracks for i in f.track_id.tolist()}
    assert ids == {1, 2}
    rows = read_trajectory_csv(out / "trajectories" / "detections.csv")
    assert {r[4] for r in rows} == {"measurement", "predicted", "updated"}
    effective = load_config(out / "config_effective")
    assert effective.min_hits == 1


def test_track_directory_input(scenario_dir, tmp_path):
    seq_dir = tmp_path / "sequences"
    seq_dir.mkdir()
    text = (scenario_dir / "detections.txt").read_text()
    (seq_dir / "0000.txt").write_text(text)
    (seq_dir / "0001.txt").write_text(text)
    out = tmp_path / "run"
    assert cli.main(["track", str(seq_dir), "--output", str(out)]) == 0
    assert (out / "tracks" / "0000.txt").exists()
    assert (out / "tracks" / "0001.txt").exists()
    assert (out / "trajectories" / "0001.csv").exists()


def test_track_parallel_jobs_match_serial(scenario_dir, tmp_path):
    seq_dir = tmp_path / "sequences"
    seq_dir.mkdir()
    text = (scenario_dir / "detections.txt").read_text()
    (seq_dir / "0000.txt").write_text(text)
    (seq_dir / "0001.txt").write_text(text)
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert cli.main(["track", str(seq_dir), "--output", str(serial)]) == 0
    assert cli.main(["track", str(seq_dir), "--output", str(parallel),
                     "--jobs", "2"]) == 0
    for name in ("0000.txt", "0001.txt"):
        assert (serial / "tracks" / name).read_text() == \
            (parallel / "tracks" / name).read_text()


def _pool_sizes(scenario_dir, tmp_path, monkeypatch) -> list:
    """Pool sizes `track --jobs 100000` asks for over three sequences, from a
    fake executor patched into `concurrent.futures` that maps in this
    process, so no process is started."""
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    seq_dir = tmp_path / "sequences"
    seq_dir.mkdir()
    text = (scenario_dir / "detections.txt").read_text()
    for name in ("0000.txt", "0001.txt", "0002.txt"):
        (seq_dir / name).write_text(text)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert cli.main(["track", str(seq_dir), "--output", str(tmp_path / "run"),
                     "--jobs", "100000"]) == 0
    assert (tmp_path / "run" / "tracks" / "0002.txt").exists()
    return sizes


@pytest.mark.parametrize("cpus,pools", [(2, [2]), (64, [3]), (None, [])])
def test_track_jobs_clamped_to_sequences_and_cpus(scenario_dir, tmp_path,
                                                  monkeypatch, cpus, pools):
    # Where the platform has no affinity mask, the CPU count caps the pool.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert _pool_sizes(scenario_dir, tmp_path, monkeypatch) == pools


@pytest.mark.parametrize("usable,pools", [(1, []), (2, [2]), (8, [3])])
def test_track_jobs_clamped_to_the_cpus_the_process_may_use(
        scenario_dir, tmp_path, monkeypatch, usable, pools):
    # The affinity mask, not the host's CPU count, caps the pool.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(usable)),
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _pool_sizes(scenario_dir, tmp_path, monkeypatch) == pools


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_track_jobs_below_one_is_a_usage_error(scenario_dir, tmp_path, capsys,
                                               jobs):
    out = tmp_path / "run"
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--jobs", jobs, "--output", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert captured.out == ""
    assert not out.exists()


def test_track_reads_config_file(scenario_dir, tmp_path):
    cfg_path = tmp_path / "config.yaml"
    save_config(RunConfig(min_hits=1, max_misses=7), cfg_path)
    out = scenario_dir / "cfg_run"
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--config", str(cfg_path), "--output", str(out)])
    assert rc == 0
    effective = load_config(out / "config_effective")
    assert effective.max_misses == 7
    assert effective.min_hits == 1


def test_track_config_from_environment(scenario_dir, tmp_path, monkeypatch):
    cfg_path = tmp_path / "config.yaml"
    save_config(RunConfig(min_hits=2), cfg_path)
    monkeypatch.setenv("DYNATRACK_CONFIG", str(cfg_path))
    out = scenario_dir / "env_run"
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--output", str(out)])
    assert rc == 0
    assert load_config(out / "config_effective").min_hits == 2


def test_track_missing_config_exits_two(scenario_dir, capsys):
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--config", "/does/not/exist.yaml"])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [("track", "--process-noise"),
                                          ("track", "--gate-distance"),
                                          ("occlude", "--match-threshold")])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_number_flag_that_is_not_finite_names_its_key(tmp_path, capsys, command,
                                                      flag, value):
    argv = {"track": ["track", GOLDEN],
            "occlude": ["occlude", GOLDEN, GOLDEN]}[command]
    rc = cli.main([*map(str, argv), f"{flag}={value}", "--output",
                   str(tmp_path / "o")])
    assert rc == 2
    key = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == \
        f"error: config key '{key}': expected a finite number, got {value}\n"


@pytest.mark.parametrize("key", ["transition_window", "smoothing_window"])
@pytest.mark.parametrize("given", ["config", "flag"])
def test_window_past_the_bound_exits_two_before_a_bank_is_built(
        tmp_path, capsys, monkeypatch, key, given):
    def no_bank(*args):
        raise AssertionError("a track bank was built")

    monkeypatch.setattr(TrackBank, "__init__", no_bank)
    config = tmp_path / "config.yaml"
    config.write_text(f"{key}: {10 ** 8}\n")
    option = {"config": ["--config", config],
              "flag": ["--" + key.replace("_", "-"), 10 ** 8]}[given]
    rc = cli.main([*map(str, ["track", GOLDEN, *option, "--output", tmp_path / "out"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"config key '{key}': must be in [" in err and f"{MAX_WINDOW}]" in err
    assert err.endswith(f"got {10 ** 8}\n")
    assert not (tmp_path / "out" / "tracks" / GOLDEN.name).exists()


@pytest.mark.parametrize("command", ["track", "synth"])
def test_config_or_scenario_that_is_not_utf8_exits_two(tmp_path, capsys, command):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"objects: []\nname: Fu\xdfg\n")
    argv = {"track": ["track", GOLDEN, "--config", bad],
            "synth": ["synth", bad]}[command]
    rc = cli.main([*map(str, argv), "--output", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    what = {"track": "config", "synth": "scenario"}[command]
    assert err.startswith(f"error: {what} file {bad}: ")
    assert "can't decode byte 0xdf" in err and err.count("\n") == 1


# `cli.main` in a new interpreter, so that it runs in the locale it is given.
_MAIN = "import sys\nfrom dynatrack import cli\nsys.exit(cli.main(sys.argv[1:]))"


def test_config_and_scenario_are_utf8_in_an_ascii_locale(tmp_path):
    scenario = tmp_path / "scenario.yaml"
    pedestrian = "initial: [20.0, 30.0]\n    type: Fußgänger"
    scenario.write_text(SCENARIO.replace("initial: [20.0, 30.0]", pedestrian),
                        encoding="utf-8")
    config = tmp_path / "config.yaml"
    config.write_text("# Größe\nmin_hits: 1\n", encoding="utf-8")
    ascii_locale = {"LC_ALL": "C", "PYTHONUTF8": "0"}
    python_stdout(_MAIN, "synth", scenario, "--output", tmp_path / "data",
                  **ascii_locale)
    python_stdout(_MAIN, "track", tmp_path / "data" / "detections.txt",
                  "--config", config, "--output", tmp_path / "run", **ascii_locale)
    assert "Fußgänger".encode() in (tmp_path / "data" / "gt.txt").read_bytes()
    assert load_config(tmp_path / "run" / "config_effective").min_hits == 1


def test_track_bad_override_exits_two(scenario_dir, capsys):
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--model-order", "9", "--output",
                   str(scenario_dir / "x")])
    assert rc == 2
    assert "model_order" in capsys.readouterr().err


def test_evaluate_prints_metrics(scenario_dir, capsys):
    out = scenario_dir / "run"
    cli.main(["track", str(scenario_dir / "detections.txt"),
              "--output", str(out), "--min-hits", "1"])
    capsys.readouterr()
    rc = cli.main(["evaluate", str(scenario_dir / "gt.txt"),
                   str(out / "tracks" / "detections.txt"),
                   "--output", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "mota:" in text
    assert "idf1:" in text
    report = (out / "reports" / "evaluation.txt").read_text()
    assert "mota:" in report
    csv_text = (out / "reports" / "evaluation.csv").read_text()
    assert csv_text.startswith("metric,value")


@pytest.mark.parametrize("command,walks", [("evaluate", 1), ("compare", 2)])
def test_scoring_commands_gate_each_pair_once(scenario_dir, monkeypatch,
                                              command, walks):
    # One `gated_chunks` walk scores a pair for both CLEAR-MOT and IDF1:
    # evaluate scores one pair, compare one per configuration.
    out = scenario_dir / "run"
    assert cli.main(["track", str(scenario_dir / "detections.txt"),
                     "--output", str(out), "--min-hits", "1"]) == 0
    calls = []
    gated_chunks = metrics.gated_chunks

    def counting(*args):
        calls.append(args)
        return gated_chunks(*args)

    monkeypatch.setattr(metrics, "gated_chunks", counting)
    inputs = {"evaluate": [scenario_dir / "gt.txt", out / "tracks" / "detections.txt"],
              "compare": [scenario_dir / "detections.txt", scenario_dir / "gt.txt"]}
    assert cli.main([command, *map(str, inputs[command])]) == 0
    assert len(calls) == walks


def test_evaluate_empty_gt_exits_one(tmp_path, capsys):
    gt = tmp_path / "gt.txt"
    gt.write_text("")
    hyp = tmp_path / "trk.txt"
    hyp.write_text("")
    assert cli.main(["evaluate", str(gt), str(hyp)]) == 1
    assert "undefined" in capsys.readouterr().err.lower()


def test_evaluate_past_the_contested_bound_exits_one(tmp_path, capsys):
    # every object of both files at one point: one connected block of ids
    # just past the bound
    side = math.isqrt(MAX_CONTESTED_CELLS)
    line = "0 {} Car 0 0 0 0 0 10 10 1.5 1.6 3.9 5.0 1.0 5.0 0"
    gt = tmp_path / "gt.txt"
    gt.write_text("".join(line.format(i) + "\n" for i in range(side + 1)))
    hyp = tmp_path / "trk.txt"
    hyp.write_text("".join(line.format(i) + " 1.0\n" for i in range(side)))
    assert cli.main(["evaluate", str(gt), str(hyp)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{side + 1} x {side} candidate pairs exceeds the bound" in err


@pytest.mark.parametrize("bad", ["gt", "tracks"])
def test_evaluate_rejects_ids_beyond_int64(scenario_dir, capsys, bad):
    # Ids are scored as int64; a wider id must fail as a parse error, not
    # escape from the metrics as an OverflowError traceback.
    out = scenario_dir / "run"
    cli.main(["track", str(scenario_dir / "detections.txt"),
              "--output", str(out), "--min-hits", "1"])
    paths = {"gt": scenario_dir / "gt.txt",
             "tracks": out / "tracks" / "detections.txt"}
    lines = paths[bad].read_text().splitlines()
    tokens = lines[2].split()
    tokens[1] = "99999999999999999999"
    lines[2] = " ".join(tokens)
    paths[bad].write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["evaluate", str(paths["gt"]), str(paths["tracks"])]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: {paths[bad]}:3: column 2: integer out of range: "
                   "'99999999999999999999'\n")


@pytest.mark.parametrize("key,value", [("seed", 0),
                                       ("noise_term_strategy", "innovation"),
                                       ("cold_start_mode", "identity")])
def test_track_rejects_removed_config_key(scenario_dir, tmp_path, capsys, key,
                                          value):
    # A config_effective written before the key was removed names it.
    cfg_path = tmp_path / "config_effective"
    save_config(RunConfig(), cfg_path)
    cfg_path.write_text(cfg_path.read_text() + f"{key}: {value}\n")
    rc = cli.main(["track", str(scenario_dir / "detections.txt"),
                   "--config", str(cfg_path), "--output", str(tmp_path / "run")])
    assert rc == 2
    assert f"unknown config key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags", [
    ("evaluate", ["--threshold", "-1"]),
    ("evaluate", ["--threshold", "nan"]),
    ("evaluate", ["--threshold", "0"]),
    ("compare", ["--threshold", "-1"]),
    ("compare", ["--warmup", "-5"]),
    ("compare", ["--warmup", "40"]),  # the scene's frame count
    ("compare", ["--warmup", "1000"]),
    ("evaluate", ["--threshold", "inf"]),
    ("compare", ["--threshold", "inf"]),
])
def test_bad_scoring_flag_is_a_usage_error(scenario_dir, capsys, command, flags):
    out = scenario_dir / "run"
    assert cli.main(["track", str(scenario_dir / "detections.txt"),
                     "--output", str(out), "--min-hits", "1"]) == 0
    inputs = {"evaluate": [scenario_dir / "gt.txt",
                           out / "tracks" / "detections.txt"],
              "compare": [scenario_dir / "detections.txt",
                          scenario_dir / "gt.txt"]}[command]
    capsys.readouterr()
    rc = cli.main([command, *map(str, inputs), *flags,
                   "--output", str(scenario_dir / "scored")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: {flags[0]} must be")
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (scenario_dir / "scored").exists()


def test_compare_runs_both_configurations(scenario_dir, capsys):
    out = scenario_dir / "cmp"
    rc = cli.main(["compare", str(scenario_dir / "detections.txt"),
                   str(scenario_dir / "gt.txt"), "--min-hits", "1",
                   "--warmup", "5", "--output", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "baseline" in text and "dynamic" in text
    assert "MOTA" in text and "latency" in text
    compare_csv = (out / "reports" / "compare.csv").read_text().splitlines()
    assert compare_csv[0] == "metric,baseline,dynamic"
    assert any(line.startswith("mota,") for line in compare_csv)
    assert (out / "config_effective").exists()
    # The ratio row is the adaptive mean over the baseline mean.
    assert "adaptive/baseline latency ratio" in text
    rows = {line.split(",")[0]: line.split(",")[1] for line in compare_csv[1:]}
    assert float(rows["latency_ratio"]) == pytest.approx(
        float(rows["latency_dynamic_ms"]) / float(rows["latency_baseline_ms"]),
        rel=1e-4)


def test_compare_tracks_each_configuration_once(scenario_dir, monkeypatch):
    built = []
    init = MultiObjectTracker.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MultiObjectTracker, "__init__", counting_init)
    det, gt_path = scenario_dir / "detections.txt", scenario_dir / "gt.txt"
    out = scenario_dir / "cmp"
    assert cli.main(["compare", str(det), str(gt_path), "--min-hits", "1",
                     "--output", str(out)]) == 0
    assert len(built) == 2
    monkeypatch.undo()

    # The rows equal those of separate, untimed tracking passes.
    frames = kio.measurements_from(kio.parse_detections(det))
    gt = kio.parse_annotations(gt_path)
    expected = {}
    for column, enabled in ((1, False), (2, True)):
        per_frame = MultiObjectTracker(
            RunConfig(min_hits=1, dynamics_enabled=enabled)).run(frames)
        mot, ids = metrics.clearmot(gt, per_frame), metrics.idf1(gt, per_frame)
        for key, value in (("mota", mot.mota), ("idf1", ids.idf1),
                           ("fp", mot.false_positives),
                           ("fn", mot.false_negatives),
                           ("id_switches", mot.id_switches)):
            expected.setdefault(key, [key, "", ""])[column] = str(value)
    with open(out / "reports" / "compare.csv", newline="") as handle:
        rows = {row[0]: row for row in csv.reader(handle)}
    for key, row in expected.items():
        assert rows[key] == row


def test_build_parser_lists_subcommands():
    parser = cli.build_parser()
    text = parser.format_help()
    for name in ("track", "synth", "occlude", "evaluate", "compare"):
        assert name in text


@pytest.mark.parametrize("command", ["evaluate", "track", "occlude"])
def test_label_file_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"0 1 Fu\xdfg 0 0 0 0 0 10 10 1.5 1.6 3.9 5.0 1.0 5.0 0\n")
    argv = {"evaluate": ["evaluate", bad, bad],
            "track": ["track", bad, "--output", tmp_path / "out"],
            "occlude": ["occlude", bad, bad, "--output", tmp_path / "occ.txt"]}
    assert cli.main([str(arg) for arg in argv[command]]) == cli.EXIT_RUNTIME
    assert capsys.readouterr().err == f"error: {bad}:1: not UTF-8 text\n"


# -- the YAML boundary, fuzzed -----------------------------------------------

# Values of every YAML kind, including those a number key must refuse.
_SCALARS = (st.booleans() | st.none() | st.integers(-3, 50) | st.floats()
            | st.sampled_from([1e308, -1e308, 2 ** 70, 2 ** 1024, "3", "0.1", "true",
                              "Car"])
            | st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=3), inner, max_size=2),
                       max_leaves=4)
# Short durations, or exactly one frame past what a label file holds, and
# more: a scenario that would integrate at length is never drawn.
_DURATIONS = st.integers(1, 60).map(
    lambda d: {59: kio.MAX_FRAME + 2, 60: 10 ** 30}.get(d, min(d, 50)))


def _vector(n, low=-50.0, high=50.0):
    return st.lists(st.floats(low, high) | st.integers(int(low), int(high)),
                    min_size=n, max_size=n)


# Documents that load, mostly; `_broken` then breaks some.
_SEGMENT = st.fixed_dictionaries(
    {"kind": st.sampled_from(["stationary", "cv", "ca", "cj"]),
     "duration": _DURATIONS}, optional={"value": _vector(2, -5.0, 5.0)})
_OBJECT = st.fixed_dictionaries(
    {"initial": _vector(2), "segments": st.lists(_SEGMENT, min_size=1, max_size=3)},
    optional={"velocity": _vector(2, -5.0, 5.0), "acceleration": _vector(2, -1.0, 1.0),
              "jerk": _vector(2, -1.0, 1.0), "dims": _vector(3, 0.5, 5.0),
              "elevation": st.floats(-2.0, 2.0),
              "type": st.sampled_from(["Car", "Fußgänger", "Big Car"])})
_SCENARIO = st.fixed_dictionaries(
    {"objects": st.lists(_OBJECT, min_size=1, max_size=3)},
    optional={"dt": st.floats(0.01, 1.0), "noise_sigma": st.floats(0.0, 2.0),
              "seed": st.integers(0, 2 ** 70),
              "occlusion": st.fixed_dictionaries(
                  {"kind": st.sampled_from(["mid", "late"]),
                   "start_after": st.integers(1, 20), "length": st.integers(1, 20)},
                  optional={"match_threshold": st.floats(0.1, 5.0)})})
# Windows are small or at the bound, on either side of it.
_AT_BOUND = st.integers(MAX_WINDOW - 1, MAX_WINDOW + 2)
_CONFIG = st.fixed_dictionaries({}, optional={
    "model_order": st.integers(1, 3),
    "transition_window": st.one_of(st.integers(4, 12), _AT_BOUND),
    "smoothing_window": st.one_of(st.integers(1, 6), _AT_BOUND),
    "min_hits": st.integers(1, 5), "max_misses": st.integers(0, 30),
    "dynamics_enabled": st.booleans(),
    "dt": st.floats(0.01, 1.0),
    **{key: st.floats(0.01, 10.0) for key, kind in FIELD_TYPES.items()
       if kind == "float" and key != "dt"}})


def _paths(node, path=()):
    """The path of `node` and of every value inside it."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


@st.composite
def _broken(draw, documents):
    """A document with up to 2 changes, each at a drawn path: its value
    replaced by any value (the whole document, at the root), its key
    dropped, or an unknown key added beside it."""
    document = draw(documents)
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(_paths(document))))
        value = draw(_VALUES)
        if not path:
            document = value
            continue
        parent = document
        for key in path[:-1]:
            parent = parent[key]
        change = draw(st.sampled_from(["replace", "drop", "add"]))
        if change == "drop" and isinstance(parent, dict):
            del parent[path[-1]]
        elif change == "add" and isinstance(parent, dict):
            parent["speed"] = value
        else:
            parent[path[-1]] = value
    return document


@st.composite
def _documents(draw, documents):
    """A drawn document as YAML bytes, sometimes with a byte that is not UTF-8."""
    text = yaml.safe_dump(draw(_broken(documents)), allow_unicode=True).encode()
    if draw(st.integers(0, 5)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xdf" + text[at:]
    return text


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["track", "synth"]), data=st.data())
def test_any_yaml_config_or_scenario_exits_cleanly(tmp_path_factory, command, data):
    # Every document either runs, with label files that parse back, or ends
    # with an exit code and an error line: never a traceback.
    work = tmp_path_factory.mktemp("yaml")
    document = work / "document.yaml"
    document.write_bytes(data.draw(_documents(_CONFIG if command == "track"
                                              else _SCENARIO)))
    argv = {"track": ["track", GOLDEN, "--config", document],
            "synth": ["synth", document]}[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            np.errstate(all="ignore"):
        rc = cli.main([*map(str, argv), "--output", str(work / "out")])
    assert rc in (0, 1, 2)
    if rc:
        assert err.getvalue().startswith("error: ")
        return
    if command == "track":
        kio.parse_tracks(work / "out" / "tracks" / GOLDEN.name)
        return
    kio.parse_annotations(work / "out" / "gt.txt")
    for name in ("detections.txt", "occluded_detections.txt"):
        if (work / "out" / name).exists():
            kio.parse_detections(work / "out" / name)
