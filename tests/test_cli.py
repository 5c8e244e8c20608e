"""CLI subcommands end to end: synth, occlude, track, evaluate, compare."""
import csv
import math

import numpy as np
import pytest

from dynatrack import cli, metrics
from dynatrack import kitti_io as kio
from dynatrack.config import RunConfig, load_config, save_config
from dynatrack.tracker import MAX_CONTESTED_CELLS, MultiObjectTracker

from helpers import read_trajectory_csv

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
    assert dets.num_frames == 40
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
])
def test_synth_malformed_scenario_exits_two(tmp_path, capsys, old, new):
    path = tmp_path / "bad.yaml"
    path.write_text(SCENARIO.replace(old, new))
    assert cli.main(["synth", str(path), "--output", str(tmp_path / "out")]) == 2
    assert f"error: scenario file {path}" in capsys.readouterr().err


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


@pytest.mark.parametrize("cpus,pools", [(2, [2]), (64, [3]), (None, [])])
def test_track_jobs_clamped_to_sequences_and_cpus(scenario_dir, tmp_path,
                                                  monkeypatch, cpus, pools):
    sizes = []

    class SerialPool:
        """Records the requested pool size and maps in this process."""

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
    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert cli.main(["track", str(seq_dir), "--output", str(tmp_path / "run"),
                     "--jobs", "100000"]) == 0
    assert sizes == pools
    assert (tmp_path / "run" / "tracks" / "0002.txt").exists()


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
