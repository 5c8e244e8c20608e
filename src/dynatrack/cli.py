"""Command-line interface: track, synth, occlude, evaluate, compare."""
from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from . import config as cfg_mod
from . import kitti_io
from .errors import ConfigurationError, DynatrackError

# Commands import the tracker, scoring, occlusion and synthesis only when
# they run them, so that each starts without the others.

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# Argument parser for each non-boolean config key type; booleans take true/false.
_FLAG_TYPES = {"int": int, "float": float}


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", default=None,
                        help="config file (default: $%s)" % cfg_mod.CONFIG_ENV_VAR)
    # Boolean flags last, the order `--help` has always listed them in.
    for key, kind in sorted(cfg_mod.FIELD_TYPES.items(),
                            key=lambda item: item[1] == "bool"):
        parsing = ({"choices": ["true", "false"]} if kind == "bool"
                   else {"type": _FLAG_TYPES[kind]})
        parser.add_argument("--" + key.replace("_", "-"), default=None,
                            dest=key, **parsing)


def _resolve_config(args) -> cfg_mod.RunConfig:
    path = args.config or cfg_mod.default_config_path()
    if path is not None:
        if not Path(path).exists():
            raise _Usage(f"config file not found: {path}")
        cfg = cfg_mod.load_config(path)
    else:
        cfg = cfg_mod.RunConfig()
    overrides = {key: getattr(args, key) for key in cfg_mod.FIELD_TYPES}
    return cfg_mod.merge_overrides(cfg, overrides)


class _Usage(Exception):
    """Invalid invocation; maps to exit code 2."""


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.exists():
        raise _Usage(f"{what} not found: {path}")
    return path


def _sequence_paths(path: Path):
    if path.is_dir():
        found = sorted(p for p in path.iterdir() if p.suffix == ".txt" and p.is_file())
        if not found:
            raise _Usage(f"no .txt sequence files in directory: {path}")
        return found
    return [path]


def _track_one(det_path: Path, cfg: cfg_mod.RunConfig, out_dir: Path):
    from .tracker import MultiObjectTracker
    ds = kitti_io.parse_detections(det_path)
    tracker = MultiObjectTracker(cfg, record_trajectories=True)
    per_frame = tracker.run(kitti_io.measurements_from(ds))
    kitti_io.write_tracks(per_frame, out_dir / "tracks" / f"{ds.sequence_id}.txt")
    kitti_io.export_trajectory_csv(
        tracker.trajectory, out_dir / "trajectories" / f"{ds.sequence_id}.csv")
    return ds.sequence_id, len(per_frame), tracker.births


def cmd_track(args) -> int:
    if args.jobs < 1:
        raise _Usage(f"--jobs must be >= 1, got {args.jobs}")
    cfg = _resolve_config(args)
    det_path = _require_file(args.detections, "detections file")
    out_dir = Path(args.output)
    (out_dir / "tracks").mkdir(parents=True, exist_ok=True)
    (out_dir / "trajectories").mkdir(parents=True, exist_ok=True)
    cfg_mod.save_config(cfg, out_dir / "config_effective")
    paths = _sequence_paths(det_path)
    # Under fork the pool starts every worker up front, so never ask for more
    # workers than there are sequences or CPUs this process may run on.
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    jobs = min(args.jobs, len(paths), cpus or 1)
    if jobs > 1:
        # Imported here: multiprocessing would add to every serial start-up.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_track_one, paths,
                                    [cfg] * len(paths), [out_dir] * len(paths)))
    else:
        results = [_track_one(p, cfg, out_dir) for p in paths]
    for seq_id, n_frames, n_tracks in results:
        print(f"{seq_id}: {n_frames} frames, {n_tracks} tracks "
              f"-> {out_dir / 'tracks' / (seq_id + '.txt')}")
    return EXIT_OK


def cmd_synth(args) -> int:
    from . import occlusion, synth
    scenario_path = _require_file(args.scenario, "scenario file")
    spec = synth.load_scenario(scenario_path)
    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    gt, dets = synth.generate(spec)
    kitti_io.write_annotations(gt.ground_truth, out_dir / "gt.txt")
    kitti_io.write_detections(dets.detections, out_dir / "detections.txt")
    print(f"{len(gt.ground_truth)} frames, {len(spec.objects)} objects -> {out_dir}")
    if spec.occlusion is not None:
        occluded, dropped = occlusion.occlude_dataset(dets, gt.ground_truth,
                                                      spec.occlusion)
        kitti_io.write_detections(occluded.detections,
                                  out_dir / "occluded_detections.txt")
        print(f"occlusion applied to {len(dropped)} objects "
              f"-> {out_dir / 'occluded_detections.txt'}")
    return EXIT_OK


def cmd_occlude(args) -> int:
    from . import occlusion
    det_path = _require_file(args.detections, "detections file")
    gt_path = _require_file(args.ground_truth, "ground-truth file")
    spec = occlusion.OcclusionSpec(kind=args.kind, start_after=args.start_after,
                                   length=args.length,
                                   match_threshold=args.match_threshold)
    ds = kitti_io.load_sequence(det_path, gt_path)
    occluded, dropped = occlusion.occlude_dataset(ds, ds.ground_truth, spec)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    kitti_io.write_detections(occluded.detections, out)
    kept = sum(len(f) for f in occluded.detections)
    total = sum(len(f) for f in ds.detections)
    print(f"occluded {len(dropped)} objects; kept {kept}/{total} detections -> {out}")
    return EXIT_OK


def _check_threshold(threshold: float):
    """A match distance must be finite and > 0, the rule `gate_distance`
    follows; `nan` fails too. Scoring would raise ContractViolationError."""
    if not 0 < threshold < float("inf"):
        raise _Usage(f"--threshold must be finite and > 0, got {threshold}")


def _metric_rows(mot, ids):
    return [
        ("mota", f"{mot.mota:.6f}"),
        ("false_positives", mot.false_positives),
        ("false_negatives", mot.false_negatives),
        ("id_switches", mot.id_switches),
        ("gt_total", mot.gt_total),
        ("matches", mot.matches),
        ("idf1", f"{ids.idf1:.6f}"),
        ("idp", f"{ids.idp:.6f}"),
        ("idr", f"{ids.idr:.6f}"),
        ("idtp", ids.idtp),
        ("idfp", ids.idfp),
        ("idfn", ids.idfn),
        ("threshold", mot.threshold),
    ]


def _write_report(out_dir: Path, name: str, text: str, header: list, rows):
    """reports/<name>.txt holding `text`, and reports/<name>.csv."""
    reports = out_dir / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{name}.txt").write_text(text + "\n", encoding="utf-8")
    with open(reports / f"{name}.csv", "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_evaluate(args) -> int:
    from . import metrics
    _check_threshold(args.threshold)
    gt_path = _require_file(args.ground_truth, "ground-truth file")
    hyp_path = _require_file(args.hypotheses, "track file")
    gt = kitti_io.parse_annotations(gt_path)
    hyp = kitti_io.parse_tracks(hyp_path)
    mot, ids = metrics.score(gt, hyp, args.threshold)
    rows = _metric_rows(mot, ids)
    text = "\n".join(f"{key}: {value}" for key, value in rows)
    print(text)
    if args.output:
        _write_report(Path(args.output), "evaluation", text, ["metric", "value"],
                      rows)
    return EXIT_OK


def cmd_compare(args) -> int:
    from . import metrics
    from .tracker import measure_latency
    _check_threshold(args.threshold)
    if args.warmup < 0:  # a negative slice start would keep only the last frames
        raise _Usage(f"--warmup must be >= 0, got {args.warmup}")
    cfg = _resolve_config(args)
    det_path = _require_file(args.detections, "detections file")
    gt_path = _require_file(args.ground_truth, "ground-truth file")
    ds = kitti_io.parse_detections(det_path)
    gt = kitti_io.parse_annotations(gt_path)
    frames = kitti_io.measurements_from(ds)
    if args.warmup >= len(frames):  # no frame would be left to time
        raise _Usage(f"--warmup must be less than the {len(frames)} frames, "
                     f"got {args.warmup}")
    baseline_cfg = cfg.replace(dynamics_enabled=False)
    dynamic_cfg = cfg.replace(dynamics_enabled=True)
    latency = measure_latency(frames, baseline_cfg, dynamic_cfg,
                              warmup=args.warmup)
    scores = [metrics.score(gt, per_frame, args.threshold)
              for per_frame in (latency.baseline_reports,
                                latency.dynamic_reports)]
    header = f"{'metric':<18}{'baseline':>14}{'dynamic':>14}"
    lines = [header, "-" * len(header)]
    rows = []
    for label, attr, kind in (("MOTA", "mota", "mot"),
                              ("IDF1", "idf1", "ids"),
                              ("FP", "false_positives", "mot"),
                              ("FN", "false_negatives", "mot"),
                              ("ID switches", "id_switches", "mot")):
        vals = [getattr(mot if kind == "mot" else ids, attr) for mot, ids in scores]
        fmt = (lambda v: f"{v:.4f}") if isinstance(vals[0], float) else str
        lines.append(f"{label:<18}{fmt(vals[0]):>14}{fmt(vals[1]):>14}")
        rows.append((label.lower().replace(" ", "_"), vals[0], vals[1]))
    lines.append(f"{'latency (ms)':<18}{latency.mean_baseline_ms:>14.4f}"
                 f"{latency.mean_dynamic_ms:>14.4f}")
    lines.append(f"mean per-frame latency delta: {latency.mean_delta_ms:+.4f} ms")
    lines.append(f"adaptive/baseline latency ratio: {latency.ratio:.4f}")
    text = "\n".join(lines)
    print(text)
    if args.output:
        out_dir = Path(args.output)
        out_dir.mkdir(parents=True, exist_ok=True)
        cfg_mod.save_config(cfg, out_dir / "config_effective")
        rows += [("latency_baseline_ms", f"{latency.mean_baseline_ms:.6f}", ""),
                 ("latency_dynamic_ms", f"{latency.mean_dynamic_ms:.6f}", ""),
                 ("latency_delta_ms", f"{latency.mean_delta_ms:.6f}", ""),
                 ("latency_ratio", f"{latency.ratio:.6f}", "")]
        _write_report(out_dir, "compare", text, ["metric", "baseline", "dynamic"],
                      rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynatrack",
        description="Multi-object tracking with adaptive motion-dynamics weighting.")
    sub = parser.add_subparsers(dest="command")

    p_track = sub.add_parser("track", help="run the tracker over detections")
    p_track.add_argument("detections", help="detection file or directory of sequences")
    p_track.add_argument("--output", default="out", help="output directory")
    p_track.add_argument("--jobs", type=int, default=1,
                         help="sequences processed in parallel")
    _add_config_flags(p_track)
    p_track.set_defaults(func=cmd_track)

    p_synth = sub.add_parser("synth", help="generate a synthetic sequence")
    p_synth.add_argument("scenario", help="scenario YAML file")
    p_synth.add_argument("--output", default="out", help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_occ = sub.add_parser("occlude", help="delete detection runs to simulate occlusion")
    p_occ.add_argument("detections")
    p_occ.add_argument("ground_truth")
    p_occ.add_argument("--kind", choices=list(cfg_mod.OCCLUSION_KINDS),
                       default="mid")
    p_occ.add_argument("--start-after", type=int, default=35,
                       help="observations required before the cut")
    p_occ.add_argument("--length", type=int, default=20,
                       help="consecutive detections removed")
    p_occ.add_argument("--match-threshold", type=float, default=cfg_mod.MATCH_DISTANCE)
    p_occ.add_argument("--output", required=True, help="occluded detections file")
    p_occ.set_defaults(func=cmd_occlude)

    p_eval = sub.add_parser("evaluate", help="score tracks against ground truth")
    p_eval.add_argument("ground_truth")
    p_eval.add_argument("hypotheses")
    p_eval.add_argument("--threshold", type=float, default=cfg_mod.MATCH_DISTANCE)
    p_eval.add_argument("--output", default=None, help="directory for reports/")
    p_eval.set_defaults(func=cmd_evaluate)

    p_cmp = sub.add_parser("compare",
                           help="baseline vs dynamic configuration side by side")
    p_cmp.add_argument("detections")
    p_cmp.add_argument("ground_truth")
    p_cmp.add_argument("--threshold", type=float, default=cfg_mod.MATCH_DISTANCE)
    p_cmp.add_argument("--warmup", type=int, default=10)
    p_cmp.add_argument("--output", default=None, help="directory for reports/")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (_Usage, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DynatrackError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
