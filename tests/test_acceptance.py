"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import time

import numpy as np
import pytest

from egoloc import (
    DetectParams,
    MatchParams,
    ModelPool,
    ModelRecord,
    PointCloudModel,
    RansacParams,
    SceneSpec,
    SessionBatch,
    TrackParams,
    VisibilityMatrix,
    build_index,
    build_model,
    compress_set_kcover,
    compress_weighted_kcover,
    decompose,
    detect_structures,
    dlt_pose,
    generate_scene,
    ingest_session,
    localize,
    load_model,
    ransac_pose,
    render_view,
    resample_descriptors,
    save_model,
    smooth_trajectory,
    verify,
)
from egoloc.bench import held_out_views, tune_k
from egoloc.errors import (
    DegenerateConfigurationError,
    ModelIOError,
    RegistrationFailedError,
)

from test_compression import (
    make_labeling,
    make_model,
    naive_set_kcover,
    naive_weighted_kcover,
    random_instance,
)
from test_pose import correspondences_for, front_facing_points, make_intrinsics
from test_model_io import random_model
from test_pool import fake_result
from conftest import random_pose, saved_bytes


def report(name: str, passed: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"[{verdict}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert passed, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_kcover_oracle_equivalence():
    """200 seeded random instances match the naive reference sequences exactly."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240001)
    mismatches = 0
    for _ in range(200):
        model, labeling, group_of, dense, k = random_instance(rng)
        got_w = compress_weighted_kcover(model, labeling, k).selected_ids.tolist()
        want_w = naive_weighted_kcover(dense, group_of, k)
        got_s = compress_set_kcover(model, k).selected_ids.tolist()
        want_s = naive_set_kcover(dense, k)
        mismatches += (got_w != want_w) + (got_s != want_s)
    report(
        "k-cover oracle equivalence (200 instances)",
        mismatches == 0,
        started,
        budget=5.0,
        detail=f"{mismatches} mismatching sequences",
    )


def test_coverage_property():
    """Both k-cover methods cover every non-saturated camera on 50 scenes."""
    started = time.perf_counter()
    violations = 0
    for seed in range(50):
        rng = np.random.default_rng(30000 + seed)
        n = int(rng.integers(40, 120))
        m = int(rng.integers(2, 8))
        k = int(rng.integers(1, 12))  # sometimes above camera counts: saturation
        dense = rng.random((n, m)) < float(rng.uniform(0.15, 0.6))
        group_of = [int(g) for g in rng.integers(-1, 3, size=n)]
        model = make_model(dense)
        labeling = make_labeling(group_of, n)
        for compressed in (
            compress_weighted_kcover(model, labeling, k),
            compress_set_kcover(model, k),
        ):
            covered = compressed.achieved_counts
            full = model.visibility.camera_counts()
            for j in range(m):
                if full[j] >= k:
                    if covered[j] < k:
                        violations += 1
                else:
                    if covered[j] != full[j]:
                        violations += 1
    report(
        "coverage property (50 scenes)",
        violations == 0,
        started,
        budget=10.0,
        detail=f"{violations} camera violations",
    )


def test_dlt_accuracy():
    """20 noise-free poses, 50 correspondences: center error < 1e-6 m; planar raises."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(40000 + seed)
        pose = random_pose(rng, translation_scale=3.0)
        intr = make_intrinsics()
        points = front_facing_points(rng, pose, 50)
        pixels = correspondences_for(pose, intr, points)
        _, recovered = decompose(dlt_pose(pixels, points))
        worst = max(worst, float(np.linalg.norm(recovered.center - pose.center)))

    planar_raised = True
    rng = np.random.default_rng(41000)
    flat = np.column_stack([rng.uniform(-3, 3, 20), rng.uniform(-3, 3, 20), np.full(20, 5.0)])
    pixels = np.column_stack([rng.uniform(0, 640, 20), rng.uniform(0, 480, 20)])
    try:
        dlt_pose(pixels, flat)
        planar_raised = False
    except DegenerateConfigurationError:
        pass
    report(
        "DLT accuracy (20 poses)",
        worst < 1e-6 and planar_raised,
        started,
        budget=2.0,
        detail=f"worst center error {worst:.2e} m, planar raised: {planar_raised}",
    )


def test_ransac_robustness():
    """100 trials of 70 noisy inliers + 30 outliers: <1% extent error in >=95."""
    started = time.perf_counter()
    extent = 16.0  # spread of the synthetic correspondence cloud
    successes = 0
    for trial in range(100):
        rng = np.random.default_rng(50000 + trial)
        pose = random_pose(rng, translation_scale=2.0)
        intr = make_intrinsics()
        inlier_pts = front_facing_points(rng, pose, 70)
        inlier_px = correspondences_for(pose, intr, inlier_pts) + rng.normal(
            scale=0.5, size=(70, 2)
        )
        outlier_pts = front_facing_points(rng, pose, 30)
        outlier_px = np.column_stack(
            [rng.uniform(0, 640, size=30), rng.uniform(0, 480, size=30)]
        )
        pixels = np.vstack([inlier_px, outlier_px])
        points = np.vstack([inlier_pts, outlier_pts])
        estimate = ransac_pose(pixels, points, RansacParams(seed=trial))
        if np.linalg.norm(estimate.pose.center - pose.center) < 0.01 * extent:
            successes += 1
    report(
        "RANSAC robustness (100 trials)",
        successes >= 95,
        started,
        budget=30.0,
        detail=f"{successes}/100 within 1% of extent",
    )


def _planted_structure_scene(rng):
    from test_structures import line_points, plane_points

    normals = [np.array([1.0, 0.2, 0.1]), np.array([0.1, 1.0, -0.2]), np.array([0.5, -0.5, 1.0])]
    sizes = (300, 260, 220)
    offsets = (0.0, 2.0, -1.5)
    blocks, owners = [], []
    for idx, (n_pts, normal, off) in enumerate(zip(sizes, normals, offsets)):
        blocks.append(plane_points(rng, normal, off, n_pts))
        owners += [idx] * n_pts
    line_dir = np.array([0.3, 0.3, 1.0])
    blocks.append(line_points(rng, np.array([4.0, -4.0, 0.0]), line_dir, 80))
    owners += [3] * 80
    structured = np.vstack(blocks)

    clutter = []
    while len(clutter) < 215:
        c = rng.uniform(-8, 8, size=3)
        ok = True
        for n_raw, off in zip(normals, offsets):
            n_unit = n_raw / np.linalg.norm(n_raw)
            center_off = off  # plane_points uses offset along the unit normal
            if abs(c @ n_unit - center_off) < 0.3:
                ok = False
        d = line_dir / np.linalg.norm(line_dir)
        rel = c - np.array([4.0, -4.0, 0.0])
        if np.linalg.norm(rel - (rel @ d) * d) < 0.3:
            ok = False
        if ok:
            clutter.append(c)
    owners += [-1] * len(clutter)
    return np.vstack([structured, np.asarray(clutter)]), np.asarray(owners), [
        n / np.linalg.norm(n) for n in normals
    ]


def test_structure_detection():
    """3 planes + 1 line + 20% clutter: membership >=95%, normals <2 deg, in >=45/50 seeds."""
    started = time.perf_counter()
    good = 0
    for seed in range(50):
        rng = np.random.default_rng(60000 + seed)
        points, owners, true_normals = _planted_structure_scene(rng)
        labeling = detect_structures(
            points, DetectParams(inlier_threshold=0.05, min_members=40, seed=seed)
        )
        labels = labeling.labels()
        # Map each planted group to its best-overlapping detected structure.
        correct = 0
        used = set()
        normals_ok = True
        for planted in range(4):
            mask = owners == planted
            if not mask.any():
                continue
            found, count = np.unique(labels[mask], return_counts=True)
            best = found[np.argmax(count)]
            if best >= 0 and best not in used:
                used.add(best)
                correct += int(count.max())
                if planted < 3:
                    detected = labeling.structures[best]
                    if hasattr(detected, "normal"):
                        cosine = min(abs(float(detected.normal @ true_normals[planted])), 1.0)
                        if np.degrees(np.arccos(cosine)) >= 2.0:
                            normals_ok = False
                    else:
                        normals_ok = False
        correct += int((labels[owners == -1] == -1).sum())
        if correct >= 0.95 * len(points) and normals_ok:
            good += 1
    report(
        "structure detection (50 seeds)",
        good >= 45,
        started,
        budget=30.0,
        detail=f"{good}/50 seeds recovered",
    )


def test_end_to_end_compression_tradeoff():
    """Table-1 analogue: <=10% compression keeps mean error <= 2x full and the
    weighted method's stdev <= the unweighted stdev at matched counts,
    majority over 10 seeds."""
    started = time.perf_counter()
    mean_ok = 0
    stdev_ok = 0
    counts_matched = 0
    seeds = range(10)
    for seed in seeds:
        spec = SceneSpec(
            num_planes=4,
            num_lines=0,
            points_per_plane=(8000, 6000, 4000, 1500),
            num_clutter=500,
            num_cameras=40,
            descriptor_dim=64,
            visibility_dropout=0.6,
            pixel_noise_sigma=1.0,
            descriptor_noise_sigma=0.05,
            outlier_fraction=0.1,
            seed=100 + seed,
        )
        scene = generate_scene(spec)
        model = build_model(scene, 0.0, seed=seed)
        labeling = detect_structures(model.xyz, DetectParams(seed=seed))
        target = int(round(0.08 * model.num_points))  # <= 10% of points
        _, cw = tune_k(
            lambda k: compress_weighted_kcover(model, labeling, k),
            target,
            model.num_points,
            tolerance=0.02,
        )
        _, cs = tune_k(
            lambda k: compress_set_kcover(model, k), target, model.num_points, tolerance=0.02
        )
        if abs(cw.num_points - cs.num_points) <= 0.05 * max(cw.num_points, cs.num_points):
            counts_matched += 1
        views = held_out_views(scene, 50, seed=seed)
        stats = {}
        for name, variant in (("full", model), ("weighted", cw), ("set", cs)):
            index = build_index(variant, None, seed=seed)
            errors = []
            for i, view in enumerate(views):
                try:
                    result = localize(view, index, MatchParams(), RansacParams(seed=seed * 997 + i))
                except RegistrationFailedError:
                    continue
                errors.append(
                    float(np.linalg.norm(result.pose.center - view.true_pose.center)) * 100
                )
            stats[name] = (np.mean(errors), np.std(errors))
        if stats["weighted"][0] <= 2.0 * stats["full"][0]:
            mean_ok += 1
        if stats["weighted"][1] <= stats["set"][1]:
            stdev_ok += 1
    passed = mean_ok > 5 and stdev_ok > 5 and counts_matched == len(list(seeds))
    report(
        "end-to-end compression trade-off (10 seeds)",
        passed,
        started,
        budget=600.0,
        detail=(
            f"mean<=2x full in {mean_ok}/10, weighted stdev <= set stdev in "
            f"{stdev_ok}/10, counts matched in {counts_matched}/10"
        ),
    )


def test_verification_criterion():
    """Eq.-style truth table at the paper thresholds T1=50, T2=0.5."""
    started = time.perf_counter()
    table = [
        ((60, 36), True),  # 60 > 50 and 0.6 > 0.5
        ((50, 50), False),  # N_c not strictly above T1
        ((51, 26), True),  # 26/51 just above 0.5
        ((100, 50), False),  # ratio exactly 0.5 rejected
        ((51, 25), False),
    ]
    wrong = [
        (args, want)
        for args, want in table
        if verify(fake_result(*args), t1=50, t2=0.5) is not want
    ]
    report(
        "verification criterion truth table",
        not wrong and verify(None) is False,
        started,
        budget=1.0,
        detail=f"wrong rows: {wrong}",
    )


def _pool_trial(trial: int):
    spec = SceneSpec(
        num_planes=2,
        num_lines=0,
        points_per_plane=260,
        num_clutter=40,
        num_cameras=5,
        descriptor_dim=32,
        descriptor_noise_sigma=0.03,
        pixel_noise_sigma=0.5,
        seed=7000 + trial,
    )
    base = generate_scene(spec)
    regimes = {name: resample_descriptors(base, 9000 + trial * 10 + i) for i, name in enumerate("ABC")}

    records = []
    for i, name in enumerate("AB"):
        m = build_model(regimes[name], 0.0, seed=i, model_id=f"regime-{name}")
        records.append(
            ModelRecord(
                record_id=f"regime-{name}",
                model=m,
                index=build_index(m, 16, seed=1),
                created=float(i),
                last_used=float(i),
            )
        )
    pool = ModelPool(records=records, active_id="regime-A")
    match_params, ransac_params = MatchParams(), RansacParams(seed=trial)

    def views_for(name, count, base_seed):
        return [
            render_view(regimes[name], i % spec.num_cameras, seed=base_seed + i)
            for i in range(count)
        ]

    # Shifted session in regime B: expect a swap onto the existing B record.
    b_views = views_for("B", 12, base_seed=trial * 177)
    session_b = SessionBatch(views=b_views, timestamps=100.0 + np.arange(12.0))
    pool, outcome_b = ingest_session(pool, session_b, match_params, ransac_params)
    swap_correct = pool.active_id == "regime-B"

    # Position errors of the verified regime-B views, keyed by view index.
    updated_errors = {
        sv.view_index: float(
            np.linalg.norm(sv.result.pose.center - b_views[sv.view_index].true_pose.center)
        )
        for sv in outcome_b.served
        if sv.result is not None and sv.verified
    }
    fixed_errors = {}
    fixed_index = records[0].index  # regime A stays the fixed baseline
    for i, v in enumerate(b_views):
        try:
            r = localize(v, fixed_index, match_params, ransac_params)
        except RegistrationFailedError:
            continue
        if verify(r, pool.params.t1, pool.params.t2):
            fixed_errors[i] = float(np.linalg.norm(r.pose.center - v.true_pose.center))

    # Novel session in regime C: expect exactly one new-model construction.
    def builder(batch):
        m = build_model(regimes["C"], 0.0, seed=3, model_id="regime-C")
        return m, build_index(m, 16, seed=1)

    c_views = views_for("C", 12, base_seed=trial * 311 + 5)
    session_c = SessionBatch(
        views=c_views, timestamps=200.0 + np.arange(12.0), session_id=f"t{trial}"
    )
    pool, outcome_c = ingest_session(
        pool, session_c, match_params, ransac_params, build_model_fn=builder
    )
    return swap_correct, outcome_c.num_new_models, updated_errors, fixed_errors


def test_model_pool_swapping():
    """Table-3 analogue: planted-regime swaps in >=90% of 50 trials, one
    construction for the novel regime, update beats the fixed model: the
    updated pool verifies more regime-B views than the fixed regime-A model,
    and on the views both verify its mean position error is lower."""
    started = time.perf_counter()
    correct = 0
    constructions_ok = 0
    updated_all, fixed_count = [], 0
    updated_both, fixed_both = [], []
    trials = 50
    for trial in range(trials):
        swap_correct, news, updated, fixed = _pool_trial(trial)
        correct += swap_correct
        constructions_ok += news == 1
        updated_all += updated.values()
        fixed_count += len(fixed)
        for view in updated.keys() & fixed.keys():
            updated_both.append(updated[view])
            fixed_both.append(fixed[view])
    overall_mean = float(np.mean(updated_all)) if updated_all else float("nan")
    updated_mean = float(np.mean(updated_both)) if updated_both else float("nan")
    fixed_mean = float(np.mean(fixed_both)) if fixed_both else float("nan")
    improvement = len(updated_all) > fixed_count and (
        not updated_both or updated_mean < fixed_mean
    )
    passed = correct >= 0.9 * trials and constructions_ok == trials and improvement
    report(
        "model-pool swapping (50 trials)",
        passed,
        started,
        budget=300.0,
        detail=(
            f"correct swaps {correct}/{trials}, single constructions "
            f"{constructions_ok}/{trials}, regime-B views verified: updated "
            f"{len(updated_all)} (mean error {overall_mean:.3f} m) vs fixed "
            f"{fixed_count}; on the {len(updated_both)} views both verify, mean "
            f"error updated {updated_mean:.3f} m vs fixed {fixed_mean:.3f} m"
        ),
    )


def test_kalman_smoothing():
    """Table-2 analogue: smoothing beats raw RMSE in >=95 of 100 seeds."""
    started = time.perf_counter()
    wins = 0
    for seed in range(100):
        rng = np.random.default_rng(80000 + seed)
        times = 0.1 * np.arange(200)
        velocity = rng.uniform(-2, 2, size=3)
        truth = np.outer(times, velocity) + rng.uniform(-5, 5, size=3)
        measured = truth + rng.normal(scale=0.5, size=truth.shape)
        outlier_frames = rng.choice(200, size=10, replace=False)
        for f in outlier_frames:
            measured[f] += rng.uniform(5, 20) * rng.normal(size=3)
        measurements = [(float(t), measured[i]) for i, t in enumerate(times)]
        states = smooth_trajectory(
            measurements, TrackParams(process_noise=0.5, measurement_variance=0.25)
        )
        smoothed = np.stack([s.position for s in states])
        raw_rmse = np.sqrt(((measured - truth) ** 2).sum(axis=1).mean())
        kf_rmse = np.sqrt(((smoothed - truth) ** 2).sum(axis=1).mean())
        wins += kf_rmse < raw_rmse
    report(
        "Kalman smoothing (100 seeds)",
        wins >= 95,
        started,
        budget=10.0,
        detail=f"{wins}/100 seeds improved",
    )


def test_serialization_fuzz(tmp_path):
    """1000 operations: exact round trips on valid files, typed errors on
    truncations and header bit flips, no crashes."""
    started = time.perf_counter()
    rng = np.random.default_rng(90001)
    path = tmp_path / "fuzz.eglm"
    round_trips = truncations = flips = failures = 0
    for i in range(1000):
        mode = i % 3
        model = random_model(rng, with_labeling=(i % 5 == 0))
        save_model(model, path)
        data = path.read_bytes()
        if mode == 0:
            loaded = load_model(path)
            if not (isinstance(loaded, PointCloudModel) and saved_bytes(loaded) == data):
                failures += 1
            round_trips += 1
        elif mode == 1:
            cut = int(rng.integers(0, len(data)))
            path.write_bytes(data[:cut])
            try:
                load_model(path)
                failures += 1
            except ModelIOError:
                pass
            truncations += 1
        else:
            from egoloc.model_io import _HEADER_SIZE

            byte = int(rng.integers(0, _HEADER_SIZE))
            bit = int(rng.integers(0, 8))
            corrupted = bytearray(data)
            corrupted[byte] ^= 1 << bit
            path.write_bytes(bytes(corrupted))
            try:
                load_model(path)
                failures += 1
            except ModelIOError:
                pass
            flips += 1
    report(
        "serialization fuzz (1000 ops)",
        failures == 0,
        started,
        budget=30.0,
        detail=f"{round_trips} round trips, {truncations} truncations, {flips} bit flips, "
        f"{failures} failures",
    )
