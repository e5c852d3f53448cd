"""Model pool: verification criterion, scoring, swapping, pruning."""

import dataclasses
import functools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egoloc import (
    MatchParams,
    ModelPool,
    ModelRecord,
    PoolParams,
    RansacParams,
    SceneSpec,
    SessionBatch,
    build_index,
    build_model,
    generate_scene,
    ingest_session,
    prune,
    render_view,
    resample_descriptors,
    score_model,
    verify,
)
import egoloc.pool as pool_module
from egoloc.errors import PoolEmptyError
from egoloc.pool import PoolEvent, ServedView, SessionOutcome, _score_records
from egoloc.pose import LocalizationResult


def fake_result(n_c: int, n_i: int) -> LocalizationResult:
    from egoloc import CameraPose
    from conftest import unit_intrinsics

    return LocalizationResult(
        pose=CameraPose(rotation=np.eye(3), translation=np.zeros(3)),
        intrinsics=unit_intrinsics(),
        inlier_ids=np.arange(n_i),
        n_correspondences=n_c,
        inlier_point_ids=np.arange(n_i),
        mean_reprojection_error=1.0,
        timings={},
    )


class TestVerify:
    def test_paper_thresholds(self):
        assert verify(fake_result(60, 36), t1=50, t2=0.5) is True

    def test_boundary_nc_strict(self):
        assert verify(fake_result(50, 50), t1=50, t2=0.5) is False

    def test_boundary_ratio_strict(self):
        assert verify(fake_result(100, 50), t1=50, t2=0.5) is False

    def test_just_above_both(self):
        assert verify(fake_result(51, 26), t1=50, t2=0.5) is True

    def test_failure_is_false(self):
        assert verify(None) is False

    @given(
        n_c=st.integers(1, 500),
        n_i=st.integers(0, 500),
        bump=st.integers(0, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_inliers(self, n_c, n_i, bump):
        n_i = min(n_i, n_c)
        if verify(fake_result(n_c, n_i)):
            assert verify(fake_result(n_c, min(n_i + bump, n_c)))

    @given(n_c=st.integers(1, 200), scale=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_correspondences_at_fixed_ratio(self, n_c, scale):
        n_i = int(0.6 * n_c)
        if verify(fake_result(n_c, n_i)):
            assert verify(fake_result(n_c * scale, n_i * scale))


@pytest.fixture(scope="module")
def regime_world():
    """Shared geometry under three appearance regimes; pool holds A and B."""
    spec = SceneSpec(
        num_planes=2,
        num_lines=0,
        points_per_plane=220,
        num_clutter=40,
        num_cameras=5,
        descriptor_dim=16,
        descriptor_noise_sigma=0.02,
        pixel_noise_sigma=0.5,
        seed=70,
    )
    base = generate_scene(spec)
    scenes = {r: resample_descriptors(base, r) for r in (101, 202, 303)}
    records = {}
    for i, r in enumerate((101, 202)):
        model = build_model(scenes[r], 0.0, seed=r, model_id=f"regime-{r}")
        records[r] = ModelRecord(
            record_id=f"regime-{r}",
            model=model,
            index=build_index(model, 16, seed=1),
            created=float(i),
            last_used=float(i),
        )
    return scenes, records


def make_pool(records, active, **kwargs):
    return ModelPool(records=list(records), active_id=active, params=PoolParams(**kwargs))


def session_views(scene, count, seed, start=100.0):
    views = [render_view(scene, i % scene.num_cameras, seed=seed + i) for i in range(count)]
    return SessionBatch(
        views=views, timestamps=start + np.arange(count, dtype=float), session_id=f"s{seed}"
    )


class TestScoreModel:
    def test_own_regime_scores_high(self, regime_world):
        scenes, records = regime_world
        session = session_views(scenes[101], 10, seed=500)
        score = score_model(records[101], session.views, MatchParams(), RansacParams(seed=1))
        assert score == 1.0

    def test_foreign_regime_scores_low(self, regime_world):
        scenes, records = regime_world
        session = session_views(scenes[303], 10, seed=600)
        score_own = score_model(records[101], session.views, MatchParams(), RansacParams(seed=1))
        assert score_own <= 0.2

    @pytest.mark.parametrize("num_views", [0, -4])
    def test_fewer_than_one_view_rejected(self, regime_world, num_views):
        scenes, records = regime_world
        session = session_views(scenes[101], 10, seed=500)
        with pytest.raises(ValueError, match="^num_views must be in "):
            score_model(records[101], session.views, num_views=num_views)


class TestIngestSession:
    def test_matching_regime_no_swap(self, regime_world):
        scenes, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101")
        session = session_views(scenes[101], 8, seed=700)
        pool, outcome = ingest_session(pool, session, MatchParams(), RansacParams(seed=2))
        assert outcome.num_triggers == 0
        assert pool.active_id == "regime-101"
        assert all(sv.verified for sv in outcome.served)

    def test_shifted_regime_swaps_to_existing(self, regime_world):
        scenes, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101")
        session = session_views(scenes[202], 12, seed=800)
        pool, outcome = ingest_session(pool, session, MatchParams(), RansacParams(seed=3))
        assert outcome.num_triggers == 1
        assert pool.active_id == "regime-202"
        assert outcome.num_new_models == 0
        # Views after the swap verify against the swapped-in model.
        post_swap = [sv for sv in outcome.served if sv.record_id == "regime-202"]
        assert post_swap and all(sv.verified for sv in post_swap)

    def test_novel_regime_constructs_new_model(self, regime_world):
        scenes, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101")
        session = session_views(scenes[303], 12, seed=900)
        builds = []

        def builder(batch):
            builds.append(batch.session_id)
            model = build_model(scenes[303], 0.0, seed=303, model_id="regime-303")
            return model, build_index(model, 16, seed=1)

        pool, outcome = ingest_session(
            pool, session, MatchParams(), RansacParams(seed=4), build_model_fn=builder
        )
        assert outcome.num_new_models == 1
        assert len(builds) == 1
        assert len(pool.records) == 3
        assert pool.active_id.startswith("s900") or pool.active_id not in (
            "regime-101",
            "regime-202",
        )

    def test_new_record_id_skips_ids_the_pool_holds(self, regime_world):
        # After a prune the record count can repeat a kept record's id: here
        # two records and one of them named "s900-new-2".
        scenes, records = regime_world
        kept = dataclasses.replace(records[202], record_id="s900-new-2")
        pool = make_pool([records[101], kept], "regime-101")
        session = session_views(scenes[303], 12, seed=900)
        model = build_model(scenes[303], 0.0, seed=303, model_id="regime-303")

        pool, outcome = ingest_session(
            pool,
            session,
            MatchParams(),
            RansacParams(seed=4),
            build_model_fn=lambda batch: (model, build_index(model, 16, seed=1)),
        )
        assert outcome.num_new_models == 1
        assert [r.record_id for r in pool.records] == ["regime-101", "s900-new-2", "s900-new-3"]
        assert pool.active_id == "s900-new-3" and pool.active.model is model

    def test_empty_pool_rejected(self, regime_world):
        scenes, _ = regime_world
        session = session_views(scenes[101], 3, seed=123)
        pool = make_pool([], "missing") if False else None
        with pytest.raises((PoolEmptyError, KeyError)):
            bad = ModelPool.__new__(ModelPool)
            bad.records = []
            bad.active_id = "none"
            bad.params = PoolParams()
            ingest_session(bad, session)


    @pytest.mark.parametrize("score_views", [0, -4])
    def test_score_views_below_one_rejected(self, regime_world, monkeypatch, score_views):
        scenes, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101")
        session = session_views(scenes[303], 12, seed=900)

        def serve(*args):
            raise AssertionError("a view was served")

        monkeypatch.setattr(pool_module, "_localize_or_none", serve)
        with pytest.raises(ValueError, match="^score_views must be in "):
            ingest_session(pool, session, score_views=score_views)


class TestPrune:
    def test_fresh_records_kept(self, regime_world):
        _, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101", ttl=100.0)
        assert prune(pool, now=50.0) == []
        assert len(pool.records) == 2

    def test_stale_non_active_removed(self, regime_world):
        _, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101", ttl=10.0)
        removed = prune(pool, now=1000.0)
        assert removed == ["regime-202"]
        assert [r.record_id for r in pool.records] == ["regime-101"]

    def test_stale_active_immune(self, regime_world):
        _, records = regime_world
        pool = make_pool([records[101]], "regime-101", ttl=1.0)
        assert prune(pool, now=1e9) == []
        assert pool.records

    def test_a_nan_now_is_refused(self, regime_world):
        """A NaN `now` compares false with every age, so it would prune nothing."""
        _, records = regime_world
        pool = make_pool([records[101], records[202]], "regime-101", ttl=5.0)
        with pytest.raises(ValueError, match=r"^now must be in \(-inf, inf\), not nan$"):
            prune(pool, float("nan"))
        assert len(pool.records) == 2


class TestPoolValidation:
    def test_active_must_exist(self, regime_world):
        _, records = regime_world
        with pytest.raises(KeyError):
            make_pool([records[101]], "nope")

    def test_record_ids_must_be_distinct(self, regime_world):
        _, records = regime_world
        twin = dataclasses.replace(records[202], record_id="regime-101")
        with pytest.raises(ValueError, match="'regime-101' appears twice"):
            make_pool([records[101], twin], "regime-101")

    def test_threshold_bounds(self, regime_world):
        _, records = regime_world
        with pytest.raises(ValueError):
            make_pool([records[101]], "regime-101", t2=0.0)

    @pytest.mark.parametrize("ttl", [0.0, -1.0, float("nan")])
    def test_ttl_must_be_positive(self, ttl):
        with pytest.raises(ValueError, match="ttl"):
            PoolParams(ttl=ttl)

    @pytest.mark.parametrize("threshold", [-0.1, 1.5, float("nan")])
    def test_swap_threshold_must_be_a_share(self, threshold):
        with pytest.raises(ValueError, match="swap_threshold"):
            PoolParams(swap_threshold=threshold)

    def test_swap_threshold_bounds_are_allowed(self):
        assert PoolParams(swap_threshold=0.0).swap_threshold == 0.0
        assert PoolParams(swap_threshold=1.0).swap_threshold == 1.0

    def test_t1_must_be_non_negative(self):
        with pytest.raises(ValueError, match="t1"):
            PoolParams(t1=-3)
        assert PoolParams(t1=0).t1 == 0

    def test_session_requires_views(self):
        with pytest.raises(ValueError):
            SessionBatch(views=[], timestamps=np.zeros(0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_session_timestamps_must_be_finite(self, regime_world, bad):
        scenes, _ = regime_world
        views = session_views(scenes[101], 4, seed=123).views
        with pytest.raises(ValueError, match=r"view 2: timestamp -?(nan|inf) is not finite"):
            SessionBatch(views=views, timestamps=[0.0, 1.0, bad, bad])

    def test_record_times_must_be_finite(self, regime_world):
        _, records = regime_world
        with pytest.raises(ValueError, match="^created must be "):
            dataclasses.replace(records[101], created=float("nan"))


def brute_force_score(record, views, match_params, ransac_params, *, t1, t2, num_views):
    """Score every view of the prefix, with no bound and no reuse."""
    prefix = list(views)[: max(num_views, 1)]
    passed = sum(
        verify(pool_module._localize_or_none(v, record.index, match_params, ransac_params), t1, t2)
        for v in prefix
    )
    return passed / len(prefix)


def reference_ingest(
    pool,
    session,
    match_params,
    ransac_params,
    *,
    build_model_fn=None,
    score_views=10,
    score=score_model,
):
    """The pool loop with every record scored in full and no result reused."""
    policy = pool.params
    events, served = [], []
    window = deque(maxlen=policy.invalid_window)
    swap_attempted = False
    for i, view in enumerate(session.views):
        now = float(session.timestamps[i])
        active = pool.active
        result = pool_module._localize_or_none(view, active.index, match_params, ransac_params)
        ok = verify(result, policy.t1, policy.t2)
        served.append(ServedView(i, active.record_id, result, ok))
        if ok:
            active.last_used = max(active.last_used, now)
        window.append(not ok)
        failures = sum(window)
        if failures >= policy.invalid_quota and not swap_attempted:
            swap_attempted = True
            details = {"view_index": i, "failures": failures, "window": len(window)}
            events.append(PoolEvent("trigger", now, details))
            scores = {
                r.record_id: score(
                    r,
                    session.views,
                    match_params,
                    ransac_params,
                    t1=policy.t1,
                    t2=policy.t2,
                    num_views=score_views,
                )
                for r in pool.records
            }
            best_score = max(scores.values())
            previous = pool.active_id
            if best_score >= policy.swap_threshold:
                candidates = [r for r in pool.records if scores[r.record_id] == best_score]
                chosen = max(candidates, key=lambda r: r.last_used)
                pool.active_id = chosen.record_id
                chosen.last_used = max(chosen.last_used, now)
                details = {"from": previous, "to": chosen.record_id, "score": best_score}
                events.append(PoolEvent("activate", now, {**details, "reason": "swap"}))
            elif build_model_fn is not None:
                model, index = build_model_fn(session)
                k = len(pool.records)
                new_id = f"{session.session_id or 'session'}-new-{k}"
                while any(r.record_id == new_id for r in pool.records):
                    k += 1
                    new_id = f"{session.session_id or 'session'}-new-{k}"
                pool.records.append(ModelRecord(new_id, model, index, created=now, last_used=now))
                pool.active_id = new_id
                events.append(PoolEvent("new_model", now, {"record_id": new_id}))
                details = {"from": previous, "to": new_id, "score": best_score}
                events.append(PoolEvent("activate", now, {**details, "reason": "new_model"}))
            window.clear()
    end_time = float(session.timestamps[-1])
    pool.active.last_used = max(pool.active.last_used, end_time)
    removed = prune(pool, end_time)
    if removed:
        events.append(PoolEvent("prune", end_time, {"removed": removed}))
    return pool, SessionOutcome(events=events, served=served)


def without_views_scored(events):
    return [
        (e.kind, e.time, {k: v for k, v in e.details.items() if k != "views_scored"})
        for e in events
    ]


def served_summary(outcome):
    return [
        (sv.view_index, sv.record_id, sv.verified, sv.result and sv.result.n_inliers)
        for sv in outcome.served
    ]


class OutcomeTable:
    """Stands in for `_localize_or_none`: record `index` verifies view `view`
    exactly when `passes[index, view]`. Logs every call."""

    def __init__(self, passes):
        self.passes = passes
        self.calls = []

    def __call__(self, view, index, match_params, ransac_params):
        self.calls.append((index, view))
        return fake_result(60, 36) if self.passes[index, view] else None


def seeded_outcomes(case: int, num_views: int | None = None):
    """Seeded verify outcomes for 2-6 records: fractional scores, all zeros,
    all ones, or a tie at the best score, by `case % 4`."""
    rng = np.random.default_rng(case)
    num_records = int(rng.integers(2, 7))
    num_views = num_views or int(rng.integers(1, 13))
    passes = rng.random((num_records, num_views)) < rng.random((num_records, 1))
    kind = case % 4
    if kind == 1:
        passes[:] = False
    elif kind == 2:
        passes[:] = True
    elif kind == 3:
        best = int(passes.sum(axis=1).argmax())
        twin = (best + 1 + int(rng.integers(num_records - 1))) % num_records
        passes[twin] = rng.permutation(passes[best])
    records = [
        ModelRecord(
            record_id=f"r{k}",
            model=None,
            index=k,
            created=0.0,
            last_used=float(rng.integers(0, 3)),
        )
        for k in range(num_records)
    ]
    return rng, passes, records


class TestBranchAndBoundOracle:
    """Branch-and-bound re-scoring against brute force on seeded tables."""

    def test_scores_match_brute_force(self, monkeypatch):
        for case in range(400):
            rng, passes, records = seeded_outcomes(case)
            num_records, num_views = passes.shape
            table = OutcomeTable(passes)
            monkeypatch.setattr(pool_module, "_localize_or_none", table)
            # The active record has already served a prefix of the views.
            active = int(rng.integers(num_records))
            served = int(rng.integers(num_views + 1))
            results = {(f"r{active}", i): table(i, active, None, None) for i in range(served)}
            table.calls.clear()

            scores, views_scored = _score_records(
                records,
                list(range(num_views)),
                results,
                MatchParams(),
                RansacParams(),
                t1=50,
                t2=0.5,
                num_views=num_views,
                next_view=served,
            )

            exact = {f"r{k}": int(passes[k].sum()) / num_views for k in range(num_records)}
            best_score = max(exact.values())
            ties = {rid for rid, score in exact.items() if score == best_score}
            assert max(scores.values()) == best_score, case
            assert {rid for rid, score in scores.items() if score == best_score} == ties, case
            assert all(exact[rid] == score for rid, score in scores.items()), case
            contenders = [r for r in records if scores.get(r.record_id) == best_score]
            chosen = max(contenders, key=lambda r: r.last_used)
            expected = max((r for r in records if r.record_id in ties), key=lambda r: r.last_used)
            assert chosen is expected, case
            assert len(set(table.calls)) == len(table.calls), case
            assert not {(active, i) for i in range(served)} & set(table.calls), case
            assert len(table.calls) <= num_records * num_views - served, case
            assert set(views_scored) == set(exact), case
            assert all(views_scored[rid] == num_views for rid in scores), case

    def test_ingest_matches_brute_force_loop(self, monkeypatch):
        triggers = swaps = builds = 0
        for case in range(300):
            rng, passes, records = seeded_outcomes(case, num_views=12)
            num_records = len(records)
            # Row `num_records` is the record a session builds.
            passes = np.vstack([passes, rng.random(12) < 0.9])
            active = f"r{int(rng.integers(num_records))}"
            swap_threshold = float(rng.choice([0.3, 0.6, 1.0]))
            score_views = int(rng.integers(1, 13))
            session = SessionBatch(
                views=list(range(12)), timestamps=10.0 + np.arange(12.0), session_id="s"
            )

            def builder(batch):
                return None, num_records

            runs = []
            for ingest in (
                ingest_session,
                functools.partial(reference_ingest, score=brute_force_score),
            ):
                table = OutcomeTable(passes)
                monkeypatch.setattr(pool_module, "_localize_or_none", table)
                pool = make_pool(
                    [dataclasses.replace(r) for r in records],
                    active,
                    swap_threshold=swap_threshold,
                )
                pool, outcome = ingest(
                    pool,
                    session,
                    MatchParams(),
                    RansacParams(),
                    build_model_fn=builder,
                    score_views=score_views,
                )
                runs.append((pool, outcome, table.calls))
            (pool, outcome, calls), (ref_pool, ref_outcome, ref_calls) = runs
            ref_events = without_views_scored(ref_outcome.events)
            assert without_views_scored(outcome.events) == ref_events, case
            assert [(sv.view_index, sv.record_id, sv.verified) for sv in outcome.served] == [
                (sv.view_index, sv.record_id, sv.verified) for sv in ref_outcome.served
            ], case
            assert pool.active_id == ref_pool.active_id, case
            assert [(r.record_id, r.last_used) for r in pool.records] == [
                (r.record_id, r.last_used) for r in ref_pool.records
            ], case
            assert len(set(calls)) == len(calls), case
            assert len(calls) <= len(ref_calls), case
            for event in outcome.events:
                if event.kind == "trigger":
                    triggers += 1
                    assert set(event.details["views_scored"]) == {r.record_id for r in records}
                swaps += event.details.get("reason") == "swap"
            builds += outcome.num_new_models
        # The seeded tables reach every branch of the loop.
        assert triggers >= 100 and swaps >= 30 and builds >= 30


@pytest.fixture(scope="module")
def partial_world(regime_world):
    """Regime 101 with a seeded 85% of its points given regime 303's
    descriptors: some views keep too few matches, so scores are fractional."""
    scenes, _ = regime_world
    base = scenes[101]
    changed = np.random.default_rng(71).random(base.num_points) < 0.85
    descriptors = np.where(changed[:, None], scenes[303].descriptors, base.descriptors)
    scene = dataclasses.replace(base, descriptors=descriptors)
    model = build_model(scene, 0.0, seed=404, model_id="partial")
    return scene, ModelRecord("partial", model, build_index(model, 16, seed=1), 0.0, 0.0)


class TestPartialChangeEquivalence:
    """Branch-and-bound `ingest_session` against the full-scoring loop on
    real localizations, including fractional scores and ties."""

    def test_same_decisions_as_full_scoring(self, regime_world, partial_world, monkeypatch):
        scenes, protos = regime_world
        partial_scene, partial = partial_world
        scenes = {**scenes, "partial": partial_scene}
        protos = {
            "regime-101": protos[101],
            "regime-202": protos[202],
            "partial": partial,
            # An equal copy of regime-101's index, older: ties at every score.
            "twin-101": dataclasses.replace(
                protos[101], record_id="twin-101", index=build_index(protos[101].model, 16, seed=1)
            ),
        }

        def builder(batch):
            model = build_model(scenes[303], 0.0, seed=303, model_id="regime-303")
            return model, build_index(model, 16, seed=1)

        cases = [
            ("partial", ["regime-101", "regime-202"], "regime-202"),
            ("partial", ["regime-101", "regime-202", "partial"], "regime-202"),
            (101, ["partial", "regime-202", "regime-101"], "regime-202"),
            ("partial", ["twin-101", "regime-202", "regime-101"], "regime-202"),
            (303, ["regime-101", "regime-202"], "regime-101"),
            (202, ["regime-101", "partial", "regime-202"], "regime-101"),
        ]
        logged_scores = []
        for c, (regime, ids, active) in enumerate(cases):
            session = session_views(scenes[regime], 12, seed=1300 + 50 * c)
            runs = []
            for ingest in (ingest_session, reference_ingest):
                located = []
                real_localize = pool_module.localize

                def counting(view, index, *args):
                    located.append((id(view), id(index)))
                    return real_localize(view, index, *args)

                monkeypatch.setattr(pool_module, "localize", counting)
                records = [
                    dataclasses.replace(protos[rid], created=float(k), last_used=float(k))
                    for k, rid in enumerate(ids)
                ]
                pool, outcome = ingest(
                    make_pool(records, active),
                    session,
                    MatchParams(),
                    RansacParams(seed=c),
                    build_model_fn=builder,
                )
                monkeypatch.undo()
                runs.append((pool, outcome, located))
            (pool, outcome, located), (ref_pool, ref_outcome, ref_located) = runs
            assert without_views_scored(outcome.events) == without_views_scored(ref_outcome.events)
            assert served_summary(outcome) == served_summary(ref_outcome)
            assert pool.active_id == ref_pool.active_id
            assert len(set(located)) == len(located) <= len(ref_located)
            logged_scores += [e.details["score"] for e in outcome.events if e.kind == "activate"]
            trigger = next(e for e in outcome.events if e.kind == "trigger")
            if regime == 202:
                # A total change: the winner scores every view while each
                # other record drops out at its first unreused failure. The
                # winner localizes the views up to the trigger itself, and
                # the served views after the swap reuse its scored results.
                trigger_view = trigger.details["view_index"]
                assert len(located) <= len(session.views) + len(ids) - 1 + trigger_view
        assert any(0.0 < score < 1.0 for score in logged_scores), logged_scores
