"""Long-term model maintenance: verification, scoring, swapping, pruning.

One pool serves one local area. Exactly one model is active at a time; each
query view is verified against it by the correspondence/inlier criterion.
When enough recent views fail verification the pool re-scores its records
on the session's opening views and either swaps to the best-scoring model or
constructs a new one from the session. Re-scoring is an exact
branch-and-bound: every record that can reach the best score is scored in
full, the others are cut off once they cannot, and every localization the
session already made is reused. Records unused for longer than the TTL are
pruned (the active model is immune). Models are never merged.

Pool mutation is single-writer; per-view localization against the immutable
active index may run concurrently.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .compression import CompressedModel
from .errors import PoolEmptyError, RegistrationFailedError, check_fields, is_finite_number
from .matching import MatchIndex, MatchParams
from .model import PointCloudModel
from .pose import LocalizationResult, RansacParams, localize
from .synthetic import QueryView

# A record constructed from a session: the model (possibly compressed) plus
# its ready-to-serve match index.
ModelBuilder = Callable[["SessionBatch"], tuple[CompressedModel | PointCloudModel, MatchIndex]]


@dataclass
class ModelRecord:
    """One model of the area, with usage bookkeeping for pruning. Its id and
    condition are strings and its times finite floats, as a manifest holds."""

    record_id: str
    model: CompressedModel | PointCloudModel
    index: MatchIndex
    created: float
    last_used: float
    condition: str = ""

    def __post_init__(self):
        for name in ("record_id", "condition"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string, not {getattr(self, name)!r}")
        if not (is_finite_number(self.created) and is_finite_number(self.last_used)):
            raise ValueError("created and last_used must be finite numbers")
        self.created, self.last_used = float(self.created), float(self.last_used)
        if self.last_used < self.created:
            raise ValueError("last_used must not precede created")


@dataclass(frozen=True)
class PoolParams:
    """The pool's policy: verification thresholds T1 and T2, the score a
    stored record needs to be swapped in, the failed-view window that
    triggers re-scoring, and the TTL of unused records."""

    t1: int = 50
    t2: float = 0.5
    swap_threshold: float = 0.6
    invalid_window: int = 5
    invalid_quota: int = 3
    ttl: float = float("inf")

    def __post_init__(self):
        check_fields(self)
        if self.t1 < 0:
            raise ValueError("t1 must be non-negative")
        if not 0.0 < self.t2 <= 1.0:
            raise ValueError("t2 must be in (0, 1]")
        # A score is a share of verified views; outside [0, 1] no record
        # ever reaches it and the pool never swaps.
        if not 0.0 <= self.swap_threshold <= 1.0:
            raise ValueError("swap_threshold must be in [0, 1]")
        if self.invalid_quota < 1 or self.invalid_window < self.invalid_quota:
            raise ValueError("need 1 <= invalid_quota <= invalid_window")
        if self.invalid_window > sys.maxsize:  # the longest deque `ingest_session` can keep
            raise ValueError(f"invalid_window must be at most {sys.maxsize}")
        if not self.ttl > 0:
            raise ValueError("ttl must be positive")


def _check_record_ids(ids: list[str], active_id: str) -> None:
    """The id rule of a pool and its manifest: distinct ids, one of them active."""
    if len(set(ids)) < len(ids):
        raise ValueError(f"record id '{max(ids, key=ids.count)}' appears twice in the pool")
    if active_id not in ids:
        raise KeyError(f"no record '{active_id}' in pool")


@dataclass
class ModelPool:
    """Timestamped models for one area under distinct ids; exactly one active."""

    records: list[ModelRecord]
    active_id: str
    params: PoolParams = field(default_factory=PoolParams)

    def __post_init__(self):
        _check_record_ids([r.record_id for r in self.records], self.active_id)

    def record(self, record_id: str) -> ModelRecord:
        for r in self.records:
            if r.record_id == record_id:
                return r
        raise KeyError(f"no record '{record_id}' in pool")

    @property
    def active(self) -> ModelRecord:
        return self.record(self.active_id)


@dataclass
class SessionBatch:
    """Ordered query views of one session."""

    views: list[QueryView]
    timestamps: np.ndarray
    session_id: str = ""

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.float64).reshape(-1)
        if len(self.views) == 0:
            raise ValueError("session must contain at least one view")
        if len(self.timestamps) != len(self.views):
            raise ValueError("one timestamp required per view")
        bad = np.flatnonzero(~np.isfinite(self.timestamps))
        if len(bad):
            raise ValueError(f"view {bad[0]}: timestamp {self.timestamps[bad[0]]} is not finite")
        if np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")


@dataclass
class PoolEvent:
    """One transition in the decision log."""

    kind: str  # "trigger" | "activate" | "new_model" | "prune"
    time: float
    details: dict = field(default_factory=dict)


@dataclass
class ServedView:
    """Per-view service outcome within a session."""

    view_index: int
    record_id: str
    result: LocalizationResult | None
    verified: bool


@dataclass
class SessionOutcome:
    """Decision log of one ingested session."""

    events: list[PoolEvent]
    served: list[ServedView]

    @property
    def num_triggers(self) -> int:
        return sum(1 for e in self.events if e.kind == "trigger")

    @property
    def num_new_models(self) -> int:
        return sum(1 for e in self.events if e.kind == "new_model")


def verify(
    result: LocalizationResult | None, t1: int = PoolParams.t1, t2: float = PoolParams.t2
) -> bool:
    """Registration verification: ``N_c > T1`` and ``N_I / N_c > T2``.

    Both inequalities are strict; a failed registration (None) never
    verifies.
    """
    if result is None or result.n_correspondences <= t1:
        return False
    return result.n_inliers / result.n_correspondences > t2


def _localize_or_none(
    view: QueryView,
    index: MatchIndex,
    match_params: MatchParams,
    ransac_params: RansacParams,
) -> LocalizationResult | None:
    try:
        return localize(view, index, match_params, ransac_params)
    except RegistrationFailedError:
        return None


def score_model(
    record: ModelRecord,
    views: Sequence[QueryView],
    match_params: MatchParams | None = None,
    ransac_params: RansacParams | None = None,
    *,
    t1: int = PoolParams.t1,
    t2: float = PoolParams.t2,
    num_views: int = 10,
) -> float:
    """Fraction of the session's first `num_views` views that verify."""
    match_params = match_params or MatchParams()
    ransac_params = ransac_params or RansacParams()
    prefix = list(views)[:num_views]
    if num_views < 1 or not prefix:
        raise ValueError("need at least one view to score")
    results = (_localize_or_none(v, record.index, match_params, ransac_params) for v in prefix)
    return sum(verify(result, t1, t2) for result in results) / len(prefix)


def _localize_cached(
    results: dict[tuple[str, int], LocalizationResult | None],
    record: ModelRecord,
    views: Sequence[QueryView],
    i: int,
    match_params: MatchParams,
    ransac_params: RansacParams,
) -> LocalizationResult | None:
    """View `i` localized against `record`, at most once per `results`.

    Exact reuse: `localize` is deterministic in its view, index and
    parameters, and one `results` dict serves one set of parameters.
    """
    key = (record.record_id, i)
    if key not in results:
        results[key] = _localize_or_none(views[i], record.index, match_params, ransac_params)
    return results[key]


def _score_records(
    records: Sequence[ModelRecord],
    views: Sequence[QueryView],
    results: dict[tuple[str, int], LocalizationResult | None],
    match_params: MatchParams,
    ransac_params: RansacParams,
    *,
    t1: int,
    t2: float,
    num_views: int,
    next_view: int,
) -> tuple[dict[str, float], dict[str, int]]:
    """Exact scores, on the first `num_views` views, of the records that can
    reach the best score.

    Best-first branch-and-bound: a record's bound is its passed views plus
    its unscored views, and the live record with the highest bound (the
    first in order on ties) scores its next view. A record is dropped once
    its bound falls strictly below the best exact score so far, so every
    record that can tie the best is scored in full.

    A view found in `results` counts by its result. A view from `next_view`
    on may still be served by the record that wins, so it is localized into
    `results`. `score_model` scores each other view on its own: the session
    never serves it again, so its result is not kept.

    Returns the exact score of each record scored in full, and the number
    of views each record was scored on.
    """
    prefix = list(views)[:num_views]
    if not prefix:
        raise ValueError("need at least one view to score")
    n = len(prefix)
    passed = [0] * len(records)
    scored = [0] * len(records)
    best = -1

    def bound(k: int) -> int:
        return passed[k] + n - scored[k]

    while live := [k for k in range(len(records)) if scored[k] < n and bound(k) >= best]:
        k = max(live, key=bound)
        i = scored[k]
        if i < next_view and (records[k].record_id, i) not in results:
            one = prefix[i : i + 1]
            passed[k] += int(
                score_model(records[k], one, match_params, ransac_params, t1=t1, t2=t2, num_views=1)
            )
        else:
            result = _localize_cached(results, records[k], prefix, i, match_params, ransac_params)
            passed[k] += verify(result, t1, t2)
        scored[k] += 1
        if scored[k] == n:
            best = max(best, passed[k])
    scores = {r.record_id: passed[k] / n for k, r in enumerate(records) if scored[k] == n}
    return scores, {r.record_id: scored[k] for k, r in enumerate(records)}


def prune(pool: ModelPool, now: float) -> list[str]:
    """Drop non-active records unused for longer than the pool's TTL."""
    removed = [
        r.record_id
        for r in pool.records
        if r.record_id != pool.active_id and now - r.last_used > pool.params.ttl
    ]
    pool.records = [r for r in pool.records if r.record_id not in removed]
    return removed


def ingest_session(
    pool: ModelPool,
    session: SessionBatch,
    match_params: MatchParams | None = None,
    ransac_params: RansacParams | None = None,
    *,
    build_model_fn: ModelBuilder | None = None,
    score_views: int = 10,
) -> tuple[ModelPool, SessionOutcome]:
    """Serve a session through the pool, swapping models when the active
    one is judged invalid.

    Views are localized against the active model in order. Once
    `invalid_quota` of the last `invalid_window` views fail verification,
    the records are scored on the session's first `score_views` views: the
    best record is activated if its score reaches the swap threshold (ties
    go to the most recently used record), otherwise `build_model_fn`
    constructs a new model from the session, which joins the pool and
    becomes active. Stale records are pruned at the end.

    Scoring is exact for every record that can reach the best score; a
    record is cut off once it cannot, and the `trigger` event's
    `views_scored` says how many views each record was scored on. Serving
    and scoring share one result per (record, view): the active record's
    served views count toward its score, and the winner's scored views
    after the trigger are served after the swap. The other views up to the
    trigger are scored with `score_model`, since none is served again.

    Raises:
        PoolEmptyError: the pool holds no records.
        ValueError: `score_views` is below 1.
    """
    if not pool.records:
        raise PoolEmptyError("cannot ingest into an empty pool")
    if score_views < 1:
        raise ValueError(f"score_views must be at least 1, not {score_views}")
    match_params = match_params or MatchParams()
    ransac_params = ransac_params or RansacParams()

    events: list[PoolEvent] = []
    served: list[ServedView] = []
    window: deque[bool] = deque(maxlen=pool.params.invalid_window)
    swap_attempted = False
    results: dict[tuple[str, int], LocalizationResult | None] = {}

    for i in range(len(session.views)):
        now = float(session.timestamps[i])
        active = pool.active
        result = _localize_cached(results, active, session.views, i, match_params, ransac_params)
        ok = verify(result, pool.params.t1, pool.params.t2)
        served.append(
            ServedView(view_index=i, record_id=active.record_id, result=result, verified=ok)
        )
        if ok:
            active.last_used = max(active.last_used, now)
        window.append(not ok)

        failures = sum(window)
        if failures >= pool.params.invalid_quota and not swap_attempted:
            swap_attempted = True
            scores, views_scored = _score_records(
                pool.records,
                session.views,
                results,
                match_params,
                ransac_params,
                t1=pool.params.t1,
                t2=pool.params.t2,
                num_views=score_views,
                next_view=i + 1,
            )
            events.append(
                PoolEvent(
                    kind="trigger",
                    time=now,
                    details={
                        "view_index": i,
                        "failures": failures,
                        "window": len(window),
                        "views_scored": views_scored,
                    },
                )
            )
            best_score = max(scores.values())
            chosen = None
            if best_score >= pool.params.swap_threshold:
                # Ties between equal scores go to the most recently used record.
                candidates = [r for r in pool.records if scores.get(r.record_id) == best_score]
                chosen = max(candidates, key=lambda r: r.last_used)
                reason = "swap"
            elif build_model_fn is not None:
                model, index = build_model_fn(session)
                # After a prune the record count can name a kept record: count on.
                k, taken = len(pool.records), {r.record_id for r in pool.records}
                while f"{session.session_id or 'session'}-new-{k}" in taken:
                    k += 1
                new_id = f"{session.session_id or 'session'}-new-{k}"
                chosen = ModelRecord(new_id, model, index, created=now, last_used=now)
                pool.records.append(chosen)
                reason = "new_model"
                events.append(PoolEvent(kind="new_model", time=now, details={"record_id": new_id}))
            if chosen is not None:
                events.append(
                    PoolEvent(
                        kind="activate",
                        time=now,
                        details={
                            "from": pool.active_id,
                            "to": chosen.record_id,
                            "score": best_score,
                            "reason": reason,
                        },
                    )
                )
                pool.active_id = chosen.record_id
                chosen.last_used = max(chosen.last_used, now)

    end_time = float(session.timestamps[-1])
    pool.active.last_used = max(pool.active.last_used, end_time)
    removed = prune(pool, end_time)
    if removed:
        events.append(PoolEvent(kind="prune", time=end_time, details={"removed": removed}))
    return pool, SessionOutcome(events=events, served=served)
