"""`tune_k`: the interpolating search for the k whose selection count hits a target."""

from dataclasses import dataclass

import numpy as np
import pytest

from egoloc.bench import tune_k


@dataclass
class Selection:
    num_points: int


class FakeCompress:
    """A compress_fn over a count curve that records every k it is called with."""

    def __init__(self, count):
        self.count = count
        self.calls: list[int] = []

    def __call__(self, k: int) -> Selection:
        self.calls.append(k)
        return Selection(int(self.count(k)))


def bisection_tune_k(compress_fn, target_count, max_count, tolerance=0.05):
    """The earlier search, kept as a reference: an exponential bracket plus
    bisection, returning the first k within tolerance, else the closest k
    probed (ties to the smaller k)."""
    cache = {}

    def run(k):
        if k not in cache:
            cache[k] = compress_fn(k)
        return cache[k].num_points

    def within(k):
        return abs(cache[k].num_points - target_count) <= tolerance * target_count

    count = run(1)
    if within(1):
        return 1, cache[1]
    lo, hi = 1, 1
    while count < target_count and hi < max_count:
        lo, hi = hi, min(hi * 2, max_count)
        count = run(hi)
        if within(hi):
            return hi, cache[hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c = run(mid)
        if within(mid):
            return mid, cache[mid]
        if c < target_count:
            lo = mid
        else:
            hi = mid
    best = min(cache, key=lambda k: (abs(cache[k].num_points - target_count), k))
    return best, cache[best]


def within(count, target, tolerance):
    return abs(count - target) <= tolerance * target


class TestTuneK:
    def test_linear_count_lands_in_two_calls(self):
        # The acceptance scene's curve: count(1) = 2, about two points per k.
        fn = FakeCompress(lambda k: 2 * k + (15 if k >= 800 else 0))
        k, selection = tune_k(fn, 1600, 20000, tolerance=0.02)
        assert fn.calls == [1, 800]
        assert (k, selection.num_points) == (800, 1615)

    @pytest.mark.parametrize("slope", [1, 2, 3, 7, 40])
    def test_line_through_origin_lands_in_at_most_two_calls(self, slope):
        fn = FakeCompress(lambda k: slope * k)
        k, selection = tune_k(fn, 1600, 20000, tolerance=0.02)
        assert len(fn.calls) <= 2
        assert within(selection.num_points, 1600, 0.02)

    def test_count_of_one_within_tolerance_returns_one(self):
        fn = FakeCompress(lambda k: 100 * k)
        k, selection = tune_k(fn, 98, 1000, tolerance=0.05)
        assert (k, selection.num_points) == (1, 100)
        assert fn.calls == [1]

    def test_count_of_one_above_band_returns_one(self):
        fn = FakeCompress(lambda k: 100 * k)
        k, _ = tune_k(fn, 10, 1000, tolerance=0.05)
        assert k == 1
        assert fn.calls == [1]

    @pytest.mark.parametrize(
        "low, high, want",
        [(10, 1000, 49), (100, 801, 49), (10, 550, 50)],
        ids=["low-closer", "tie-to-smaller", "high-closer"],
    )
    def test_step_over_band_returns_closest(self, low, high, want):
        # The count rises by one per k and jumps at k = 50 from low + 49 to
        # high + 50, across the band 475..525; the answer is the closer side,
        # ties to the smaller k.
        def step(k):
            return (low if k < 50 else high) + k

        fn = FakeCompress(step)
        k, selection = tune_k(fn, 500, 1000, tolerance=0.05)
        ref_k, ref_selection = bisection_tune_k(FakeCompress(step), 500, 1000, 0.05)
        assert k == want == ref_k
        assert selection.num_points == ref_selection.num_points
        assert len(fn.calls) == len(set(fn.calls))

    def test_target_above_largest_count_returns_max_count(self):
        fn = FakeCompress(lambda k: k)
        k, selection = tune_k(fn, 1000, 100, tolerance=0.05)
        assert (k, selection.num_points) == (100, 100)
        assert fn.calls[-1] == 100
        assert len(fn.calls) == len(set(fn.calls))

    def test_zero_counts_keep_searching_upward(self):
        fn = FakeCompress(lambda k: 0 if k < 10 else 3 * k)
        k, selection = tune_k(fn, 300, 1000, tolerance=0.02)
        assert within(selection.num_points, 300, 0.02)
        assert len(fn.calls) == len(set(fn.calls))

    def test_random_monotone_counts_agree_with_bisection(self):
        # On a non-decreasing count, a k within tolerance is found whenever
        # one exists. Otherwise both searches end on the same bracket around
        # the jump, so they return the same count (the k may differ where
        # the count is flat). No k runs twice.
        rng = np.random.default_rng(16)
        for _ in range(300):
            max_count = int(rng.integers(1, 3000))
            rises = rng.integers(0, 6, size=max_count + 1) * (rng.random(max_count + 1) < 0.7)
            steps = np.cumsum(rises)
            if rng.random() < 0.3:
                steps[int(rng.integers(0, max_count + 1)) :] += int(rng.integers(1, 500))
            counts = steps + int(rng.integers(0, 4))
            target = int(rng.integers(1, max(2, 2 * int(counts[-1]) + 1)))
            tolerance = float(rng.choice([0.0, 0.01, 0.02, 0.05]))
            fn = FakeCompress(lambda k: counts[k])
            k, selection = tune_k(fn, target, max_count, tolerance)
            ref_k, _ = bisection_tune_k(
                FakeCompress(lambda k: counts[k]), target, max_count, tolerance
            )
            assert len(fn.calls) == len(set(fn.calls))
            assert all(1 <= c <= max(1, max_count) for c in fn.calls)
            assert selection.num_points == counts[k]
            reachable = any(within(counts[c], target, tolerance) for c in range(1, max_count + 1))
            if reachable:
                assert within(counts[k], target, tolerance)
            else:
                assert counts[k] == counts[ref_k]
