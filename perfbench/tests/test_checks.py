"""The benchmark's own checks must catch broken outputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import math

import numpy as np
import pytest

from perfbench import checks
from perfbench.checks import CheckFailed
from perfbench.stats import median_and_tail, tail_percentile
from perfbench.tracer import Tracer


def test_exactly_once_accepts_a_clean_stream():
    checks.exactly_once([1, 2, 3], [3, 1, 2])


@pytest.mark.parametrize(
    "answered, what",
    [([1, 2, 2, 3], "duplicated"), ([1, 3], "missing"), ([1, 2, 3, 9], "never submitted")],
)
def test_exactly_once_catches_duplicated_missing_and_unknown(answered, what):
    with pytest.raises(CheckFailed, match=what):
        checks.exactly_once([1, 2, 3], answered)


def test_admission_identity():
    checks.admission_balances({"offered": 5, "accepted": 3, "rejected": 1, "shed": 1}, 5)
    with pytest.raises(CheckFailed):
        checks.admission_balances({"offered": 5, "accepted": 3, "rejected": 0, "shed": 1}, 5)
    with pytest.raises(CheckFailed):
        checks.admission_balances({"offered": 4, "accepted": 3, "rejected": 0, "shed": 1}, 5)


def test_clean_answers_must_match_the_oracle_and_unclean_ones_are_skipped():
    predictions, exits = [4, 2], [0, 1]
    compared = checks.matches_oracle([(0, 4, 0, True), (1, 9, 0, False)], predictions, exits)
    assert compared == 1
    with pytest.raises(CheckFailed, match="differ from ExitOracle.route"):
        checks.matches_oracle([(1, 2, 0, True)], predictions, exits)


def test_non_finite_loss_fails():
    checks.finite_losses([2.0, 1.5])
    with pytest.raises(CheckFailed):
        checks.finite_losses([2.0, math.nan])
    with pytest.raises(CheckFailed):
        checks.finite_losses([])


def test_silent_mechanism_fails():
    checks.all_fired({"retries": 3, "hedges": 1}, ["retries", "hedges"])
    with pytest.raises(CheckFailed, match="hedges"):
        checks.all_fired({"retries": 3, "hedges": 0}, ["retries", "hedges"])


def test_expired_compute_fails():
    with pytest.raises(CheckFailed):
        checks.no_expired_compute({"expired_compute": 1})


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(56) == pytest.approx(100 * (1 - 10 / 56))
    p50, tail, percentile = median_and_tail(np.arange(1, 101, dtype=float))
    assert p50 == pytest.approx(50.5)
    assert percentile == 90.0
    assert tail == pytest.approx(np.percentile(np.arange(1, 101), 90))
    # A fixed percentile is applied as given, whatever the sample size.
    _, tail, percentile = median_and_tail(np.arange(1, 51, dtype=float), percentile=90.0)
    assert percentile == 90.0
    assert tail == pytest.approx(np.percentile(np.arange(1, 51), 90))


class _Toy:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    @classmethod
    def make(cls):
        return cls()


def test_tracer_records_parents_self_time_and_restores():
    original_outer = _Toy.__dict__["outer"]
    original_make = _Toy.__dict__["make"]
    with Tracer() as tracer:
        tracer.wrap(_Toy, "outer", "outer")
        tracer.wrap(_Toy, "inner", "inner")
        tracer.wrap(_Toy, "make", "make")
        assert _Toy.make().outer() == 2
    assert _Toy.__dict__["outer"] is original_outer
    assert _Toy.__dict__["make"] is original_make
    by_name = {span.name: span for span in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent == 0
    assert tracer.has_ancestor(by_name["inner"], "outer")
    covered = tracer.child_time()
    assert covered[by_name["outer"].span_id] == pytest.approx(by_name["inner"].duration)


def test_fixture_digest_detects_a_changed_weight():
    from perfbench.fixture import load_fixture_model, state_digest

    model, meta = load_fixture_model()
    state = model.state_dict()
    assert state_digest(state) == meta["weights_sha256"]
    name = sorted(state)[0]
    state[name] = state[name].copy()
    state[name].flat[0] += 1e-12
    assert state_digest(state) != meta["weights_sha256"]
