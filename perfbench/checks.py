"""Correctness checks every benchmark run must pass.

Each check raises :class:`CheckFailed` with a message naming what broke.
The functions take plain values (ids, counters, tuples), so the tests in
``perfbench/tests`` can feed them broken traces directly.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence, Tuple


class CheckFailed(AssertionError):
    """A benchmark output is wrong; the run must not report a result as correct."""


def exactly_once(submitted: Sequence[int], answered: Sequence[int]) -> None:
    """Every submitted request id is answered once; nothing else is answered."""
    counts = Counter(answered)
    duplicated = sorted(rid for rid, n in counts.items() if n > 1)
    expected = set(submitted)
    if len(expected) != len(submitted):
        raise CheckFailed("the benchmark submitted a request id twice")
    missing = sorted(expected - counts.keys())
    unknown = sorted(counts.keys() - expected)
    if duplicated or missing or unknown:
        raise CheckFailed(
            f"exactly-once violated: {len(duplicated)} duplicated "
            f"{duplicated[:5]}, {len(missing)} missing {missing[:5]}, "
            f"{len(unknown)} never submitted {unknown[:5]}"
        )


def admission_balances(admission: Mapping[str, int], submitted: int) -> None:
    """offered == accepted + rejected + shed == requests the benchmark sent."""
    offered = admission["offered"]
    parts = admission["accepted"] + admission["rejected"] + admission["shed"]
    if offered != parts or offered != submitted:
        raise CheckFailed(
            f"admission accounting broken: offered={offered}, "
            f"accepted+rejected+shed={parts}, submitted={submitted}"
        )


def no_expired_compute(resilience: Mapping[str, int]) -> None:
    if resilience["expired_compute"] != 0:
        raise CheckFailed(
            f"{resilience['expired_compute']} expired request(s) used remote compute"
        )


def all_fired(counters: Mapping[str, int], names: Iterable[str]) -> None:
    """Each named mechanism fired at least once (the workload exercised it)."""
    silent = [name for name in names if counters.get(name, 0) <= 0]
    if silent:
        raise CheckFailed(f"mechanisms that never fired: {silent}")


def matches_oracle(
    answers: Iterable[Tuple[int, int, int, bool]],
    oracle_predictions: Sequence[int],
    oracle_exits: Sequence[int],
) -> int:
    """Clean answers equal the offline cascade for their sample.

    ``answers`` holds ``(sample_index, prediction, exit_index, clean)``;
    ``clean`` is False for degraded, relaxed or shed answers, which the
    cascade does not define.  Returns the number of answers compared.
    """
    compared = 0
    wrong = []
    for sample, prediction, exit_index, clean in answers:
        if not clean:
            continue
        compared += 1
        if (prediction, exit_index) != (oracle_predictions[sample], oracle_exits[sample]):
            wrong.append(sample)
    if wrong:
        raise CheckFailed(
            f"{len(wrong)} clean answer(s) differ from ExitOracle.route, "
            f"e.g. samples {wrong[:5]}"
        )
    return compared


def finite_losses(losses: Sequence[float]) -> None:
    bad = [index for index, value in enumerate(losses) if not math.isfinite(value)]
    if bad or not losses:
        raise CheckFailed(f"training loss is not finite at epochs {bad} (of {len(losses)})")


def identical(first, second, label: str) -> None:
    if first != second:
        raise CheckFailed(f"{label} differs between two runs of identical input")
