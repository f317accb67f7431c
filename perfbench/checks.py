"""Correctness rules of the gate, kept as pure functions so the self-test
can feed them known-wrong values."""

from __future__ import annotations

import math
from typing import Sequence

FER_Z = 5.0  # band half-width in standard deviations


def distances_match(computed: Sequence[int] | None, expected: Sequence[int]) -> bool:
    """A catalog row or grid case: every computed distance equals its reference."""
    return computed is not None and tuple(computed) == tuple(expected)


def fer_in_band(errors: int, frames: int, ref_errors: int, ref_frames: int) -> bool:
    """Frame errors lie inside a binomial band around a reference FER.

    The band is FER_Z standard deviations of the difference between this
    run's error count and the one the reference rate predicts, counting the
    reference's own sampling error, plus one frame of slack.  A legitimate
    change of random stream stays inside; a miscounted depth does not.
    """
    p = (ref_errors + 0.5) / (ref_frames + 1.0)
    expected = frames * p
    var = frames * p * (1.0 - p) * (1.0 + frames / ref_frames)
    return abs(errors - expected) <= FER_Z * math.sqrt(var) + 1.0


def errors_monotone(errors_by_depth: Sequence[int]) -> bool:
    """Frame errors never increase with decoding depth."""
    return all(a >= b for a, b in zip(errors_by_depth, errors_by_depth[1:]))


def self_test() -> list[str]:
    """Feed the gate one wrong distance and one wrong FER count.

    Returns the problems found; an empty list means every wrong value was
    caught and every right value passed.
    """
    problems = []
    listed = (6, 14, 18)  # catalog row 5: (d1, d2, ud2)
    if not distances_match(listed, listed):
        problems.append("correct distances rejected")
    if distances_match((6, 13, 18), listed):
        problems.append("wrong distance d2=13 for listed 14 not caught")
    # type2-mixed at depth 2 on -5 dB: about 4.3% FER
    ref_errors, ref_frames = 1720, 40000
    frames = 6000
    right = round(frames * ref_errors / ref_frames)
    if not fer_in_band(right, frames, ref_errors, ref_frames):
        problems.append("reference-rate FER count rejected")
    if fer_in_band(2 * right, frames, ref_errors, ref_frames):
        problems.append(f"doubled FER count {2 * right} of {frames} not caught")
    if errors_monotone((10, 12, 3)):
        problems.append("error count rising with depth not caught")
    return problems
