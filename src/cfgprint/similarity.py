"""Program-level similarity over sets of path fingerprints.

A path "matches" the other program when its nearest fingerprint there
is within alpha bits. Containment asks how much of the smaller program
is matched by the larger one (so a file pasted into a bigger file still
scores 1.0); resemblance is symmetric and rewards mutual coverage.

`score_pair` and `pair_report` are thin callers of one kernel,
`_score`, which builds the uint8 Hamming distance matrix once
(`distance_matrix`, from each side's cached `bits_array`) and takes its
smallest entry in one flat reduction. When that exceeds alpha, as it
does for nearly every pair of unrelated programs, the score is zero and
the call returns at once; only pairs within alpha get row and column
minima, match counts and (in `pair_report`) evidence.

`min_distances` gives one program's smallest distance to each of many
others in one chunked pass. `FingerprintIndex.query` runs it once per
probe and `cluster` once per row, and each hands a record's minimum to
the per-pair call as `min_distance`: past alpha the kernel returns the
zero score without building a matrix, so the per-pair calls only
assemble reports. An index record is itself a `ProgramFingerprint`, so
repeated queries and clustering reuse the array each record builds
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fingerprint import ProgramFingerprint, to_hex

GRADE_IDENTICAL = "identical"
GRADE_NEAR_IDENTICAL = "near-identical"
GRADE_SIMILAR = "similar"
GRADE_DISSIMILAR = "dissimilar"


@dataclass(frozen=True)
class SimilarityScore:
    value: float
    mode: str
    alpha: int
    matched_count: int
    denominator: int


@dataclass(frozen=True)
class PairReport:
    """Everything one probe-record comparison produces: the score, the
    matched-pair evidence (probe hex, other hex, distance; one entry
    per matched probe path, nearest partner wins), and the smallest
    distance overall (grades derive from it)."""

    score: SimilarityScore
    evidence: tuple[tuple[str, str, int], ...]
    min_distance: int


_MODES = ("containment", "resemblance")

# the largest distance block `min_distances` builds: 1 << 15 uint64
# XORs, 256 KB
_CHUNK_CELLS = 1 << 15


def _unscoreable(program: ProgramFingerprint) -> ValueError:
    return ValueError(f"unscoreable program: {program.program_id!r} has no fingerprints")


def distance_matrix(a: ProgramFingerprint, b: ProgramFingerprint) -> np.ndarray:
    """uint8 Hamming distances, row i pairing fingerprint i of A with
    every fingerprint of B (both in ascending order)."""
    return np.bitwise_count(a.bits_array[:, None] ^ b.bits_array)


def min_distances(a: ProgramFingerprint, others: Sequence[ProgramFingerprint]) -> list[int]:
    """Each other program's smallest Hamming distance to A, in order:
    `int(distance_matrix(a, b).min())` for every b, from one pass.

    The others' fingerprints are laid end to end in one flat array and
    compared with A's in blocks of at most `_CHUNK_CELLS` cells, so no
    distance block exceeds 256 KB whatever the probe's size (a probe
    with more fingerprints than that is split by rows too). Each block is reduced
    to column minima, and one `np.minimum.reduceat` over the records'
    offsets gives each record's minimum. Every program must be
    scoreable.
    """
    if not a.fingerprints:
        raise _unscoreable(a)
    sizes = [len(b.fingerprints) for b in others]
    if 0 in sizes:
        raise _unscoreable(others[sizes.index(0)])
    if not others:
        return []
    flat = np.concatenate([b.bits_array for b in others])
    starts = np.cumsum([0, *sizes[:-1]])
    rows = a.bits_array
    row_step = min(len(rows), _CHUNK_CELLS)
    col_step = _CHUNK_CELLS // row_step
    col_min = np.empty(len(flat), dtype=np.uint8)
    for lo in range(0, len(flat), col_step):
        cols = flat[lo : lo + col_step]
        out = col_min[lo : lo + col_step]
        np.bitwise_count(rows[:row_step, None] ^ cols).min(axis=0, out=out)
        for r in range(row_step, len(rows), row_step):
            block = np.bitwise_count(rows[r : r + row_step, None] ^ cols)
            np.minimum(out, block.min(axis=0), out=out)
    return np.minimum.reduceat(col_min, starts).tolist()


def _score(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str,
    min_distance: int | None = None,
) -> tuple[SimilarityScore, np.ndarray | None, np.ndarray | None, int]:
    """The one scoring kernel: (score, distance matrix, row minima,
    smallest distance).

    Row minima are each A path's nearest distance in B, and None when
    no path is within alpha: the smallest distance, one flat reduction,
    settles that before any per-row or per-column minimum is taken. A
    caller that already has the exact smallest distance (from
    `min_distances`) passes it as `min_distance`; when it exceeds alpha
    the zero score comes back with no matrix built, and otherwise the
    kernel runs as without it.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown similarity mode {mode!r}")
    if not a.fingerprints:
        raise _unscoreable(a)
    if not b.fingerprints:
        raise _unscoreable(b)
    matrix = row_min = None
    a_to_b = b_to_a = 0
    if min_distance is None or min_distance <= alpha:
        matrix = distance_matrix(a, b)
        min_distance = int(np.minimum.reduce(matrix, axis=None))
        if min_distance <= alpha:
            row_min = matrix.min(axis=1)
            a_to_b = int(np.count_nonzero(row_min <= alpha))
            b_to_a = int(np.count_nonzero(matrix.min(axis=0) <= alpha))
    na, nb = len(a.fingerprints), len(b.fingerprints)
    if mode == "resemblance":
        matched, denominator = a_to_b + b_to_a, na + nb
    else:
        # containment: the smaller side's matched share; on equal sizes
        # the better direction counts
        if na < nb:
            matched = a_to_b
        elif nb < na:
            matched = b_to_a
        else:
            matched = max(a_to_b, b_to_a)
        denominator = min(na, nb)
    score = SimilarityScore(matched / denominator, mode, alpha, matched, denominator)
    return score, matrix, row_min, min_distance


def score_pair(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str = "containment",
    *,
    min_distance: int | None = None,
) -> SimilarityScore:
    """Containment: matched share of the smaller program's paths (on
    equal sizes the better direction counts). Resemblance: matched
    paths of both sides over both sizes. `min_distance`, if given, must
    be the pair's exact smallest distance (see `_score`)."""
    return _score(a, b, alpha, mode, min_distance)[0]


def pair_report(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str = "containment",
    *,
    min_distance: int | None = None,
) -> PairReport:
    """Score plus per-path evidence, computed off one distance matrix.
    `min_distance`, if given, must be the pair's exact smallest
    distance (see `_score`)."""
    score, matrix, row_min, min_distance = _score(a, b, alpha, mode, min_distance)
    if row_min is None:
        return PairReport(score, (), min_distance)
    matched_rows = np.flatnonzero(row_min <= alpha)
    # ties go to the lowest partner bits; columns are in ascending bits
    # order, so argmin already lands there
    partners = matrix[matched_rows].argmin(axis=1)
    a_bits, b_bits = a.fingerprints, b.fingerprints
    evidence = tuple(
        (to_hex(a_bits[i]), to_hex(b_bits[j]), d)
        for i, j, d in zip(
            matched_rows.tolist(), partners.tolist(), row_min[matched_rows].tolist()
        )
    )
    return PairReport(score=score, evidence=evidence, min_distance=min_distance)


def classify(distance: int) -> str:
    """Distance band for a single fingerprint pair."""
    if distance < 0:
        raise ValueError(f"distance must be >= 0, got {distance}")
    if distance == 0:
        return GRADE_IDENTICAL
    if distance <= 3:
        return GRADE_NEAR_IDENTICAL
    if distance <= 7:
        return GRADE_SIMILAR
    return GRADE_DISSIMILAR
