"""Program-level similarity over sets of path fingerprints.

A path "matches" the other program when its nearest fingerprint there
is within alpha bits. Containment asks how much of the smaller program
is matched by the larger one (so a file pasted into a bigger file still
scores 1.0); resemblance is symmetric and rewards mutual coverage.

`score_pair` and `pair_report` read every score through one path,
`_score`. It checks the arguments, works out the denominator and takes
the pair's smallest distance; past alpha, as for nearly every pair of
unrelated programs, the score is zero and nothing more is read.
Within reach the matched counts come from the pair's kernel
(`_PairKernel`), built from one uint8 Hamming distance matrix
(`distance_matrix`, from each side's cached `bits_array`). The kernel
reduces each direction once, when it is built: each alpha's match
counts come from the sorted minima, and the evidence and `cfgprint
compare` read its row minima. A kernel is built through `shared`, so
inside a `shared_work` scope (see `fingerprint`) each ordered pair of
program objects gets one.

`record_minima` gives one program's smallest distance to each of many
others in one pass over their fingerprints laid end to end, in 2-D
blocks of at most 256 KB under a small ufunc buffer (see its
docstring). `fingerprint_columns` lays the others out for it.

A caller that already has a pair's exact smallest distance, from
`record_minima`, hands it to `score_pair` or `pair_report` as the
`min_distance` hint, and `_score` takes it in place of the kernel's, so
a pair past alpha gets no distance matrix. Which scans run the pass and
hand the hint on is described in `index_store`'s docstring.

`SimilarityScore` and `PairReport` are `NamedTuple`s: immutable, cheap
to build, and equal (and hashing alike) to the plain tuples of their
fields.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Sequence

import numpy as np

from .config import DEFAULT_MODE, check_mode
from .fingerprint import ProgramFingerprint, shared, to_hex

GRADE_IDENTICAL = "identical"
GRADE_NEAR_IDENTICAL = "near-identical"
GRADE_SIMILAR = "similar"
GRADE_DISSIMILAR = "dissimilar"


class SimilarityScore(NamedTuple):
    value: float
    mode: str
    alpha: int
    matched_count: int
    denominator: int


class PairReport(NamedTuple):
    """Everything one probe-record comparison produces: the score, the
    matched-pair evidence (probe hex, other hex, distance; one entry
    per matched probe path, nearest partner wins), and the smallest
    distance overall (grades derive from it)."""

    score: SimilarityScore
    evidence: tuple[tuple[str, str, int], ...]
    min_distance: int


# tuple.__new__ skips the Python-level NamedTuple constructor on the
# per-pair calls' returns
_new_tuple = tuple.__new__

# the most cells one `record_minima` block holds: 1 << 15 uint64 XORs,
# 256 KB
_CHUNK_CELLS = 1 << 15

# the ufunc buffer, in elements, that `record_minima` runs its blocks
# under
_UFUNC_BUFSIZE = 256


def _unscoreable(program: ProgramFingerprint) -> ValueError:
    return ValueError(f"unscoreable program: {program.program_id!r} has no fingerprints")


def distance_matrix(a: ProgramFingerprint, b: ProgramFingerprint) -> np.ndarray:
    """uint8 Hamming distances, row i pairing fingerprint i of A with
    every fingerprint of B (both in ascending order)."""
    return np.bitwise_count(a.bits_array[:, None] ^ b.bits_array)


def fingerprint_columns(programs: Sequence[ProgramFingerprint]) -> tuple[np.ndarray, np.ndarray]:
    """The programs' fingerprints end to end as one uint64 array, and
    the offset where each program's run starts."""
    if not programs:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.intp)
    starts = np.cumsum([0, *(len(p.fingerprints) for p in programs[:-1])])
    return np.concatenate([p.bits_array for p in programs]), starts


def record_minima(rows: np.ndarray, flat: np.ndarray, starts: np.ndarray) -> list[int]:
    """The smallest Hamming distance from any of `rows` to each record
    of `flat`, the records' fingerprints end to end with record k
    starting at `starts[k]` (every record non-empty).

    One loop over 2-D blocks of at most `_CHUNK_CELLS` cells. The
    shorter side runs down axis 0 and the longer along the contiguous
    axis 1, at most a quarter of the cap wide, so every block holds at
    least four rows of the shorter side (or all of it). Each block's XOR
    is broadcast into one reused buffer, the minimum of its popcount
    over the probe's axis folds into the column minima with an
    elementwise `np.minimum`, and one `np.minimum.reduceat` over
    `starts` gives each record's minimum. No temporary exceeds 256 KB.

    The loop and the `reduceat` run under a ufunc buffer of
    `_UFUNC_BUFSIZE` elements, and the caller's buffer size is restored
    on the way out, raised or not. Under numpy's default (8192) a block
    narrower than about 2 980 columns has its stride-0 operand buffered,
    and its XOR runs about 3x slower per cell. Wide blocks take the
    same time under either size, and `cluster`'s short suffix passes are
    mostly narrow blocks. Only integer ufuncs run under the small
    buffer; no float sum does, whose pairwise blocks follow the buffer
    size.
    """
    if not len(flat):
        return []
    col_min = np.full(len(flat), 64, dtype=np.uint8)
    probe_axis = int(len(rows) > len(flat))
    short, long = (flat, rows) if probe_axis else (rows, flat)
    width = min(len(long), max(1, _CHUNK_CELLS // 4))
    height = min(len(short), _CHUNK_CELLS // width)
    buf = np.empty((height, width), dtype=np.uint64)
    bufsize = np.setbufsize(_UFUNC_BUFSIZE)
    try:
        for lo in range(0, len(long), width):
            cols = long[lo : lo + width]
            for top in range(0, len(short), height):
                chunk = short[top : top + height, None]
                block = buf[: len(chunk), : len(cols)]
                np.bitwise_xor(chunk, cols, out=block)
                nearest = np.minimum.reduce(np.bitwise_count(block), axis=probe_axis)
                out = col_min[top : top + height] if probe_axis else col_min[lo : lo + width]
                np.minimum(out, nearest, out=out)
        return np.minimum.reduceat(col_min, starts).tolist()
    finally:
        np.setbufsize(bufsize)


class _PairKernel:
    """One pair's alpha-independent facts, from one distance matrix:
    each A path's nearest distance, in A's order (`row_minima`); the row
    and column minima sorted, so each alpha's match counts are two
    bisections; and the smallest distance. `_score` reads the counts,
    `evidence` and `cfgprint compare` read `row_minima`. The kernel
    keeps the programs only because `evidence` formats their
    fingerprints into entries (probe hex, nearest partner hex, distance)."""

    __slots__ = ("a", "b", "matrix", "row_minima", "min_distance", "_rows", "_cols", "_entries")

    def __init__(self, a: ProgramFingerprint, b: ProgramFingerprint) -> None:
        self.a, self.b = a, b
        matrix = self.matrix = distance_matrix(a, b)
        self.row_minima: list[int] = matrix.min(axis=1).tolist()
        self._rows = sorted(self.row_minima)
        self._cols = sorted(matrix.min(axis=0).tolist())
        self.min_distance = self._rows[0]
        self._entries: tuple[tuple[str, str, int], ...] | None = None

    def matched(self, alpha: int) -> tuple[int, int]:
        """How many A paths have a B path within alpha, and how many B
        paths have an A path within alpha."""
        return bisect_right(self._rows, alpha), bisect_right(self._cols, alpha)

    def evidence(self, alpha: int) -> tuple[tuple[str, str, int], ...]:
        """The entries of the A paths within alpha, in A's order."""
        entries = self._entries
        if entries is None:
            # ties go to the lowest partner bits: columns ascend, argmin takes the first
            partners = self.matrix.argmin(axis=1).tolist()
            b_bits = self.b.fingerprints
            entries = self._entries = tuple(
                (to_hex(x), to_hex(b_bits[j]), d)
                for x, j, d in zip(self.a.fingerprints, partners, self.row_minima)
            )
        if self.matched(alpha)[0] == len(entries):
            return entries
        return tuple(entry for entry in entries if entry[2] <= alpha)


def _score(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str,
    min_distance: int | None,
) -> tuple[SimilarityScore, _PairKernel | None, int]:
    """The one scoring path: the score at alpha, the pair's kernel (None
    past alpha) and the pair's smallest distance. It checks the mode,
    then that A, then that B has fingerprints, and works out the
    denominator: both sizes for resemblance, the smaller for
    containment. The smallest distance is the `min_distance` hint if
    one is given, and otherwise the kernel's. Past alpha the score is
    zero; within reach the matched counts are read from the kernel."""
    check_mode(mode)
    na = len(a.fingerprints)
    if not na:
        raise _unscoreable(a)
    nb = len(b.fingerprints)
    if not nb:
        raise _unscoreable(b)
    denominator = na + nb if mode == "resemblance" else na if na < nb else nb
    kernel = None
    if min_distance is None:
        kernel = shared(_PairKernel, a, b)
        min_distance = kernel.min_distance
    if min_distance > alpha:
        return _new_tuple(SimilarityScore, (0.0, mode, alpha, 0, denominator)), None, min_distance
    kernel = kernel or shared(_PairKernel, a, b)
    a_to_b, b_to_a = kernel.matched(alpha)
    if mode == "resemblance":
        matched = a_to_b + b_to_a
    else:
        # containment: the smaller side's matched share; on equal sizes
        # the better direction counts
        matched = a_to_b if na < nb else b_to_a if nb < na else max(a_to_b, b_to_a)
    score = _new_tuple(SimilarityScore, (matched / denominator, mode, alpha, matched, denominator))
    return score, kernel, min_distance


def score_pair(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str = DEFAULT_MODE,
    *,
    min_distance: int | None = None,
) -> SimilarityScore:
    """Containment: matched share of the smaller program's paths (on
    equal sizes the better direction counts). Resemblance: matched
    paths of both sides over both sizes. `min_distance`, if given, must
    be the pair's exact smallest distance (from `record_minima`); it
    stands in for the kernel's, so past alpha no matrix is built."""
    return _score(a, b, alpha, mode, min_distance)[0]


def pair_report(
    a: ProgramFingerprint,
    b: ProgramFingerprint,
    alpha: int,
    mode: str = DEFAULT_MODE,
    *,
    min_distance: int | None = None,
) -> PairReport:
    """Score plus per-path evidence, both read from the pair's kernel;
    past alpha the evidence is empty. `min_distance` is taken as in
    `score_pair`."""
    score, kernel, nearest = _score(a, b, alpha, mode, min_distance)
    evidence = () if kernel is None else kernel.evidence(alpha)
    return _new_tuple(PairReport, (score, evidence, nearest))


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
