"""Program-level scoring against pure-Python nested-loop oracles."""

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgprint import fingerprint, similarity
from cfgprint.config import MODES, RunConfig
from cfgprint.fingerprint import ProgramFingerprint, shared_work
from cfgprint.pipeline import fingerprint_source
from cfgprint.similarity import (
    GRADE_DISSIMILAR,
    GRADE_IDENTICAL,
    GRADE_NEAR_IDENTICAL,
    GRADE_SIMILAR,
    classify,
    distance_matrix,
    fingerprint_columns,
    pair_report,
    record_minima,
    score_pair,
)
from oracles import count_matched, pair_evidence, popcount, program, score_counts


def _random_bits(rng, low=1, high=12):
    return [rng.randrange(2**64) for _ in range(rng.randint(low, high))]


# -- oracle agreement -----------------------------------------------------------


def test_containment_matches_oracle():
    rng = random.Random(31337)
    for _ in range(300):
        a = program("a", _random_bits(rng))
        b = program("b", _random_bits(rng))
        alpha = rng.randint(0, 12)
        got = score_pair(a, b, alpha, "containment")
        matched_count, denominator = score_counts(a.fingerprints, b.fingerprints, alpha, "containment")
        assert got.value == pytest.approx(matched_count / denominator)
        assert got.mode == "containment"
        assert got.denominator == min(len(a.fingerprints), len(b.fingerprints))


def test_resemblance_matches_oracle():
    rng = random.Random(31338)
    for _ in range(300):
        a = program("a", _random_bits(rng))
        b = program("b", _random_bits(rng))
        alpha = rng.randint(0, 12)
        got = score_pair(a, b, alpha, "resemblance")
        matched_count, denominator = score_counts(a.fingerprints, b.fingerprints, alpha, "resemblance")
        assert got.value == pytest.approx(matched_count / denominator)
        assert got.denominator == len(a.fingerprints) + len(b.fingerprints)


def test_score_pair_dispatch():
    a = program("a", [1, 2])
    b = program("b", [1, 4])
    assert score_pair(a, b, 0, "containment").mode == "containment"
    assert score_pair(a, b, 0, "resemblance").mode == "resemblance"
    with pytest.raises(ValueError):
        score_pair(a, b, 0, "jaccard")


# -- basic behavior ----------------------------------------------------------------


def test_identical_sets_score_one():
    a = program("a", [10, 20, 30])
    b = program("b", [10, 20, 30])
    assert score_pair(a, b, 0, "containment").value == 1.0
    assert score_pair(a, b, 0, "resemblance").value == 1.0


def test_disjoint_far_sets_score_zero():
    a = program("a", [0])
    b = program("b", [2**64 - 1])
    assert score_pair(a, b, 5, "containment").value == 0.0
    assert score_pair(a, b, 5, "resemblance").value == 0.0


def test_containment_ignores_extra_paths_in_larger_program():
    small = program("s", [100, 200])
    rng = random.Random(5)
    big = program("b", [100, 200] + _random_bits(rng, 6, 6))
    assert score_pair(small, big, 0, "containment").value == 1.0
    assert score_pair(small, big, 0, "resemblance").value < 1.0


def test_containment_tie_takes_best_direction():
    # same sizes; a's paths all land within alpha of b's, not vice versa
    a = program("a", [0b0000, 0b0001])
    b = program("b", [0b0000, 0b0111])
    # at alpha 1: a->b matches both (0 exact, 1 via 0b0000); b->a matches 0b0000 only...
    # both directions actually: b 0b0111 to a nearest is 0b0001 at distance 2
    a_to_b = count_matched(a.fingerprints, b.fingerprints, 1)
    b_to_a = count_matched(b.fingerprints, a.fingerprints, 1)
    assert a_to_b != b_to_a
    expected = max(a_to_b, b_to_a) / 2
    assert score_pair(a, b, 1, "containment").value == expected


def test_alpha_widens_matches():
    a = program("a", [0b1111_0000])
    b = program("b", [0b1111_0110])
    assert score_pair(a, b, 1, "containment").value == 0.0
    assert score_pair(a, b, 2, "containment").value == 1.0


def test_unscoreable_raises():
    empty = ProgramFingerprint("empty", (), 0, False)
    full = program("full", [1])
    with pytest.raises(ValueError, match="unscoreable program"):
        score_pair(empty, full, 0, "containment")
    with pytest.raises(ValueError, match="unscoreable program"):
        score_pair(full, empty, 0, "resemblance")
    with pytest.raises(ValueError, match="empty"):
        score_pair(empty, empty, 0, "containment")


# -- property tests -----------------------------------------------------------------


_BITS = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
)


@settings(max_examples=150, deadline=None)
@given(a_bits=_BITS, b_bits=_BITS, alpha=st.integers(min_value=0, max_value=64))
def test_scores_are_symmetric_and_bounded(a_bits, b_bits, alpha):
    a = program("a", a_bits)
    b = program("b", b_bits)
    for mode in ("containment", "resemblance"):
        ab = score_pair(a, b, alpha, mode).value
        ba = score_pair(b, a, alpha, mode).value
        assert ab == ba
        assert 0.0 <= ab <= 1.0


@settings(max_examples=100, deadline=None)
@given(a_bits=_BITS, b_bits=_BITS, alpha=st.integers(min_value=0, max_value=63))
def test_scores_monotone_in_alpha(a_bits, b_bits, alpha):
    a = program("a", a_bits)
    b = program("b", b_bits)
    for mode in ("containment", "resemblance"):
        assert (
            score_pair(a, b, alpha, mode).value
            <= score_pair(a, b, alpha + 1, mode).value
        )


@settings(max_examples=100, deadline=None)
@given(a_bits=_BITS, alpha=st.integers(min_value=0, max_value=64))
def test_self_similarity_is_one(a_bits, alpha):
    a = program("a", a_bits)
    b = program("b", a_bits)
    assert score_pair(a, b, alpha, "containment").value == 1.0
    assert score_pair(a, b, alpha, "resemblance").value == 1.0


@settings(max_examples=100, deadline=None)
@given(
    a_bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=4, max_size=4),
    b_bits=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=4, max_size=4),
    alpha=st.integers(min_value=0, max_value=64),
)
def test_containment_dominates_resemblance_at_equal_sizes(a_bits, b_bits, alpha):
    # for same-size sets, max(mA, mB)/n >= (mA + mB)/2n. Not true in
    # general: with unequal sizes containment is pinned to the smaller
    # side, which can be the weaker direction.
    a = program("a", a_bits)
    b = program("b", b_bits)
    if len(a.fingerprints) != len(b.fingerprints):
        return  # dedup may shrink one side; property only claimed for ties
    assert (
        score_pair(a, b, alpha, "containment").value
        >= score_pair(a, b, alpha, "resemblance").value - 1e-12
    )


# -- distance matrix and report ---------------------------------------------------


def test_distance_matrix_layout():
    a = program("a", [0b00, 0b11])
    b = program("b", [0b01, 0b10, 0b111])
    matrix = distance_matrix(a, b)
    assert matrix.shape == (2, 3)
    assert matrix.tolist() == [
        [popcount(x ^ y) for y in b.fingerprints] for x in a.fingerprints
    ]


def test_pair_report_evidence():
    a = program("a", [0b0001, 0b1111_1111])
    b = program("b", [0b0000, 0b0110_0000])
    report = pair_report(a, b, alpha=1, mode="containment")
    assert report.score.matched_count == 1
    assert report.min_distance == 1
    (probe_hex, record_hex, distance) = report.evidence[0]
    assert int(probe_hex, 16) == 0b0001
    assert int(record_hex, 16) == 0b0000
    assert distance == 1


def test_pair_report_evidence_covers_every_matched_probe_path():
    rng = random.Random(8)
    a = program("a", _random_bits(rng, 5, 5))
    b = program("b", list(a.fingerprints)[:3] + _random_bits(rng, 3, 3))
    report = pair_report(a, b, alpha=0, mode="containment")
    matched_probes = {p for p, _, _ in report.evidence}
    assert len(matched_probes) == report.score.matched_count
    for probe_hex, record_hex, distance in report.evidence:
        assert popcount(int(probe_hex, 16) ^ int(record_hex, 16)) == distance
        assert distance <= 0


def test_a_kernel_reduces_its_rows_once(row_reductions):
    # the counts and the evidence both read the minima the kernel took
    a = program("a", [1, 2, 3, 0xFF00])
    b = program("b", [1, 6, 0xFF0F])
    report = pair_report(a, b, 64)
    assert [d for _, _, d in report.evidence] == [
        min(popcount(x ^ y) for y in b.fingerprints) for x in a.fingerprints
    ]
    assert row_reductions == {"matrices": 1, "row_reductions": 1}


# -- what a path fingerprint cannot see -------------------------------------------------

# a loop whose body adds, then prints; each pair below keeps its shape
_LOOP = """\
declare x, y;
x = 0;
y = 2;
while (x < 10)
  x = x + y;
  output x;
endwhile
output y;
"""


def test_statement_order_within_a_path_is_invisible():
    # printing before the add prints 0, 2, .., 8 where the original
    # prints 2, 4, .., 10, yet a path's vote over its statements is a
    # sum, so the order on the path changes no fingerprint
    swapped = _LOOP.replace("  x = x + y;\n  output x;\n", "  output x;\n  x = x + y;\n")
    assert swapped != _LOOP
    a = fingerprint_source(_LOOP, "loop", RunConfig())
    b = fingerprint_source(swapped, "swapped", RunConfig())
    assert a.fingerprints == b.fingerprints
    for mode in MODES:
        assert score_pair(a, b, 0, mode).value == 1.0


def test_same_control_shape_with_unrelated_statements_scores_zero():
    other = """\
declare n, t;
n = 99;
t = 0;
while (n >= 1)
  t = n % 7;
  n = t * t - 1;
endwhile
call report(t);
"""
    a = fingerprint_source(_LOOP, "loop", RunConfig())
    b = fingerprint_source(other, "other", RunConfig())
    assert len(a.fingerprints) == len(b.fingerprints) == 2
    for alpha in (0, 5, 10):
        for mode in MODES:
            assert score_pair(a, b, alpha, mode).value == 0.0, (alpha, mode)


# -- kernel against the oracles ------------------------------------------------------


# values near one another so that ties and small distances are common
_NEAR_BITS = st.lists(
    st.integers(min_value=0, max_value=255).map(lambda low: (0xA5 << 56) | low),
    min_size=1,
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(
    a_bits=st.one_of(_BITS, _NEAR_BITS),
    b_bits=st.one_of(_BITS, _NEAR_BITS),
    alpha=st.integers(min_value=0, max_value=64),
    mode=st.sampled_from(["containment", "resemblance"]),
)
def test_kernel_matches_oracles(a_bits, b_bits, alpha, mode):
    a = program("a", a_bits)
    b = program("b", b_bits)
    matched, denominator = score_counts(a.fingerprints, b.fingerprints, alpha, mode)
    evidence, min_distance = pair_evidence(a.fingerprints, b.fingerprints, alpha)

    score = score_pair(a, b, alpha, mode)
    assert (score.matched_count, score.denominator) == (matched, denominator)
    assert type(score.matched_count) is int  # reports serialize it as JSON
    assert score.value == matched / denominator

    report = pair_report(a, b, alpha, mode)
    assert report.score == score
    assert report.evidence == evidence
    assert report.min_distance == min_distance


def _boundary_pair(gap):
    """Two programs whose closest fingerprints are exactly `gap` bits
    apart (gap <= 16, or 64). Every other cross pair is at least gap + 1
    apart, and the close pair sits in neither side's first row, so the
    kernel's early exit must look at the whole matrix."""
    if gap == 64:
        return program("a", [0]), program("b", [2**64 - 1])
    top = 1 << 63
    a = program("a", [0xFFFF << 32, top | ((1 << gap) - 1)])
    b = program("b", [0xFFFF << 16, 0x7FFF << 48, top])
    return a, b


@pytest.mark.parametrize("mode", ["containment", "resemblance"])
@pytest.mark.parametrize("alpha, gap", [(0, 0), (0, 1), (5, 5), (5, 6), (64, 64)])
def test_early_exit_boundary_matches_oracles(alpha, gap, mode):
    a, b = _boundary_pair(gap)
    for x, y in ((a, b), (b, a)):
        matched, denominator = score_counts(x.fingerprints, y.fingerprints, alpha, mode)
        evidence, min_distance = pair_evidence(x.fingerprints, y.fingerprints, alpha)
        assert min_distance == gap

        score = score_pair(x, y, alpha, mode)
        assert (score.matched_count, score.denominator) == (matched, denominator)
        assert score.value == matched / denominator
        report = pair_report(x, y, alpha, mode)
        assert report.score == score
        assert report.evidence == evidence
        assert report.min_distance == min_distance
        if gap > alpha:
            assert (matched, report.evidence) == (0, ())
        else:
            assert matched > 0 and report.evidence


# -- batched minima and the min_distance hint ----------------------------------------


def min_distances(a, others):
    """Each other program's smallest Hamming distance to A, in order,
    from one `record_minima` pass over the others laid end to end."""
    return record_minima(a.bits_array, *fingerprint_columns(others))


@settings(max_examples=150, deadline=None)
@given(
    a_bits=st.one_of(
        _BITS, _NEAR_BITS, st.lists(st.integers(0, 2**64 - 1), min_size=9, max_size=20)
    ),
    others=st.lists(st.one_of(_BITS, _NEAR_BITS, _BITS.map(lambda bits: bits[:1])), max_size=6),
    cells=st.sampled_from([1, 2, 3, 5, 8, 1 << 15]),
)
def test_min_distances_match_distance_matrix(a_bits, others, cells):
    # small chunks put chunk edges inside records, and a probe with more
    # fingerprints than a chunk is split by rows and steps one column
    a = program("a", a_bits)
    programs = [program(f"b{i}", bits) for i, bits in enumerate(others)]
    with mock.patch.object(similarity, "_CHUNK_CELLS", cells):
        got = min_distances(a, programs)
    assert got == [int(distance_matrix(a, b).min()) for b in programs]
    assert all(type(d) is int for d in got)


def test_min_distances_of_no_records_is_empty():
    assert min_distances(program("a", [1, 2]), []) == []


def test_min_distances_temporaries_stay_within_a_chunk(monkeypatch):
    # a probe with more fingerprints than one chunk holds cells: the
    # full 40 000 x 60 block would be about 19 MB
    rng = random.Random(3)
    a = program("a", [rng.randrange(2**64) for _ in range(40_000)])
    programs = [program(f"b{i}", _random_bits(rng, 1, 11)) for i in range(10)]
    assert len(a.fingerprints) > similarity._CHUNK_CELLS
    for p in (a, *programs):
        p.bits_array  # built before measuring
    blocks = []
    count = np.bitwise_count

    def spy(x):
        blocks.append(x.nbytes)
        return count(x)

    monkeypatch.setattr(np, "bitwise_count", spy)
    tracemalloc.start()
    try:
        got = min_distances(a, programs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    monkeypatch.undo()
    assert len(blocks) > 1
    assert max(blocks) <= 256 * 1024
    assert peak < 2 * 256 * 1024
    assert got == [int(distance_matrix(a, b).min()) for b in programs]


@pytest.mark.parametrize("cells", [1, 4, 5, 6, 11, 12, 13, 1 << 15])
@pytest.mark.parametrize("probe_size", [1, 5, 12, 13, 40])
def test_min_distances_on_either_side_of_the_columns(probe_size, cells):
    # 12 columns in records of 5, 1 and 6: probes shorter than, as tall
    # as and taller than the columns, with chunk edges inside, at and
    # past every record boundary
    rng = random.Random(probe_size * 100 + cells)
    a = program("a", [rng.randrange(2**64) for _ in range(probe_size)])
    programs = [
        program(f"b{i}", [rng.randrange(2**64) for _ in range(size)])
        for i, size in enumerate((5, 1, 6))
    ]
    # one record within a few bits of the probe, so minima differ
    programs[1] = program("b1", [a.fingerprints[-1] ^ 0b101])
    assert len(a.fingerprints) == probe_size
    with mock.patch.object(similarity, "_CHUNK_CELLS", cells):
        got = min_distances(a, programs)
    assert got == [int(distance_matrix(a, b).min()) for b in programs]
    assert got[1] <= 2


# fingerprints a few bits from one base, so minima span 0..64 and
# differ between records
_NEAR_BASE = 0x5A5A_0F0F_3C3C_9696
_MINIMA_BITS = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=255).map(lambda low: _NEAR_BASE ^ low),
    st.integers(min_value=0, max_value=63).map(lambda k: _NEAR_BASE ^ ~(1 << k) % 2**64),
)


def _sized(rng, probe_size, record_sizes):
    """Distinct random fingerprints, some near the base, in the given
    shape, as `example` arguments."""
    values = set()
    while len(values) < probe_size + sum(record_sizes):
        values.add(_NEAR_BASE ^ rng.getrandbits(rng.choice((4, 8, 64))))
    values = list(values)
    rng.shuffle(values)
    records, at = [], probe_size
    for size in record_sizes:
        records.append(values[at : at + size])
        at += size
    return {"probe": values[:probe_size], "records": records}


@settings(max_examples=300, deadline=None)
@given(
    probe=st.lists(_MINIMA_BITS, min_size=1, max_size=80),
    records=st.lists(st.lists(_MINIMA_BITS, min_size=1, max_size=12), min_size=1, max_size=8),
    cells=st.sampled_from([1, 2, 3, 7, 12, 13, 64, 1 << 15]),
)
# short probe, 12 columns in records of 5, 1 and 6, blocks 4 x 3:
# column edges inside the first and last records and at the second
# boundary, a block spanning the first boundary, rows cut 4 + 1
@example(**_sized(random.Random(1), 5, (5, 1, 6)), cells=12)
# tall probe, the 12 columns on axis 0 in blocks of 4 rows: row edges at
# the first boundary and inside the last record, a block spanning the
# second boundary; the 40 probe fingerprints cut into widths of 3
@example(**_sized(random.Random(2), 40, (4, 2, 6)), cells=13)
# probe as tall as the columns: the probe stays on axis 0
@example(**_sized(random.Random(3), 12, (5, 1, 6)), cells=7)
# the largest shapes
@example(**_sized(random.Random(4), 80, (12,) * 8), cells=64)
# blocks 4 x 16 over 77 x 79: a partial last block on both axes
@example(**_sized(random.Random(5), 77, (12,) * 6 + (7,)), cells=64)
def test_record_minima_matches_nested_loops(probe, records, cells):
    rows = np.array(probe, dtype=np.uint64)
    programs = [program(f"r{k}", bits) for k, bits in enumerate(records)]
    flat, starts = fingerprint_columns(programs)
    with mock.patch.object(similarity, "_CHUNK_CELLS", cells):
        got = record_minima(rows, flat, starts)
    assert got == [
        min(popcount(x ^ y) for x in probe for y in other.fingerprints)
        for other in programs
    ]
    assert got == [int(distance_matrix(program("p", probe), b).min()) for b in programs]
    assert all(type(d) is int for d in got)


def _split_into_records(rng, values):
    """`values` cut into consecutive runs of 1 to 40."""
    records, at = [], 0
    while at < len(values):
        size = rng.randint(1, 40)
        records.append(values[at : at + size])
        at += size
    return records


# default-sized blocks: at these widths numpy's default ufunc buffer
# would buffer the XOR's broadcast operand below about 2 980 columns and
# not above, and 33 rows against 2 978 or 3 936 columns cut row blocks
# of 11 and 8
@pytest.mark.parametrize("width", [100, 300, 1000, 2730, 2978, 3936])
@pytest.mark.parametrize("height", [12, 21, 33])
def test_record_minima_matches_distance_matrix_at_default_blocks(height, width):
    rng = random.Random(height * 10_000 + width)
    values = set()
    while len(values) < height + width:
        values.add(_NEAR_BASE ^ rng.getrandbits(rng.choice((4, 8, 64))))
    values = list(values)
    rng.shuffle(values)
    # the short side as the probe against the long one as records, and
    # the other way round; records of 1 to 40 put their edges inside
    # the blocks on either axis
    short, long = values[:height], values[height:]
    for probe_bits, column_bits in ((short, long), (long, short)):
        probe = program("p", probe_bits)
        programs = [
            program(f"r{k}", bits)
            for k, bits in enumerate(_split_into_records(rng, column_bits))
        ]
        got = record_minima(probe.bits_array, *fingerprint_columns(programs))
        assert got == [int(distance_matrix(probe, b).min()) for b in programs]


def test_record_minima_restores_the_ufunc_buffer(monkeypatch):
    rows = np.array([1, 2, 3], dtype=np.uint64)
    flat = np.array([4, 5, 6, 7], dtype=np.uint64)
    starts = np.array([0, 2])
    count = np.bitwise_count
    seen = []

    def spy(x):
        seen.append(np.getbufsize())
        return count(x)

    def broken(x):
        raise RuntimeError("popcount failed")

    caller = np.setbufsize(4096)
    try:
        monkeypatch.setattr(np, "bitwise_count", spy)
        assert record_minima(rows, flat, starts) == [1, 1]
        # the kernel ran under the small buffer, and the caller's is back
        assert seen == [similarity._UFUNC_BUFSIZE]
        assert np.getbufsize() == 4096
        monkeypatch.setattr(np, "bitwise_count", broken)
        with pytest.raises(RuntimeError, match="popcount failed"):
            record_minima(rows, flat, starts)
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(caller)


@settings(max_examples=150, deadline=None)
@given(
    a_bits=st.one_of(_BITS, _NEAR_BITS),
    b_bits=st.one_of(_BITS, _NEAR_BITS),
    alpha=st.one_of(st.sampled_from([0, 64]), st.integers(min_value=0, max_value=64)),
    mode=st.sampled_from(["containment", "resemblance"]),
)
def test_min_distance_hint_changes_nothing(a_bits, b_bits, alpha, mode):
    a = program("a", a_bits)
    b = program("b", b_bits)
    (nearest,) = min_distances(a, [b])
    assert score_pair(a, b, alpha, mode, min_distance=nearest) == score_pair(a, b, alpha, mode)
    assert pair_report(a, b, alpha, mode, min_distance=nearest) == pair_report(a, b, alpha, mode)


@pytest.mark.parametrize("mode", ["containment", "resemblance"])
@pytest.mark.parametrize("alpha, gap", [(0, 0), (0, 1), (5, 5), (5, 6), (64, 64)])
def test_min_distance_hint_at_the_alpha_boundary(alpha, gap, mode):
    a, b = _boundary_pair(gap)
    for x, y in ((a, b), (b, a)):
        hinted = pair_report(x, y, alpha, mode, min_distance=gap)
        assert hinted == pair_report(x, y, alpha, mode)
        assert score_pair(x, y, alpha, mode, min_distance=gap) == hinted.score
        assert (hinted.score.value > 0) == (gap <= alpha)


def test_min_distance_hint_past_alpha_builds_no_matrix(monkeypatch):
    a = program("a", [0, 1])
    b = program("b", [2**64 - 1])

    def no_matrix(*args):
        raise AssertionError("distance matrix built")

    monkeypatch.setattr(similarity, "distance_matrix", no_matrix)
    report = pair_report(a, b, 5, min_distance=63)
    assert report == similarity.PairReport(
        similarity.SimilarityScore(0.0, "containment", 5, 0, 1), (), 63
    )


def test_past_alpha_hint_still_validates():
    # a min_distance past alpha returns before any matrix is built, but
    # not before the mode and both sides are checked, in that order
    full = program("full", [1, 2])
    empty = ProgramFingerprint("empty", (), 0, False)
    other_empty = ProgramFingerprint("other", (), 0, False)
    for scorer in (score_pair, pair_report):
        with pytest.raises(ValueError, match="unknown similarity mode 'jaccard'"):
            scorer(full, full, 5, "jaccard", min_distance=63)
        with pytest.raises(ValueError, match="unknown similarity mode 'jaccard'"):
            scorer(empty, empty, 5, "jaccard", min_distance=63)
        for a, b in ((empty, full), (full, empty), (empty, other_empty)):
            for mode in ("containment", "resemblance"):
                with pytest.raises(ValueError, match="unscoreable program: 'empty'"):
                    scorer(a, b, 5, mode, min_distance=63)
        with pytest.raises(ValueError, match="unscoreable program: 'other'"):
            scorer(other_empty, empty, 5, min_distance=63)


def test_pair_report_tie_goes_to_lowest_partner_bits():
    a = program("a", [0b0100])
    b = program("b", [0b0000, 0b0101, 0b0110])  # all at distance 1
    report = pair_report(a, b, alpha=1)
    assert report.evidence == (("0000000000000004", "0000000000000000", 1),)


# -- shared pair kernels --------------------------------------------------------------


@st.composite
def kernel_cases(draw):
    """(a, b, c): b and c hold equal fingerprints under different ids;
    a is random, near-valued, b's own set, or one fingerprint, and b's
    set may be one fingerprint too."""
    b_bits = draw(st.one_of(_BITS, _NEAR_BITS, _BITS.map(lambda bits: bits[:1])))
    kind = draw(st.sampled_from(["random", "near", "equal", "single"]))
    if kind == "random":
        a_bits = draw(_BITS)
    elif kind == "near":
        a_bits = draw(_NEAR_BITS)
    elif kind == "equal":
        a_bits = list(b_bits)
    else:
        a_bits = [draw(st.sampled_from(b_bits)) ^ draw(st.sampled_from([0, 1, 3 << 10]))]
    return program("a", a_bits), program("b", b_bits), program("c", b_bits)


def _expected_calls(x, y, alpha, mode):
    """The oracles' `score_pair` and `pair_report` results, as reprs."""
    matched, denominator = score_counts(x.fingerprints, y.fingerprints, alpha, mode)
    evidence, min_distance = pair_evidence(x.fingerprints, y.fingerprints, alpha)
    score = similarity.SimilarityScore(matched / denominator, mode, alpha, matched, denominator)
    return repr(score), repr(similarity.PairReport(score, evidence, min_distance))


@settings(max_examples=100, deadline=None)
@given(
    case=kernel_cases(),
    alphas=st.lists(st.integers(min_value=0, max_value=64), min_size=1, max_size=10),
)
def test_shared_kernels_change_no_score_or_evidence(case, alphas):
    # every call inside one block, in random order with repeats and
    # then in decreasing order on the same objects, against the same
    # call outside any block and against the nested-loop oracles
    a, b, c = case
    pairs = [(a, b), (b, a), (a, c), (b, c), (c, b)]
    sequence = alphas + sorted(set(alphas), reverse=True)
    calls = []
    for alpha in sequence:
        for x, y in pairs:
            (nearest,) = min_distances(x, [y])
            for mode in ("containment", "resemblance"):
                for hint in (None, nearest):
                    calls.append((x, y, alpha, mode, hint))

    def run(x, y, alpha, mode, hint):
        return (
            repr(score_pair(x, y, alpha, mode, min_distance=hint)),
            repr(pair_report(x, y, alpha, mode, min_distance=hint)),
        )

    outside = [run(*call) for call in calls]
    with shared_work():
        inside = [run(*call) for call in calls]
    assert inside == outside
    assert outside == [_expected_calls(x, y, alpha, mode) for x, y, alpha, mode, _ in calls]


def test_shared_kernel_builds_one_matrix_and_one_set_of_entries(built_matrices):
    a = program("a", [1, 2, 3, 0xFF00])
    b = program("b", [1, 6, 0xFF0F])
    with shared_work():
        reports = [pair_report(a, b, alpha, mode) for alpha in (4, 0, 64, 4) for mode in MODES]
        score_pair(a, b, 2, "resemblance")
        score_pair(b, a, 2, "resemblance")
    # one matrix per ordered pair of objects, whatever the alpha or mode
    assert built_matrices == [("a", "b"), ("b", "a")]
    # every alpha's evidence reads the same entry tuples
    widest = reports[2 * len(MODES)].evidence  # alpha 64: every row
    assert len(widest) == 4
    assert all(id(entry) in map(id, widest) for r in reports for entry in r.evidence)
    # outside the block each call builds its own
    built_matrices.clear()
    pair_report(a, b, 4)
    pair_report(a, b, 4)
    assert built_matrices == [("a", "b"), ("a", "b")]


def test_shared_kernels_reset_however_the_block_ends():
    assert fingerprint._SHARED_WORK.get() is None
    a = program("a", [1])
    with pytest.raises(ValueError, match="unknown similarity mode"):
        with shared_work():
            assert fingerprint._SHARED_WORK.get() == {}
            score_pair(a, a, 0)
            assert len(fingerprint._SHARED_WORK.get()) == 1
            score_pair(a, a, 0, "jaccard")
    assert fingerprint._SHARED_WORK.get() is None


def test_unknown_mode_rejected_by_every_scorer():
    a = program("a", [1, 2])
    for scorer in (score_pair, pair_report):
        with pytest.raises(ValueError, match="unknown similarity mode 'jaccard'"):
            scorer(a, a, 0, "jaccard")


# -- result types ----------------------------------------------------------------------


def test_result_types_are_immutable_named_tuples():
    score = similarity.SimilarityScore(0.5, "containment", 5, 1, 2)
    report = similarity.PairReport(score, (("00", "01", 1),), 1)
    assert similarity.SimilarityScore._fields == (
        "value", "mode", "alpha", "matched_count", "denominator"
    )
    assert similarity.PairReport._fields == ("score", "evidence", "min_distance")
    assert repr(score) == (
        "SimilarityScore(value=0.5, mode='containment', alpha=5, matched_count=1, denominator=2)"
    )
    assert repr(report) == (
        "PairReport(score=SimilarityScore(value=0.5, mode='containment', alpha=5, "
        "matched_count=1, denominator=2), evidence=(('00', '01', 1),), min_distance=1)"
    )
    for value, name in ((score, "value"), (report, "score")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    # equal values compare and hash equal, also to the plain tuples
    same = similarity.PairReport(similarity.SimilarityScore(0.5, "containment", 5, 1, 2),
                                 (("00", "01", 1),), 1)
    assert same == report and hash(same) == hash(report)
    assert report == ((0.5, "containment", 5, 1, 2), (("00", "01", 1),), 1)
    assert hash(score) == hash((0.5, "containment", 5, 1, 2))
    assert score != similarity.SimilarityScore(0.5, "resemblance", 5, 1, 2)


def test_scorers_return_the_named_tuples():
    a = program("a", [1, 2, 3])
    b = program("b", [1, 2**63])
    score = score_pair(a, b, 0)
    assert type(score) is similarity.SimilarityScore
    assert score == (0.5, "containment", 0, 1, 2)
    report = pair_report(a, b, 0, "resemblance")
    assert type(report) is similarity.PairReport
    assert type(report.score) is similarity.SimilarityScore
    assert report == (
        (0.4, "resemblance", 0, 2, 5),
        (("0000000000000001", "0000000000000001", 0),),
        0,
    )


# -- classify ------------------------------------------------------------------------


def test_classify_bands():
    assert classify(0) == GRADE_IDENTICAL
    assert classify(1) == GRADE_NEAR_IDENTICAL
    assert classify(3) == GRADE_NEAR_IDENTICAL
    assert classify(4) == GRADE_SIMILAR
    assert classify(7) == GRADE_SIMILAR
    assert classify(8) == GRADE_DISSIMILAR
    assert classify(64) == GRADE_DISSIMILAR


def test_classify_rejects_negative():
    with pytest.raises(ValueError):
        classify(-1)
