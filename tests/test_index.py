"""Index assembly, persistence, query, and clustering."""

import json
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfgprint import fingerprint, index_store, pipeline, similarity
from cfgprint.cloneforge import build_corpus, scaling_run
from cfgprint.config import ConfigStamp, RunConfig
from cfgprint.fingerprint import ProgramFingerprint, shared_work
from cfgprint.index_store import (
    CloneCandidate,
    FingerprintIndex,
    IndexCompatibilityError,
    IndexFormatError,
    IndexRecord,
    load_index,
    record_from_program,
)
from cfgprint.similarity import classify, distance_matrix, pair_report, score_pair
from oracles import bfs_components, program

STAMP = ConfigStamp.from_config(RunConfig())


def make_index(programs, stamp=STAMP):
    index = FingerprintIndex(config_stamp=stamp)
    for program in programs:
        index.add_program(record_from_program(program, f"{program.program_id}.mp", stamp))
    return index


def _random_programs(rng, count):
    out = []
    for i in range(count):
        bits = [rng.randrange(2**64) for _ in range(rng.randint(1, 9))]
        out.append(program(f"p{i:03d}", bits))
    return out


# -- add -----------------------------------------------------------------------


def test_add_rejects_duplicate_id():
    index = make_index([program("a", [1])])
    with pytest.raises(ValueError, match="already indexed"):
        index.add_program(record_from_program(program("a", [2]), "a.mp", STAMP))


def test_add_rejects_stamp_mismatch():
    index = make_index([])
    other = ConfigStamp.from_config(RunConfig(min_blocks=5))
    with pytest.raises(IndexCompatibilityError):
        index.add_program(record_from_program(program("a", [1]), "a.mp", other))


def test_add_rejects_alpha_only_stamp_mismatch():
    # the stamp is exact: alpha is the index's default query alpha, so
    # a record stamped with another alpha does not join
    index = make_index([])
    other = ConfigStamp.from_config(RunConfig(alpha=STAMP.alpha + 1))
    with pytest.raises(IndexCompatibilityError):
        index.add_program(record_from_program(program("a", [1]), "a.mp", other))


# -- query ------------------------------------------------------------------------


def test_query_skips_probe_itself():
    programs = [program("a", [1, 2]), program("b", [1, 2])]
    index = make_index(programs)
    hits = index.query(programs[0], alpha=0, threshold=0.0, mode="containment")
    assert [h.program_id for h in hits] == ["b"]


def test_query_threshold_and_ordering():
    probe = program("probe", [0, 1024, 2048])
    entries = [
        program("full", [0, 1024, 2048]),              # 1.0
        program("two_of_three", [0, 1024, 2**63]),     # 2/3
        program("one_of_three", [0, 2**62, 2**63]),    # 1/3
    ]
    index = make_index(entries)
    hits = index.query(probe, alpha=0, threshold=0.5, mode="containment")
    assert [h.program_id for h in hits] == ["full", "two_of_three"]
    assert hits[0].score.value == 1.0
    assert hits[0].grade == "identical"
    # ties on score break by id
    tied = make_index([program("zz", [0]), program("aa", [0])])
    ordered = tied.query(program("probe", [0]), 0, 0.0, "containment")
    assert [h.program_id for h in ordered] == ["aa", "zz"]


def test_query_skips_unscoreable_records_and_counts_scorings():
    index = make_index([program("a", [1]), program("empty", [])])
    hits = index.query(program("probe", [1]), 0, 0.0, "containment")
    assert [h.program_id for h in hits] == ["a"]
    assert index.last_query_scorings == 1  # the empty record cost nothing


def test_query_scoring_counter_is_per_call():
    rng = random.Random(77)
    index = make_index(_random_programs(rng, 9))
    probe = program("probe", [rng.randrange(2**64)])
    index.query(probe, 5, 0.0, "containment")
    assert index.last_query_scorings == 9
    index.query(probe, 5, 0.99, "containment")
    assert index.last_query_scorings == 9


def test_query_unscoreable_probe_raises():
    index = make_index([program("a", [1])])
    with pytest.raises(ValueError, match="unscoreable"):
        index.query(program("probe", []), 0, 0.5, "containment")


def test_query_candidate_evidence_is_hex():
    index = make_index([program("a", [0xDEAD])])
    (hit,) = index.query(program("p", [0xDEAD]), 0, 0.5, "containment")
    ((probe_hex, record_hex, distance),) = hit.matched_path_evidence
    assert probe_hex == format(0xDEAD, "016x")
    assert record_hex == format(0xDEAD, "016x")
    assert distance == 0


def per_record_query(index, probe, alpha, threshold, mode):
    """The scan as one unhinted `pair_report` per scoreable record."""
    expected = []
    for record in index.records.values():
        if record.program_id == probe.program_id or not record.fingerprints:
            continue
        report = pair_report(probe, record, alpha, mode)
        if report.score.value >= threshold:
            expected.append(
                CloneCandidate(
                    record.program_id,
                    report.score,
                    classify(report.min_distance),
                    report.evidence,
                )
            )
    expected.sort(key=lambda c: (-c.score.value, c.program_id))
    return expected


def _share_sets(programs, copies):
    """Give each (source, target) position of `copies` the source's
    fingerprint set, keeping the target's id."""
    for source, target in copies:
        programs[target] = program(
            programs[target].program_id, list(programs[source].fingerprints)
        )


def test_query_matches_a_per_record_pair_report_loop():
    # the index holds the probe's own id and an unscoreable record;
    # near twins of the probe give candidates at every alpha. The last
    # ten rounds repeat sets: one held by three records apart in id
    # order, the probe's own set under another id (its first holder is
    # the record the scan skips), a near twin's, and a second empty one
    rng = random.Random(41)
    for round_ in range(20):
        probe = program("p003", [rng.randrange(2**64) for _ in range(rng.randint(1, 9))])
        programs = _random_programs(rng, 14)
        programs[3] = probe
        programs[7] = program("p007", [])
        for k in (2, 9, 11):
            flipped = [bits ^ (1 << rng.randrange(64)) for bits in probe.fingerprints]
            programs[k] = program(f"p{k:03d}", flipped[: rng.randint(1, len(flipped))])
        if round_ >= 10:
            _share_sets(programs, [(4, 8), (4, 13), (3, 10), (2, 12), (7, 0)])
        index = make_index(programs)
        scanned = sum(1 for p in programs if p.fingerprints and p.program_id != "p003")
        assert scanned == (12 if round_ < 10 else 11)
        for alpha in (0, 1, 5, 64):
            for threshold in (0.0, 0.5):
                for mode in ("containment", "resemblance"):
                    expected = per_record_query(index, probe, alpha, threshold, mode)
                    assert index.query(probe, alpha, threshold, mode) == expected
                    assert index.last_query_scorings == scanned


_FINGERPRINTS = st.lists(st.integers(0, 2**64 - 1), max_size=8)


@st.composite
def scan_cases(draw):
    """(probe, index programs, a program to add later, a record id to
    overwrite and its new fingerprints). Programs are random, near
    twins of the probe (a few bits flipped), unscoreable, or the
    probe's own id."""
    probe_bits = draw(_FINGERPRINTS.filter(bool))
    probe = program("probe", probe_bits)

    def draw_program(program_id):
        kind = draw(st.sampled_from(["random", "twin", "empty", "self"]))
        if kind == "random":
            return program(program_id, draw(_FINGERPRINTS))
        if kind == "empty":
            return program(program_id, [])
        flips = draw(st.lists(st.integers(0, 63), max_size=6))
        bits = [b ^ sum(1 << f for f in set(flips)) for b in probe_bits]
        return program("probe" if kind == "self" else program_id, bits)

    programs = {}
    for i in range(draw(st.integers(0, 7))):
        made = draw_program(f"p{i}")
        programs.setdefault(made.program_id, made)
    added = draw_program("added")
    overwrite = draw(st.sampled_from(sorted(programs))) if programs else None
    return probe, list(programs.values()), added, overwrite, draw(_FINGERPRINTS)


@settings(max_examples=120, deadline=None)
@given(
    case=scan_cases(),
    alpha=st.one_of(st.sampled_from([0, 64]), st.integers(0, 64)),
    threshold=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    mode=st.sampled_from(["containment", "resemblance"]),
)
def test_columnar_scan_matches_the_per_record_loop(case, alpha, threshold, mode):
    # the prebuilt columns must follow every change to the records: an
    # add_program, a direct overwrite and a direct delete
    probe, programs, added, overwrite, new_bits = case
    index = make_index(programs)

    def check():
        expected = per_record_query(index, probe, alpha, threshold, mode)
        assert index.query(probe, alpha, threshold, mode) == expected
        # cluster reads the layout the query above may have built
        programs = sorted(
            (r for r in index.records.values() if r.fingerprints), key=lambda r: r.program_id
        )
        ids = [p.program_id for p in programs]
        linked = {
            (a.program_id, b.program_id)
            for i, a in enumerate(programs)
            for b in programs[i + 1 :]
            if score_pair(a, b, alpha, mode).value >= threshold
        }
        groups = index.cluster(alpha, threshold, mode)
        assert [list(g.members) for g in groups] == bfs_components(ids, linked)
        assert index.last_query_scorings == sum(
            1
            for r in index.records.values()
            if r.fingerprints and r.program_id != probe.program_id
        )
        if threshold == 0.0:
            # a record past alpha is still a candidate: zero score, no
            # evidence, graded by its smallest distance
            for hit in expected:
                record = index.records[hit.program_id]
                if int(distance_matrix(probe, record).min()) > alpha:
                    assert hit.score.value == 0.0 and hit.matched_path_evidence == ()
                    assert hit.grade == classify(int(distance_matrix(probe, record).min()))

    check()
    if added.program_id not in index.records:
        index.add_program(record_from_program(added, "added.mp", STAMP))
        check()
    if overwrite is not None:
        index.records[overwrite] = record_from_program(
            program(overwrite, new_bits), f"{overwrite}.mp", STAMP
        )
        check()
        del index.records[overwrite]
        check()


# -- alpha sweeps in one scope ----------------------------------------------------


def _recording_queries(mp):
    """Wrap `FingerprintIndex.query` on the class, as the benchmark
    tracer does, and return the list each call appends (alpha, result,
    last_query_scorings) to."""
    calls = []
    plain = FingerprintIndex.query

    def query(self, probe, alpha, threshold, mode="containment"):
        result = plain(self, probe, alpha, threshold, mode)
        calls.append((alpha, result, self.last_query_scorings))
        return result

    mp.setattr(FingerprintIndex, "query", query)
    return calls


def _sweep(index, probe, alphas, threshold, mode):
    """One `query` per alpha, in order, inside one scope."""
    with shared_work():
        return [index.query(probe, alpha, threshold, mode) for alpha in alphas]


@settings(max_examples=120, deadline=None)
@given(
    case=scan_cases(),
    alphas=st.lists(st.one_of(st.sampled_from([0, 64]), st.integers(0, 64)), max_size=6),
    threshold=st.sampled_from([0.0, 0.0, 0.5, 1.0]),
    mode=st.sampled_from(["containment", "resemblance"]),
)
def test_in_scope_queries_match_plain_queries(case, alphas, threshold, mode):
    # alpha lists come unsorted, repeated or empty; records include
    # unscoreable ones, near twins and the probe's own id
    probe, programs, _, _, _ = case
    index = make_index(programs)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recording_queries(mp)
        swept = _sweep(index, probe, alphas, threshold, mode)
        in_scope = list(calls)
        calls.clear()
        one_by_one = [index.query(probe, alpha, threshold, mode) for alpha in alphas]
    assert swept == one_by_one
    # each call leaves the same scan count in scope as outside
    assert in_scope == calls
    assert [alpha for alpha, _, _ in in_scope] == alphas
    if threshold == 0.0:
        for alpha, hits in zip(alphas, swept):
            for hit in hits:
                nearest = int(distance_matrix(probe, index.records[hit.program_id]).min())
                assert hit.grade == classify(nearest)
                if nearest > alpha:
                    assert hit.score.value == 0.0 and hit.matched_path_evidence == ()


@pytest.mark.parametrize("alphas", [[5], [0, 64], [7, 0, 7]])
def test_query_alphas_unscoreable_probe_raises_like_query(alphas):
    # an in-scope sweep over several alphas raises plain query's error;
    # an empty sweep makes no call, so every list here holds an alpha
    index = make_index([program("a", [1])])
    probe = program("probe", [])
    with pytest.raises(ValueError, match="unscoreable") as plain:
        index.query(probe, 0, 0.5, "containment")
    with pytest.raises(ValueError, match="unscoreable") as in_scope:
        _sweep(index, probe, alphas, 0.5, "containment")
    assert str(in_scope.value) == str(plain.value)


@pytest.mark.parametrize("mode", ["resemblence", "jaccard"])
def test_unknown_mode_raises_whatever_the_index_holds(mode):
    probe = program("probe", [1, 2])
    message = f"unknown similarity mode {mode!r}"
    # nothing to score: an empty index, and one holding only the
    # probe's own id
    for index in (make_index([]), make_index([program("probe", [1])])):
        with pytest.raises(ValueError, match=re.escape(message)):
            index.query(probe, 5, 0.5, mode)
    # no pair to score
    for index in (make_index([]), make_index([program("a", [1])])):
        with pytest.raises(ValueError, match=re.escape(message)):
            index.cluster(5, 0.5, mode)
    # an unscoreable probe is reported first, as before
    with pytest.raises(ValueError, match="unscoreable"):
        make_index([]).query(program("probe", []), 5, 0.5, mode)


def test_every_mode_check_gives_one_message():
    # the config, both scorers, query and cluster apply one rule
    a = program("a", [1, 2])
    index = make_index([a, program("b", [1])])
    checks = [
        lambda: RunConfig(mode="jaccard"),
        lambda: score_pair(a, a, 5, "jaccard"),
        lambda: pair_report(a, a, 5, "jaccard"),
        lambda: index.query(a, 5, 0.5, "jaccard"),
        lambda: index.cluster(5, 0.5, "jaccard"),
    ]
    for check in checks:
        with pytest.raises(ValueError) as raised:
            check()
        assert str(raised.value) == (
            "unknown similarity mode 'jaccard', expected one of ('containment', 'resemblance')"
        )


def _count_minima_passes(monkeypatch):
    passes = []
    plain = index_store.record_minima

    def record_minima(*args):
        passes.append(1)
        return plain(*args)

    monkeypatch.setattr(index_store, "record_minima", record_minima)
    return passes


def test_scope_shares_a_minima_pass_only_within_itself(monkeypatch):
    rng = random.Random(5)
    index = make_index(_random_programs(rng, 8))
    probe = program("probe", [rng.randrange(2**64) for _ in range(4)])
    passes = _count_minima_passes(monkeypatch)
    _sweep(index, probe, [0, 3, 64], 0.0, "containment")
    assert len(passes) == 1
    index.query(probe, 3, 0.0, "containment")
    assert len(passes) == 2
    # a second scope runs its own pass; an unknown mode raises before
    # the scan, so it runs none
    _sweep(index, probe, [3, 0], 0.0, "containment")
    assert len(passes) == 3
    with pytest.raises(ValueError, match="unknown similarity mode"):
        _sweep(index, probe, [0, 3], 0.0, "jaccard")
    assert len(passes) == 3
    index.query(probe, 3, 0.0, "containment")
    assert len(passes) == 4


def _reach_index(rng):
    """A probe and an index around it: twins of the probe with 0 to 20
    bits flipped in every fingerprint, random records, an unscoreable
    record and one under the probe's own id."""
    probe_bits = [rng.randrange(2**64) for _ in range(6)]
    programs = _random_programs(rng, 6)
    for flips in (0, 0, 2, 5, 9, 10, 11, 20):
        mask = sum(1 << bit for bit in rng.sample(range(64), flips))
        programs.append(program(f"twin{len(programs):02d}", [b ^ mask for b in probe_bits]))
    programs += [program("empty", []), program("probe", probe_bits[:2])]
    return program("probe", probe_bits), make_index(programs)


def test_scope_is_empty_after_a_return_and_after_a_raise(built_matrices):
    probe, index = _reach_index(random.Random(7))
    work = fingerprint._SHARED_WORK
    assert work.get() is None
    with shared_work():
        table = work.get()
        index.query(probe, 0, 0.0, "containment")
        index.query(probe, 64, 0.0, "containment")
        index.query(probe, 3, 0.0, "resemblance")
    # the scope held one minima pass and one kernel per scored record,
    # each keyed by its builder and the ids of the objects it read
    columns = index._scan_columns()
    scored = [r for r in columns.records if r.program_id != "probe"]
    assert set(table) == {(index_store._record_minima, id(probe), id(columns))} | {
        (similarity._PairKernel, id(probe), id(r)) for r in scored
    }
    assert work.get() is None
    # a raise inside the scope, after work was kept, still empties it
    with pytest.raises(ZeroDivisionError):
        with shared_work():
            index.query(probe, 64, 0.0, "containment")
            assert len(work.get()) == 1 + len(scored)
            1 / 0
    assert work.get() is None
    # plain queries after a scope build their kernels fresh, call by call
    built_matrices.clear()
    index.query(probe, 64, 0.0, "containment")
    index.query(probe, 64, 0.0, "containment")
    assert built_matrices == [("probe", r.program_id) for r in scored] * 2


def test_nested_scopes_give_the_outer_table_back(tmp_path, monkeypatch, built_matrices):
    # a serial `index_directory` opens its own scope inside the open
    # one; on the way out, returned or raised, the outer table is back
    # with the work it held and nothing of the inner scope's
    root = tmp_path / "corpus"
    build_corpus(root, 3, 3, seed=4)
    probe, index = _reach_index(random.Random(9))
    passes = _count_minima_passes(monkeypatch)
    plain = pipeline.fingerprint_program

    def fails_on_the_second_file(*args, **kwargs):
        fails_on_the_second_file.calls += 1
        if fails_on_the_second_file.calls == 2:
            raise RuntimeError("fingerprinting failed")
        return plain(*args, **kwargs)

    fails_on_the_second_file.calls = 0
    work = fingerprint._SHARED_WORK
    with shared_work():
        outer = work.get()
        first = index.query(probe, 5, 0.0, "containment")
        kept, matrices = dict(outer), len(built_matrices)
        assert len(pipeline.index_directory(root, RunConfig()).index.records) == 9
        assert work.get() is outer and outer == kept
        assert index.query(probe, 5, 0.0, "containment") == first
        monkeypatch.setattr(pipeline, "fingerprint_program", fails_on_the_second_file)
        with pytest.raises(RuntimeError, match="fingerprinting failed"):
            pipeline.index_directory(root, RunConfig())
        assert work.get() is outer and outer == kept
        assert index.query(probe, 5, 0.0, "containment") == first
        # the repeats made no new minima pass and built no new matrix
        assert len(passes) == 1 and len(built_matrices) == matrices
    assert work.get() is None


@pytest.mark.parametrize("mode", ["containment", "resemblance"])
def test_in_scope_sweep_builds_one_matrix_per_record_within_reach(
    monkeypatch, built_matrices, mode
):
    probe, index = _reach_index(random.Random(8))
    alphas = range(11)
    records = [r for r in index._scan_columns().records if r.program_id != "probe"]
    nearest = {r.program_id: int(distance_matrix(probe, r).min()) for r in records}
    within = [pid for pid, d in nearest.items() if d <= max(alphas)]
    # the index has records just within and just past the largest alpha
    assert {10, 11} <= set(nearest.values())
    built_matrices.clear()
    passes = _count_minima_passes(monkeypatch)
    swept = _sweep(index, probe, alphas, 0.0, mode)
    assert len(passes) == 1
    assert sorted(built_matrices) == [("probe", pid) for pid in sorted(within)]
    # one `query` per alpha outside a scope builds one per alpha reached
    built_matrices.clear()
    assert [index.query(probe, alpha, 0.0, mode) for alpha in alphas] == swept
    assert len(built_matrices) == sum(d <= alpha for d in nearest.values() for alpha in alphas)
    assert len(passes) == 1 + len(alphas)


def test_query_ignores_minima_for_another_probe_or_layout(monkeypatch):
    # in a scope a pass is reused only for the very probe object and
    # layout it was run for: an equal probe or a rebuilt layout gets a
    # pass of its own
    rng = random.Random(6)
    programs = _random_programs(rng, 6)
    index = make_index(programs)
    probe = program("probe", list(programs[2].fingerprints))
    twin = program("probe", list(probe.fingerprints))
    passes = _count_minima_passes(monkeypatch)
    with shared_work():
        expected = per_record_query(index, probe, 5, 0.0, "containment")
        assert index.query(probe, 5, 0.0, "containment") == expected
        assert index.query(twin, 5, 0.0, "containment") == expected
        assert len(passes) == 2
        assert index.query(probe, 0, 0.0, "containment") == per_record_query(
            index, probe, 0, 0.0, "containment"
        )
        assert len(passes) == 2
        index.add_program(record_from_program(program("later", [1]), "later.mp", STAMP))
        expected = per_record_query(index, probe, 5, 0.0, "containment")
        assert index.query(probe, 5, 0.0, "containment") == expected
        assert "later" in {hit.program_id for hit in expected}
        assert len(passes) == 3


def test_scaling_run_makes_one_minima_pass_per_query(monkeypatch):
    passes = _count_minima_passes(monkeypatch)
    calls = _recording_queries(monkeypatch)
    scaling_run([4, 8], RunConfig(), seed=3, repeats=2, query_loops=3)
    assert len(calls) == 2 + 2 * 2 * 3
    assert len(passes) == len(calls)


def test_scans_leave_the_ufunc_buffer_as_they_found_it():
    rng = random.Random(19)
    index = make_index(_random_programs(rng, 8))
    probe = program("probe", [rng.randrange(2**64) for _ in range(4)])
    caller = np.setbufsize(4096)
    try:
        index.query(probe, 5, 0.0, "containment")
        assert np.getbufsize() == 4096
        _sweep(index, probe, [0, 5, 64], 0.0, "containment")
        assert np.getbufsize() == 4096
        index.cluster(5, 0.0, "resemblance")
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(caller)


def test_record_builds_its_bits_array_once():
    rng = random.Random(12)
    programs = _random_programs(rng, 4)
    index = make_index(programs)
    record = index.records["p001"]
    assert isinstance(record, ProgramFingerprint)
    assert record.fingerprints is programs[1].fingerprints
    assert "bits_array" not in record.__dict__
    # the scan scores the record itself, so it builds the record's array
    index.query(programs[0], 5, 0.0, "containment")
    built = record.__dict__["bits_array"]
    index.cluster(5, 0.5, "containment")
    index.query(programs[2], 64, 0.0, "resemblance")
    assert record.bits_array is built
    # the cache is not a field: equality and hashing are unchanged
    assert record == record_from_program(programs[1], "p001.mp", STAMP)
    assert hash(record) == hash(record_from_program(programs[1], "p001.mp", STAMP))


def test_save_bytes_unchanged_by_queries_and_clustering(tmp_path):
    rng = random.Random(13)
    programs = _random_programs(rng, 12)
    index = make_index(programs)
    before = tmp_path / "before.cdx"
    index.save(before)
    for probe in programs:
        index.query(probe, 5, 0.0, "containment")
        index.query(probe, 64, 0.5, "resemblance")
    index.cluster(5, 0.5, "containment")
    after = tmp_path / "after.cdx"
    index.save(after)
    assert after.read_bytes() == before.read_bytes()


# -- cluster -------------------------------------------------------------------------


def test_cluster_matches_bfs_oracle():
    rng = random.Random(2024)
    for round_ in range(40):
        programs = _random_programs(rng, 12)
        # plant some identical twins so clusters exist
        programs[1] = program("p001", list(programs[0].fingerprints))
        programs[5] = program("p005", list(programs[4].fingerprints))
        if round_ >= 25:
            # a set held by three records, one apart from the other two,
            # a pair apart in id order, and two empty records
            programs[10] = program("p010", [])
            programs[11] = program("p011", [])
            _share_sets(programs, [(0, 8), (3, 9)])
        index = make_index(programs)
        alpha, threshold = rng.randint(0, 6), 0.6
        groups = index.cluster(alpha, threshold, "containment")

        ids = [p.program_id for p in programs if p.scoreable]
        linked = set()
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                pa = next(p for p in programs if p.program_id == a)
                pb = next(p for p in programs if p.program_id == b)
                if score_pair(pa, pb, alpha, "containment").value >= threshold:
                    linked.add((a, b))
        expected = bfs_components(ids, linked)
        assert [list(g.members) for g in groups] == expected


def test_cluster_in_small_blocks_matches_default_and_oracle(monkeypatch):
    # 7-cell blocks are one column wide and at most 7 rows tall, so the
    # suffix passes of rows with 8 or more fingerprints cut blocks on
    # both axes
    rng = random.Random(4048)
    for _ in range(10):
        programs = _random_programs(rng, 12)
        programs[1] = program("p001", list(programs[0].fingerprints))
        base = [rng.randrange(2**64) for _ in range(10)]
        for k in (4, 5, 9):
            flipped = [b ^ (1 << rng.randrange(64)) for b in base]
            programs[k] = program(f"p{k:03d}", flipped[: rng.randint(8, 10)])
        index = make_index(programs)
        assert max(len(p.fingerprints) for p in programs) > 7
        for mode in ("containment", "resemblance"):
            alpha, threshold = rng.randint(0, 6), 0.4
            default = index.cluster(alpha, threshold, mode)
            monkeypatch.setattr(similarity, "_CHUNK_CELLS", 7)
            small = index.cluster(alpha, threshold, mode)
            monkeypatch.undo()
            assert [(g.members, repr(g.mean_score)) for g in small] == [
                (g.members, repr(g.mean_score)) for g in default
            ]
            ids = [p.program_id for p in programs]
            score = {
                (a.program_id, b.program_id): score_pair(a, b, alpha, mode).value
                for i, a in enumerate(programs)
                for b in programs[i + 1 :]
            }
            linked = {pair for pair, value in score.items() if value >= threshold}
            assert [list(g.members) for g in small] == bfs_components(ids, linked)
            for group in small:
                scores = [
                    score[(a, b)] for i, a in enumerate(group.members) for b in group.members[i + 1 :]
                ]
                assert repr(group.mean_score) == repr(sum(scores) / len(scores))


def test_cluster_matches_bfs_oracle_on_chained_links():
    # programs drawn from a small pool of far-apart fingerprints link in
    # long chains and stars, in every order a pair scan meets them
    pool = [(2**64 - 1) // 255 * k for k in range(1, 9)]  # bytes 0x01..0x08, repeated
    rng = random.Random(77)
    for _ in range(40):
        programs = [
            program(f"p{i:03d}", rng.sample(pool, rng.randint(1, 3)))
            for i in range(rng.randint(2, 14))
        ]
        index = make_index(programs)
        groups = index.cluster(0, 0.5, "containment")
        ids = [p.program_id for p in programs]
        linked = {
            (a.program_id, b.program_id)
            for i, a in enumerate(programs)
            for b in programs[i + 1 :]
            if score_pair(a, b, 0, "containment").value >= 0.5
        }
        assert [list(g.members) for g in groups] == bfs_components(ids, linked)


def test_cluster_group_mean_score():
    a = program("a", [1, 2, 3])
    b = program("b", [1, 2, 3])
    c = program("c", [1, 2, 2**63])
    index = make_index([a, b, c])
    (group,) = index.cluster(alpha=0, threshold=0.6, mode="containment")
    assert list(group.members) == ["a", "b", "c"]
    pair_scores = [
        score_pair(a, b, 0, "containment").value,
        score_pair(a, c, 0, "containment").value,
        score_pair(b, c, 0, "containment").value,
    ]
    assert group.mean_score == pytest.approx(sum(pair_scores) / 3)


def test_cluster_mean_scores_match_an_unhinted_pair_loop(monkeypatch):
    # mean_score sums the pair scores in the same order as a plain loop
    # over sorted ids, so its repr (every float bit) is the same. Every
    # pair of scoreable records gets one `score_pair` call, looked up at
    # call time, with the lower id first (the benchmark tracer counts it)
    calls = []
    plain = similarity.score_pair

    def recording_score_pair(a, b, *args, **kwargs):
        calls.append((a.program_id, b.program_id))
        return plain(a, b, *args, **kwargs)

    monkeypatch.setattr(similarity, "score_pair", recording_score_pair)
    rng = random.Random(8)
    for round_ in range(20):
        programs = _random_programs(rng, 12)
        for k in (1, 2, 5):
            flipped = [b ^ (1 << rng.randrange(64)) for b in programs[0].fingerprints]
            programs[k] = program(f"p{k:03d}", flipped + [rng.randrange(2**64)])
        programs[7] = program("p007", [])
        if round_ >= 10:
            # a near twin's set held by three records apart in id order,
            # the first record's set again at the end, and an empty twin
            _share_sets(programs, [(1, 6), (1, 9), (0, 11), (7, 3)])
        index = make_index(programs)
        ids = sorted(p.program_id for p in programs if p.fingerprints)
        for mode in ("containment", "resemblance"):
            calls.clear()
            groups = index.cluster(5, 0.3, mode)
            assert sorted(calls) == [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
            assert groups
            for group in groups:
                members = [index.records[pid] for pid in group.members]
                scores = [
                    score_pair(a, b, 5, mode).value
                    for i, a in enumerate(members)
                    for b in members[i + 1 :]
                ]
                assert repr(group.mean_score) == repr(sum(scores) / len(scores))


@pytest.mark.parametrize(
    "layout",
    [
        # one set held by three records, then single-record sets only
        "AbAcAd",
        # multi-record sets before and after a single-record set
        "AbACcCEdE",
    ],
)
def test_cluster_hands_each_pair_its_minimum_in_every_set_layout(monkeypatch, layout):
    # the records' sets in id order, one letter a record: records with
    # the same letter share a set, and sets are first seen in that order
    calls = []
    plain = similarity.score_pair

    def recording_score_pair(a, b, alpha, mode, min_distance=None):
        calls.append((a.program_id, b.program_id, min_distance))
        return plain(a, b, alpha, mode, min_distance=min_distance)

    monkeypatch.setattr(similarity, "score_pair", recording_score_pair)
    rng = random.Random(layout)
    for _ in range(8):
        base = [rng.randrange(2**64) for _ in range(5)]
        sets = {}
        for letter in layout:
            if letter not in sets:
                # base values 0..8 bits off, and up to two strangers
                sets[letter] = [
                    b ^ sum(1 << k for k in rng.sample(range(64), rng.randint(0, 8)))
                    for b in base
                ] + [rng.randrange(2**64) for _ in range(rng.randint(0, 2))]
        programs = [program(f"p{i:02d}", sets[letter]) for i, letter in enumerate(layout)]
        index = make_index(programs)
        ids = [p.program_id for p in programs]
        for mode in ("containment", "resemblance"):
            calls.clear()
            groups = index.cluster(5, 0.5, mode)
            # every pair once, lower id first, hinted with its true minimum
            assert sorted(calls) == [
                (a.program_id, b.program_id, int(distance_matrix(a, b).min()))
                for i, a in enumerate(programs)
                for b in programs[i + 1 :]
            ]
            score = {
                (a.program_id, b.program_id): plain(a, b, 5, mode).value
                for i, a in enumerate(programs)
                for b in programs[i + 1 :]
            }
            linked = {pair for pair, value in score.items() if value >= 0.5}
            assert [list(g.members) for g in groups] == bfs_components(ids, linked)
            for group in groups:
                scores = [
                    score[(a, b)] for i, a in enumerate(group.members) for b in group.members[i + 1 :]
                ]
                assert repr(group.mean_score) == repr(sum(scores) / len(scores))


def test_cluster_makes_one_pass_per_set_over_the_sets_after_it(monkeypatch):
    # records that share a set share its pass: one pass per distinct set,
    # in first-seen id order, its fingerprints against the later sets
    passes = []
    plain = index_store.record_minima

    def record_minima(rows, flat, starts):
        passes.append((rows.tolist(), flat.tolist(), starts.tolist()))
        return plain(rows, flat, starts)

    monkeypatch.setattr(index_store, "record_minima", record_minima)
    rng = random.Random(34)
    programs = _random_programs(rng, 12)
    programs[3] = program("p003", [])
    _share_sets(programs, [(1, 4), (1, 10), (2, 7), (0, 11)])
    index = make_index(programs)
    index.cluster(5, 0.5, "containment")
    sets = list(dict.fromkeys(p.fingerprints for p in programs if p.fingerprints))
    assert len(sets) == 7
    expected = []
    for k, rows in enumerate(sets):
        later = sets[k + 1 :]
        starts = np.cumsum([0, *map(len, later)])[:-1].tolist()
        expected.append((list(rows), [b for s in later for b in s], starts))
    assert passes == expected


def test_cluster_set_table_stays_small():
    # 600 distinct sets: the S x S set table is 360 KB of uint8, where a
    # table of Python ints would take about 2.9 MB
    rng = random.Random(600)
    programs = [
        program(f"p{i:03d}", [rng.randrange(2**64) for _ in range(4)]) for i in range(600)
    ]
    index = make_index(programs)
    # the first scan builds the layout, outside the measured call
    index.query(programs[0], 5, 0.5)
    tracemalloc.start()
    try:
        assert index.cluster(5, 0.5) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cluster_mean_score_counts_pairs_that_score_zero():
    # a chain a - b - c whose ends share nothing within alpha: the a, c
    # pair scores 0 and still counts in the group's mean
    a = program("a", [1, 2])
    b = program("b", [1, 2, 2**40, 2**41])
    c = program("c", [2**40, 2**41])
    index = make_index([a, b, c])
    for mode in ("containment", "resemblance"):
        (group,) = index.cluster(alpha=0, threshold=0.5, mode=mode)
        assert group.members == ("a", "b", "c")
        scores = [score_pair(x, y, 0, mode).value for x, y in ((a, b), (a, c), (b, c))]
        assert scores[1] == 0.0
        assert repr(group.mean_score) == repr(sum(scores) / 3)


def test_cluster_no_groups_when_nothing_matches():
    index = make_index([program("a", [0]), program("b", [2**64 - 1])])
    assert index.cluster(0, 0.5, "containment") == []


# -- save / load -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ConfigStamp(alpha=99), "alpha must be in 0..64, got 99"),
        (lambda: ConfigStamp(min_blocks=0), "min_blocks must be >= 1, got 0"),
        (
            lambda: IndexRecord("b", (2, 1), 2, False, "b.mp", STAMP),
            "fingerprints must be strictly ascending: 0000000000000001 after 0000000000000002",
        ),
        (
            lambda: IndexRecord("b", (1, 3, 3), 3, False, "b.mp", STAMP),
            "fingerprints must be strictly ascending: 0000000000000003 after 0000000000000003",
        ),
        (
            lambda: IndexRecord("b", (1, 2), 1, False, "b.mp", STAMP),
            "path_count 1 is below the record's 2 fingerprints",
        ),
        (
            lambda: ProgramFingerprint("p", (-1, 5), 2, False),
            "fingerprint must be in 0..2**64-1, got -1",
        ),
        (
            lambda: ProgramFingerprint("p", (1, 2**64), 2, False),
            "fingerprint must be in 0..2**64-1, got 18446744073709551616",
        ),
    ],
)
def test_stamps_and_records_refuse_what_load_would(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message


# draws that stray just past each rule a stamp or record must meet
_FINGERPRINT_VALUES = st.one_of(
    st.integers(-2, 2**64 + 1), st.sampled_from([-1, 0, 1, 2**63, 2**64 - 1, 2**64])
)


@st.composite
def built_indexes(draw):
    """An index holding whatever stamp and records the constructors
    accept from draws on both sides of their rules."""
    try:
        stamp = ConfigStamp(alpha=draw(st.integers(-1, 65)), min_blocks=draw(st.integers(0, 3)))
    except ValueError:
        assume(False)
    index = FingerprintIndex(config_stamp=stamp)
    fingerprints = st.one_of(
        st.lists(_FINGERPRINT_VALUES, max_size=4).map(tuple),
        st.sets(_FINGERPRINT_VALUES, max_size=4).map(sorted).map(tuple),
    )
    for program_id in draw(st.lists(st.text(max_size=3), max_size=5, unique=True)):
        try:
            record = IndexRecord(
                program_id,
                draw(fingerprints),
                draw(st.integers(-1, 6)),
                draw(st.booleans()),
                draw(st.text(max_size=3)),
                stamp,
            )
        except ValueError:
            continue
        index.add_program(record)
    return index


@settings(max_examples=150, deadline=None)
@given(index=built_indexes())
def test_whatever_the_constructors_accept_round_trips(tmp_path_factory, index):
    path = tmp_path_factory.mktemp("round_trip") / "built.cdx"
    index.save(path)
    assert load_index(path) == index


def test_an_index_equals_its_saved_copy_after_a_query(tmp_path):
    index = make_index([program("a", [1, 2]), program("b", [1]), program("c", [9])])
    path = tmp_path / "eq.cdx"
    index.save(path)
    loaded = load_index(path)
    assert loaded.query(program("probe", [1]), 5, 0.5)
    assert loaded.last_query_scorings == 3
    assert loaded == index


def test_round_trip_preserves_everything(tmp_path):
    rng = random.Random(55)
    programs = _random_programs(rng, 20)
    programs.append(program("trunc", [7, 8], truncated=True))
    index = make_index(programs)
    path = tmp_path / "programs.cdx"
    index.save(path)
    loaded = load_index(path)

    assert loaded.config_stamp == index.config_stamp
    assert list(loaded.records) == list(index.records)
    for pid, record in index.records.items():
        other = loaded.records[pid]
        assert other.fingerprints == record.fingerprints
        assert other.path_count == record.path_count
        assert other.truncated == record.truncated
        assert other.source_path == record.source_path

    # byte-identical on re-save
    path2 = tmp_path / "again.cdx"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_format_header(tmp_path):
    index = make_index([program("a", [3])])
    path = tmp_path / "one.cdx"
    index.save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["format"] == "cfgprint-index"
    assert header["version"] == 1
    assert header["hash"] == "fnv1a64"
    assert header["normalization"] == "miniproc-1"
    assert {"r", "alpha", "min_blocks"} <= set(header)
    record = json.loads(lines[1])
    assert record["fingerprints"] == [format(3, "016x")]


def test_load_reports_line_numbers(tmp_path):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "bad.cdx"
    index.save(path)
    lines = path.read_text().splitlines()
    lines[2] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError, match="line 3"):
        load_index(path)


# the interpreter's limit on the digits of an integer it parses; 0 where
# it has none, as before 3.11 and in some 3.10 patch releases
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _without_r(lines):
    header = json.loads(lines[0])
    del header["r"]
    return [json.dumps(header), *lines[1:]]


def _fingerprints_of_b(hexes):
    """An edit giving record `b` (line 3) the fingerprint list `hexes`."""

    def edit(lines):
        record = json.loads(lines[2])
        record["fingerprints"] = hexes
        return [*lines[:2], json.dumps(record, sort_keys=True)]

    return edit


def _hex_error(got):
    return re.escape(f"fingerprint must be 16 lower-case hex digits, got {got!r}") + "$"


def _order_error(after, before):
    return re.escape(f"fingerprints must be strictly ascending: {after} after {before}") + "$"


@pytest.mark.parametrize(
    "edit, line, message",
    [
        (lambda lines: [], 1, "empty index file"),
        (
            lambda lines: ["[" * 200_000 + "]" * 200_000, *lines[1:]],
            1,
            r"malformed JSON \(maximum recursion depth exceeded",
        ),
        (
            lambda lines: [*lines[:2], '{"a": ' * 100_000 + "1" + "}" * 100_000],
            3,
            r"malformed JSON \(maximum recursion depth exceeded",
        ),
        pytest.param(
            lambda lines: [
                lines[0],
                lines[1],
                lines[2].replace('"path_count": 1', '"path_count": ' + "9" * (_INT_DIGITS + 1)),
            ],
            3,
            r"malformed JSON \(Exceeds the limit",
            marks=pytest.mark.skipif(not _INT_DIGITS, reason="no integer digit limit"),
        ),
        (lambda lines: ["[1, 2]", *lines[1:]], 1, "expected a JSON object"),
        (lambda lines: [lines[0], "3", lines[2]], 2, "expected a JSON object"),
        (_without_r, 1, "header missing key 'r'"),
        # lengths that sum to 16 per entry but differ, entry by entry
        (_fingerprints_of_b(["0123", "456789abcdef0123456789abcdef"]), 3, _hex_error("0123")),
        (_fingerprints_of_b(["0000000000000001", "00000000000000AB"]), 3,
         _hex_error("00000000000000AB")),
        (_fingerprints_of_b(["0x00000000000001"]), 3, _hex_error("0x00000000000001")),
        (_fingerprints_of_b(["000000000000001"]), 3, _hex_error("000000000000001")),
        (_fingerprints_of_b(["00000000000000001"]), 3, _hex_error("00000000000000001")),
        (_fingerprints_of_b(["0000000000000001", 2]), 3, _hex_error(2)),
        (_fingerprints_of_b(["0000000000000001", "0000000000000001"]), 3,
         _order_error("0000000000000001", "0000000000000001")),
        # the high bit set: the order is that of unsigned 64-bit values
        (_fingerprints_of_b(["0000000000000001", "ffffffffffffffff", "8000000000000000"]), 3,
         _order_error("8000000000000000", "ffffffffffffffff")),
    ],
    ids=[
        "empty-file",
        "deep-array-header",
        "deep-object-record",
        "long-integer",
        "array-header",
        "number-record",
        "header-without-r",
        "uneven-hex-lengths",
        "upper-case-hex",
        "0x-prefix",
        "15-digits",
        "17-digits",
        "non-string-entry",
        "equal-adjacent",
        "descending",
    ],
)
def test_load_names_the_bad_line(tmp_path, edit, line, message):
    path = tmp_path / "bad.cdx"
    make_index([program("a", [1]), program("b", [2])]).save(path)
    path.write_text("".join(f"{text}\n" for text in edit(path.read_text().splitlines())))
    with pytest.raises(IndexFormatError, match=f"^{re.escape(str(path))}: line {line}: {message}"):
        load_index(path)


def test_load_reads_fingerprint_lists_as_ascending_ints(tmp_path):
    # an empty list is an unscoreable record; the rest come back as the
    # plain ints `save` wrote, the high bit included
    bits = [0, 1, 2**63 - 1, 2**63, 2**64 - 1]
    path = tmp_path / "fp.cdx"
    make_index([program("empty", []), program("wide", bits)]).save(path)
    loaded = load_index(path)
    assert loaded.records["empty"].fingerprints == ()
    assert not loaded.records["empty"].scoreable
    wide = loaded.records["wide"].fingerprints
    assert wide == tuple(bits) and all(type(b) is int for b in wide)
    assert json.loads(path.read_text().splitlines()[2])["fingerprints"] == [
        format(b, "016x") for b in bits
    ]


def test_load_rejects_missing_keys(tmp_path):
    index = make_index([program("a", [1])])
    path = tmp_path / "bad.cdx"
    index.save(path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["fingerprints"]
    lines[1] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IndexFormatError, match="line 2"):
        load_index(path)


def test_load_rejects_wrong_format_marker(tmp_path):
    path = tmp_path / "alien.cdx"
    path.write_text('{"format": "somethingelse", "version": 1}\n')
    with pytest.raises(IndexCompatibilityError):
        load_index(path)


def test_load_rejects_wrong_hash_or_normalization(tmp_path):
    index = make_index([program("a", [1])])
    path = tmp_path / "h.cdx"
    index.save(path)
    lines = path.read_text().splitlines()
    # a header field's type counts as much as its value: true and 1.0 equal 1
    # in Python but are not the integer version a writer puts there
    for key, value, expected in [
        ("hash", "murmur64", "'fnv1a64'"),
        ("normalization", "miniproc-2", "'miniproc-1'"),
        ("version", True, "1"),
        ("version", 1.0, "1"),
        ("format", None, "'cfgprint-index'"),
    ]:
        header = {**json.loads(lines[0]), key: value}
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        message = f"{key} {value!r} \\(expected {expected}\\)"
        with pytest.raises(IndexCompatibilityError, match=message):
            load_index(path)


def test_load_commits_nothing_on_failure(tmp_path):
    # a bad line halfway through must not leave a half-loaded index around;
    # load either returns a complete index or raises
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "half.cdx"
    index.save(path)
    content = path.read_text().splitlines()
    content.insert(2, "garbage")
    path.write_text("\n".join(content) + "\n")
    with pytest.raises(IndexFormatError):
        load_index(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_index(tmp_path / "absent.cdx")


def test_empty_index_round_trip(tmp_path):
    index = make_index([])
    path = tmp_path / "empty.cdx"
    index.save(path)
    loaded = load_index(path)
    assert loaded.records == {}
    assert loaded.config_stamp == STAMP


def _rewrite_records(path, edit):
    lines = path.read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    edit(records)
    body = [json.dumps(r, sort_keys=True) for r in records]
    path.write_text("\n".join([lines[0]] + body) + "\n")


def test_load_rejects_duplicate_program_id(tmp_path):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "dup.cdx"
    index.save(path)
    _rewrite_records(path, lambda records: records.append(dict(records[0])))
    with pytest.raises(IndexFormatError, match="line 4: duplicate program_id 'a'"):
        load_index(path)


@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_load_rejects_non_boolean_truncated(tmp_path, value):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "trunc.cdx"
    index.save(path)

    def edit(records):
        records[1]["truncated"] = value

    _rewrite_records(path, edit)
    with pytest.raises(IndexFormatError, match="line 3: truncated"):
        load_index(path)


@pytest.mark.parametrize("path_count", [-5, -1, 0, 1])
def test_load_rejects_path_count_below_fingerprints(tmp_path, path_count):
    # two distinct fingerprints need at least two paths
    index = make_index([program("a", [1]), program("b", [2, 3])])
    path = tmp_path / "count.cdx"
    index.save(path)

    def edit(records):
        records[1]["path_count"] = path_count

    _rewrite_records(path, edit)
    with pytest.raises(
        IndexFormatError, match=f"line 3: path_count {path_count} is below the record's 2"
    ):
        load_index(path)


def test_load_accepts_path_count_above_fingerprints(tmp_path):
    # duplicate paths share a fingerprint, so the count may exceed it
    index = make_index([program("a", [1, 1, 1]), program("empty", [])])
    path = tmp_path / "count.cdx"
    index.save(path)
    loaded = load_index(path)
    assert loaded.records["a"].path_count == 3
    assert loaded.records["empty"].path_count == 0


@pytest.mark.parametrize("value", [None, [3], "3", 3.0, True, float("inf")])
def test_load_rejects_non_integer_path_count(tmp_path, value):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "count.cdx"
    index.save(path)

    def edit(records):
        records[1]["path_count"] = value

    _rewrite_records(path, edit)
    with pytest.raises(IndexFormatError, match="line 3: path_count must be an integer"):
        load_index(path)


@pytest.mark.parametrize("key", ["program_id", "source_path"])
@pytest.mark.parametrize("value", [None, 1, True, ["a"], {"a": 1}])
def test_load_rejects_non_string_id_or_path(tmp_path, key, value):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "ids.cdx"
    index.save(path)

    def edit(records):
        records[1][key] = value

    _rewrite_records(path, edit)
    with pytest.raises(IndexFormatError, match=f"line 3: {key} must be a string"):
        load_index(path)


@pytest.mark.parametrize("key", ["r", "alpha", "min_blocks"])
@pytest.mark.parametrize("value", [None, "5", 5.5, False, float("inf")])
def test_load_rejects_non_integer_header_values(tmp_path, key, value):
    path = tmp_path / "header.cdx"
    make_index([program("a", [1])]).save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IndexFormatError, match=f"line 1: {key} must be an integer"):
        load_index(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("alpha", 99, "alpha must be in 0..64, got 99"),
        ("alpha", 65, "alpha must be in 0..64, got 65"),
        ("alpha", -1, "alpha must be in 0..64, got -1"),
        ("min_blocks", 0, "min_blocks must be >= 1, got 0"),
        ("min_blocks", -3, "min_blocks must be >= 1, got -3"),
    ],
    ids=["alpha-99", "alpha-65", "alpha-negative", "min_blocks-0", "min_blocks-negative"],
)
def test_load_rejects_impossible_header_stamps(tmp_path, key, value, message):
    path = tmp_path / "stamp.cdx"
    make_index([program("a", [1])]).save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header[key] = value
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IndexFormatError, match=f"line 1: {message}$"):
        load_index(path)


def test_load_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "bad.cdx"
    path.write_bytes(b"\xff\xfe{}\n")
    with pytest.raises(IndexFormatError, match=f"^{re.escape(str(path))}: not UTF-8 text: "):
        load_index(path)


@pytest.mark.parametrize("r", [32, 63, 65])
def test_load_rejects_r_other_than_64(tmp_path, r):
    path = tmp_path / "width.cdx"
    make_index([program("a", [1])]).save(path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    assert header["r"] == 64
    header["r"] = r
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(IndexCompatibilityError, match=f"r={r} \\(expected 64\\)"):
        load_index(path)


def test_load_rejects_fingerprint_wider_than_r(tmp_path):
    path = tmp_path / "wide.cdx"
    make_index([program("a", [7])]).save(path)

    def edit(records):
        records[0]["fingerprints"] = ["0000000000000007", "10000000000000000"]

    _rewrite_records(path, edit)
    with pytest.raises(IndexFormatError, match="line 2: .*16 lower-case hex digits"):
        load_index(path)


@pytest.mark.parametrize(
    "fingerprints, message",
    [
        (["-00000000000000f"], "16 lower-case hex digits"),
        (["0x000000000000ff"], "16 lower-case hex digits"),
        ([123], "16 lower-case hex digits"),
        (None, "fingerprints must be a list"),
        ("0000000000000001", "fingerprints must be a list"),
        (["0000000000000002", "0000000000000001"], "strictly ascending"),
        (["0000000000000001", "0000000000000001"], "strictly ascending"),
    ],
)
def test_load_rejects_bad_fingerprint_lists(tmp_path, fingerprints, message):
    index = make_index([program("a", [1]), program("b", [2])])
    path = tmp_path / "fp.cdx"
    index.save(path)

    def edit(records):
        records[1]["fingerprints"] = fingerprints

    _rewrite_records(path, edit)
    with pytest.raises(IndexFormatError, match=f"line 3: .*{message}"):
        load_index(path)
