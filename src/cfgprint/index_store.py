"""Fingerprint index: add, scan, cluster, persist.

On disk an index is JSON Lines with extension `.cdx`: the first line is
a header stamping the fingerprint configuration, each following line is
one program record with the fields `_RECORD` lists. Records append
cleanly and the whole file reloads byte-for-byte reproducibly. A record
is a ProgramFingerprint (the ascending tuple of ints parsed from the
hex) plus its source path and stamp, and the scorer reads it directly.
Queries are a linear scan: every scoreable record is scored against the
probe, so cost grows with record count and nothing else. The index
keeps one scan layout: its scoreable records in program-id order, each
record's position among the distinct fingerprint sets, and those sets'
fingerprints as one flat uint64 array with each set's start offset, in
first-seen order. Type-1 and type-2 clones normalize to the same set,
so records that share a set share one run. The layout is built by the
first `query` or `cluster` and tagged with the tuple of records it came
from; a later call rebuilds it whenever the records differ from that
tag, so `add_program`, `load_index` and direct writes to `records` need
no hook. `query` takes the probe's smallest distance to every distinct
set in one `record_minima` pass over that array, and each record reads
its set's. `cluster` runs the pass once per distinct set over the sets
after it and keeps the minima in one S x S uint8 table of set
distances (S distinct sets, so S**2 bytes), zero on the diagonal; each
record pair i < j in id order is hinted with the table's entry for
their two sets. Each per-pair call gets its minimum as `min_distance`,
so a pair with nothing within alpha is scored zero without a distance
matrix. `query` takes its pass through `shared`, so inside a
`shared_work` scope (see `fingerprint`) it reuses the pass for the
same probe object and layout. `cluster` joins the linked pairs by
union-find.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .config import (
    DEFAULT_MODE,
    FINGERPRINT_BITS,
    HASH_NAME,
    INDEX_FORMAT,
    INDEX_FORMAT_VERSION,
    NORMALIZATION_VERSION,
    ConfigStamp,
    RunConfig,
    check_mode,
)
from .fingerprint import ProgramFingerprint, from_hex, shared, to_hex
from .similarity import (
    SimilarityScore,
    _unscoreable,
    classify,
    fingerprint_columns,
    pair_report,
    record_minima,
)


# the header fields a reader must match in type and value: `save` writes
# them and `load_index` checks them
_HEADER = {
    "format": INDEX_FORMAT,
    "version": INDEX_FORMAT_VERSION,
    "hash": HASH_NAME,
    "normalization": NORMALIZATION_VERSION,
}


# the fields of one record line and their JSON types, in the order
# `load_index` checks them; `save` writes the same keys
_RECORD = {
    "truncated": bool,
    "program_id": str,
    "source_path": str,
    "fingerprints": list,
    "path_count": int,
}

_KIND_NAMES = {int: "an integer", str: "a string", bool: "true or false", list: "a list"}


class IndexFormatError(ValueError):
    """Unparseable index file; message carries the offending line."""


class IndexCompatibilityError(ValueError):
    """Index built under a configuration this runtime cannot serve."""


@dataclass(frozen=True)
class IndexRecord(ProgramFingerprint):
    """One indexed program: its fingerprints plus where they came from
    and the stamp they were made under."""

    source_path: str
    config_stamp: ConfigStamp


def record_from_program(
    program: ProgramFingerprint, source_path: str, stamp: ConfigStamp
) -> IndexRecord:
    return IndexRecord(
        program_id=program.program_id,
        source_path=source_path,
        fingerprints=program.fingerprints,
        path_count=program.path_count,
        truncated=program.truncated,
        config_stamp=stamp,
    )


@dataclass(frozen=True)
class CloneCandidate:
    program_id: str
    score: SimilarityScore
    grade: str
    matched_path_evidence: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class CloneGroup:
    members: tuple[str, ...]
    mean_score: float


class _Columns(NamedTuple):
    """What `query` and `cluster` scan, tagged with the tuple of every
    record it was built from: the scoreable records in program-id
    order, each record's position among the distinct fingerprint sets,
    and those sets' fingerprints end to end in first-seen order
    (`fingerprint_columns`), so records with equal sets share one run."""

    tag: tuple[IndexRecord, ...]
    records: list[IndexRecord]
    set_of: list[int]
    flat: np.ndarray
    starts: np.ndarray


def _record_minima(probe: ProgramFingerprint, columns: _Columns) -> list[int]:
    """The probe's smallest distance to each of the columns' records,
    from one `record_minima` pass over their distinct sets."""
    by_set = record_minima(probe.bits_array, columns.flat, columns.starts)
    return [by_set[s] for s in columns.set_of]


@dataclass
class FingerprintIndex:
    config_stamp: ConfigStamp
    records: dict[str, IndexRecord] = field(default_factory=dict)
    last_query_scorings: int = 0
    _columns: _Columns | None = field(default=None, init=False, repr=False, compare=False)

    def _scan_columns(self) -> _Columns:
        """The columnar layout of the current records, rebuilt whenever
        the records differ from the ones it was built from, so
        `add_program`, `load_index` and direct writes to `records` need
        no hook."""
        tag = tuple(self.records.values())
        if self._columns is None or self._columns.tag != tag:
            records = sorted((r for r in tag if r.fingerprints), key=attrgetter("program_id"))
            position: dict[tuple[int, ...], int] = {}
            firsts: list[IndexRecord] = []
            set_of = []
            for record in records:
                s = position.setdefault(record.fingerprints, len(firsts))
                if s == len(firsts):
                    firsts.append(record)
                set_of.append(s)
            self._columns = _Columns(tag, records, set_of, *fingerprint_columns(firsts))
        return self._columns

    def add_program(self, record: IndexRecord) -> None:
        """Insert by program_id. The record must carry the index's
        exact configuration stamp; ids are unique."""
        if record.config_stamp != self.config_stamp:
            raise IndexCompatibilityError(
                "incompatible index configuration: "
                f"record stamp {record.config_stamp} vs index stamp {self.config_stamp}"
            )
        if record.program_id in self.records:
            raise ValueError(f"program {record.program_id!r} already indexed")
        self.records[record.program_id] = record

    def query(
        self,
        probe: ProgramFingerprint,
        alpha: int,
        threshold: float,
        mode: str = DEFAULT_MODE,
    ) -> list[CloneCandidate]:
        """Scan every scoreable record, keep scores >= threshold, rank
        by score descending then program_id ascending. A record with
        the probe's own id is skipped, as are unscoreable records.

        An unscoreable probe, then an unknown mode, raises ValueError
        before the scan. One `record_minima` pass over the index's
        distinct fingerprint sets gives the probe's smallest distance to
        each, and each scanned record is then scored by one
        `pair_report` call that is handed its set's minimum. Inside a
        `shared_work` scope the pass already run for this same probe
        object over this same layout is used instead.
        The benchmark tracer counts the per-record calls; once it counts
        work instead (ROADMAP item 1), records past alpha need no call
        at all and the `min_distance` parameter can go."""
        if not probe.scoreable:
            raise _unscoreable(probe)
        check_mode(mode)
        columns = self._scan_columns()
        nearest = shared(_record_minima, probe, columns)
        candidates: list[CloneCandidate] = []
        scanned = 0
        for record, d in zip(columns.records, nearest):
            if record.program_id == probe.program_id:
                continue
            scanned += 1
            report = pair_report(probe, record, alpha, mode, min_distance=d)
            if report.score.value >= threshold:
                candidates.append(
                    CloneCandidate(
                        program_id=record.program_id,
                        score=report.score,
                        grade=classify(report.min_distance),
                        matched_path_evidence=report.evidence,
                    )
                )
        self.last_query_scorings = scanned
        candidates.sort(key=lambda c: (-c.score.value, c.program_id))
        return candidates

    def cluster(
        self, alpha: int, threshold: float, mode: str = DEFAULT_MODE
    ) -> list[CloneGroup]:
        """Single-linkage clone groups: connected components of the
        "scores >= threshold" graph over scoreable records. Groups are
        ordered by their smallest member id; singletons are omitted.
        mean_score averages all intra-group pairwise scores. It reads
        the layout `query` scans. Each distinct set's smallest distances
        to the sets after it come from one `record_minima` pass over the
        suffix of that layout, kept both ways in the S x S uint8 table
        `near` (S**2 bytes). Each record pair i < j in id order is
        scored by one `score_pair` call handed `near[set_i, set_j]` as
        in `query`. An unknown mode raises ValueError before the scan."""
        from .similarity import score_pair

        check_mode(mode)
        columns = self._scan_columns()
        programs, flat, starts = columns.records, columns.flat, columns.starts
        set_of = np.asarray(columns.set_of, dtype=np.intp)
        n = len(programs)
        bounds = [*starts.tolist(), len(flat)]
        # near[s, t]: the smallest distance between sets s and t, from the
        # pass of the lower of the two; 0 on the diagonal
        near = np.zeros((len(starts), len(starts)), dtype=np.uint8)
        for s in range(len(starts)):
            lo = bounds[s + 1]
            minima = record_minima(flat[bounds[s] : lo], flat[lo:], starts[s + 1 :] - lo)
            near[s, s + 1 :] = near[s + 1 :, s] = minima
        # union-find over the linked pairs; each root is its component's
        # smallest index
        root = list(range(n))

        def find(i: int) -> int:
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        # nonzero scores only: most pairs score zero, and adding the
        # zeros back in `mean_score` is exact
        score_of: dict[tuple[int, int], float] = {}
        for i, program in enumerate(programs):
            row = near[set_of[i], set_of[i + 1 :]].tolist()
            for j, d in enumerate(row, i + 1):
                value = score_pair(program, programs[j], alpha, mode, min_distance=d).value
                if value:
                    score_of[(i, j)] = value
                if value >= threshold:
                    ri, rj = find(i), find(j)
                    root[max(ri, rj)] = min(ri, rj)
        # members ascend, and groups come in order of their smallest member
        members_of: dict[int, list[int]] = {}
        for i in range(n):
            members_of.setdefault(find(i), []).append(i)
        groups = []
        for member_idx in members_of.values():
            if len(member_idx) < 2:
                continue
            pair_scores = [
                score_of.get((a, b), 0.0)
                for k, a in enumerate(member_idx)
                for b in member_idx[k + 1 :]
            ]
            groups.append(
                CloneGroup(
                    members=tuple(programs[i].program_id for i in member_idx),
                    mean_score=sum(pair_scores) / len(pair_scores),
                )
            )
        return groups

    def save(self, path: str | Path) -> None:
        """Write header + records as JSON Lines. Deterministic bytes:
        sorted keys, records in insertion order."""
        header = {
            **_HEADER,
            "r": FINGERPRINT_BITS,
            "alpha": self.config_stamp.alpha,
            "min_blocks": self.config_stamp.min_blocks,
        }
        lines = [json.dumps(header, sort_keys=True)]
        for record in self.records.values():
            row = {key: getattr(record, key) for key in _RECORD}
            row["fingerprints"] = [to_hex(b) for b in record.fingerprints]
            lines.append(json.dumps(row, sort_keys=True))
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _field(row: dict, key: str, kind: type):
    """A JSON field of exactly type `kind`; any other type (a bool for
    an integer, a float, ...) is a format error, not a conversion."""
    value = row[key]
    if type(value) is not kind:
        raise ValueError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")
    return value


def _parse_fingerprints(value: list) -> tuple[int, ...]:
    """A record's fingerprint list: 16-digit hex strings, strictly
    ascending (what `save` writes and the scorer relies on)."""
    bits = tuple(from_hex(text) for text in value)
    for before, after in zip(bits, bits[1:]):
        if after <= before:
            raise ValueError(
                f"fingerprints must be strictly ascending: {to_hex(after)} after {to_hex(before)}"
            )
    return bits


def load_index(path: str | Path) -> FingerprintIndex:
    """Parse a .cdx file fully before returning. A file that is not
    UTF-8 raises IndexFormatError naming the file; a malformed or
    truncated file (JSON nested too deeply or holding an integer too
    long to convert included), or a header stamp outside the ranges
    `RunConfig.validate` allows, raises IndexFormatError naming the bad
    line; an unsupported configuration raises IndexCompatibilityError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IndexFormatError(f"{path}: not UTF-8 text: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise IndexFormatError(f"{path}: line 1: empty index file")

    def parse_line(i: int) -> dict:
        try:
            value = json.loads(lines[i])
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError gives its bare message; nesting too deep
            # and an integer past the interpreter's digit limit give theirs
            reason = getattr(exc, "msg", exc)
            raise IndexFormatError(f"{path}: line {i + 1}: malformed JSON ({reason})") from exc
        if not isinstance(value, dict):
            raise IndexFormatError(f"{path}: line {i + 1}: expected a JSON object")
        return value

    header = parse_line(0)
    for key, expected in _HEADER.items():
        value = header.get(key)
        if type(value) is not type(expected) or value != expected:
            raise IndexCompatibilityError(
                f"incompatible index configuration: {key} {value!r} (expected {expected!r})"
            )
    try:
        r = _field(header, "r", int)
        stamp = ConfigStamp(
            alpha=_field(header, "alpha", int),
            min_blocks=_field(header, "min_blocks", int),
        )
        RunConfig(alpha=stamp.alpha, min_blocks=stamp.min_blocks).validate()
    except KeyError as exc:
        raise IndexFormatError(f"{path}: line 1: header missing key {exc}") from exc
    except ValueError as exc:
        raise IndexFormatError(f"{path}: line 1: {exc}") from exc
    if r != FINGERPRINT_BITS:
        raise IndexCompatibilityError(
            f"incompatible index configuration: r={r} (expected {FINGERPRINT_BITS})"
        )

    index = FingerprintIndex(config_stamp=stamp)
    for i in range(1, len(lines)):
        row = parse_line(i)
        try:
            truncated, program_id, source_path, hexes, path_count = [
                _field(row, key, kind) for key, kind in _RECORD.items()
            ]
            record = IndexRecord(
                program_id=program_id,
                source_path=source_path,
                fingerprints=_parse_fingerprints(hexes),
                path_count=path_count,
                truncated=truncated,
                config_stamp=stamp,
            )
            # each distinct fingerprint comes from at least one path
            if record.path_count < len(record.fingerprints):
                raise ValueError(
                    f"path_count {record.path_count} is below the record's "
                    f"{len(record.fingerprints)} fingerprints"
                )
        except KeyError as exc:
            raise IndexFormatError(f"{path}: line {i + 1}: record missing key {exc}") from exc
        except ValueError as exc:
            raise IndexFormatError(f"{path}: line {i + 1}: {exc}") from exc
        if record.program_id in index.records:
            raise IndexFormatError(
                f"{path}: line {i + 1}: duplicate program_id {record.program_id!r}"
            )
        index.records[record.program_id] = record
    return index
