"""Path fingerprints: per-statement hashing folded into SimHash bits.

Each normalized statement text is hashed to 64 bits with FNV-1a. A
path's fingerprint is the SimHash of its statement multiset: for every
bit position, count +1 when a statement hash has the bit set and -1
when it does not, then emit 1 where the tally is positive. Paths that
share most statements therefore land within a few bits of each other,
and the distance between two fingerprints is a plain Hamming distance.

A bit's tally is positive exactly when more than half of the path's
statements have the bit set, and both counts are sums, so a path's
counts are the sums of its blocks' counts. `fingerprint_program` uses
this: it hashes each distinct statement text once, counts per block
how many of its statements set each bit (and how many it has), and
gets every path's counts by multiplying the path-by-block visit counts
with those rows. The counts and rows are float64, so the product runs
in BLAS; every cell is an integer sum far below 2**53, so float64 holds
it exactly. `fingerprint_path` and `simhash_bits` compute the same bits
one path at a time and are kept as the reference.

"Once" means once per program, or once per `shared_work` scope.

A program's fingerprints are plain ints: the ascending tuple of its
distinct path values, the same tuple an index record stores and the
scorer reads (as `bits_array`).
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .cfg_builder import ControlFlowGraph
from .config import FINGERPRINT_BITS

T = TypeVar("T")

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def simhash_bits(hashes: Iterable[int]) -> int:
    """Majority vote per bit over a multiset of 64-bit hashes.

    Bit i of the result is 1 iff strictly more inputs have bit i set
    than clear (ties produce 0). Order-independent by construction.
    """
    counts = [0] * FINGERPRINT_BITS
    n = 0
    for h in hashes:
        n += 1
        for i in range(FINGERPRINT_BITS):
            counts[i] += 1 if (h >> i) & 1 else -1
    if n == 0:
        raise ValueError("empty path")
    out = 0
    for i in range(FINGERPRINT_BITS):
        if counts[i] > 0:
            out |= 1 << i
    return out


@dataclass(frozen=True)
class ProgramFingerprint:
    """Deduplicated path fingerprints for one program.

    fingerprints are the distinct path fingerprint values, ascending.
    path_count is the pre-dedup count, truncated echoes the enumeration
    flag. `bits_array` is computed on first use and kept; it is not a
    field, so equality and hashing see only the fields above.
    """

    program_id: str
    fingerprints: tuple[int, ...]
    path_count: int
    truncated: bool

    @cached_property
    def bits_array(self) -> np.ndarray:
        """`fingerprints` as a read-only uint64 array, the form the
        scorer reads."""
        array = np.array(self.fingerprints, dtype=np.uint64)
        array.flags.writeable = False
        return array

    def __getstate__(self) -> dict:
        # pickle the fields only; a copy rebuilds the cached array (and
        # its read-only flag) on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def scoreable(self) -> bool:
        return len(self.fingerprints) > 0


def fingerprint_path(path_block_ids: Sequence[int], cfg: ControlFlowGraph) -> int:
    """SimHash over every statement in every real block on the path."""
    hashes = [
        fnv1a64(s.text.encode("utf-8"))
        for block_id in path_block_ids
        for s in cfg.blocks[block_id].statements
    ]
    if not hashes:
        raise ValueError("empty path")
    return simhash_bits(hashes)


def fingerprint_program(
    paths: Sequence,  # ExecutionPath
    cfg: ControlFlowGraph,
    program_id: str,
    truncated: bool = False,
) -> ProgramFingerprint:
    """Fingerprint each path and deduplicate by bits.

    Gives the bits `fingerprint_path` gives for each path; a path whose
    blocks hold no statements raises ValueError("empty path"). An empty
    path list (nothing survived filtering) produces an empty,
    unscoreable fingerprint rather than an error: the caller decides
    how to report it.
    """
    return ProgramFingerprint(
        program_id=program_id,
        fingerprints=tuple(sorted(set(_path_bits(paths, cfg)))) if paths else (),
        path_count=len(paths),
        truncated=truncated,
    )


# what one `shared_work` scope has built, keyed by the builder and the
# ids of its arguments; None outside any scope
_SHARED_WORK: ContextVar[dict[tuple, tuple] | None] = ContextVar("shared_work", default=None)


@contextmanager
def shared_work() -> Iterator[None]:
    """Within the scope, `shared` builds each piece of work once for
    every call that asks for it on the same argument objects, not once
    per call. The table is dropped when the scope ends, however it
    ends, so nothing built outlives the call that opened it; a scope
    opened inside another has a table of its own, and the outer table
    is back when it ends. It is held in a ContextVar, so other threads
    do not see it."""
    reset = _SHARED_WORK.set({})
    try:
        yield
    finally:
        _SHARED_WORK.reset(reset)


def shared(build: Callable[..., T], *args: object) -> T:
    """`build(*args)`: from the open scope's table, built there on first
    use for these very argument objects, or built for this call alone
    outside any scope. The entry holds the arguments, so the ids in its
    key stay theirs."""
    table = _SHARED_WORK.get()
    if table is None:
        return build(*args)
    key = (build, *map(id, args))
    entry = table.get(key)
    if entry is None:
        entry = table[key] = (build(*args), args)
    return entry[0]


# float64 cells in one per-chunk temporary (about 64 KB)
_CHUNK_CELLS = 8192


def _block_counts(cfg: ControlFlowGraph) -> np.ndarray:
    """One float64 row per block: column i < 64 counts the block's
    statements whose hash has bit i set, column 64 counts all its
    statements, and columns 65..71 are zero. Each distinct text is
    hashed once per statement-hash table, `shared(dict)`: one for the
    open scope, or else one for this program alone."""
    known: dict[str, int] = shared(dict)
    n_blocks = len(cfg.blocks)
    row_of: dict[str, int] = {}  # distinct text -> its row, in first-seen order
    cells: list[int] = []  # per statement: row * n_blocks + its block's position
    for position, block in enumerate(cfg.blocks):
        for statement in block.statements:
            text = statement.text
            row = row_of.get(text)
            if row is None:
                row = row_of[text] = len(row_of)
            cells.append(row * n_blocks + position)
    if not cells:
        return np.zeros((n_blocks, 72), dtype=np.float64)
    hashes: list[int] = []
    for text in row_of:
        h = known.get(text)
        if h is None:
            h = known[text] = fnv1a64(text.encode("utf-8"))
        hashes.append(h)
    # each hash as its 8 little-endian bytes and a ninth byte of 1:
    # unpacked, bit i of the hash lands in column i and the 1 in column 64
    raw = np.empty((len(hashes), 9), dtype=np.uint8)
    raw[:, :8] = np.array(hashes, dtype="<u8").view(np.uint8).reshape(-1, 8)
    raw[:, 8] = 1
    bits = np.unpackbits(raw, axis=1, bitorder="little").astype(np.float64)
    uses = np.bincount(cells, minlength=len(hashes) * n_blocks)
    return uses.reshape(len(hashes), n_blocks).T.astype(np.float64) @ bits


def _path_bits(paths: Sequence, cfg: ControlFlowGraph) -> list[int]:
    """SimHash bits of every path, in order, from per-block rows.

    A path's row is the sum of its blocks' rows: per bit, how many of
    its statements have the bit set, and how many statements it has. The
    +1/-1 tally of a bit is positive exactly when twice the first
    exceeds the second. Visit counts and rows are float64 so the product
    runs in BLAS; they are integer sums far below 2**53, so every value
    is exact. Paths go through in chunks small enough that the
    visit-count matrix and the row sums each stay within _CHUNK_CELLS
    cells.
    """
    block_counts = _block_counts(cfg)
    n_blocks = len(cfg.blocks)
    rows = max(1, _CHUNK_CELLS // max(n_blocks, 72))
    out: list[int] = []
    for lo in range(0, len(paths), rows):
        chunk = paths[lo : lo + rows]
        lengths = [len(p.block_ids) for p in chunk]
        cells = np.fromiter(
            chain.from_iterable(p.block_ids for p in chunk),
            dtype=np.intp,
            count=sum(lengths),
        )
        cells += np.repeat(np.arange(len(chunk), dtype=np.intp) * n_blocks, lengths)
        counts = np.bincount(cells, minlength=len(chunk) * n_blocks)
        sums = counts.reshape(len(chunk), n_blocks).astype(np.float64) @ block_counts
        if not sums[:, 64].all():
            raise ValueError("empty path")
        # bit i of a path is bit i of its 8 little-endian bytes
        packed = np.packbits(2 * sums[:, :64] > sums[:, 64:65], axis=1, bitorder="little")
        out.extend(packed.view("<u8")[:, 0].tolist())
    return out


def to_hex(bits: int) -> str:
    """Canonical 16-character lower-case hex form."""
    return format(bits, "016x")


_HEX16 = re.compile(r"[0-9a-f]{16}")


def from_hex(text: str) -> int:
    """Inverse of `to_hex`: exactly 16 lower-case hex digits, so no
    sign, `0x` prefix, `_` or whitespace."""
    if not isinstance(text, str) or not _HEX16.fullmatch(text):
        raise ValueError(f"fingerprint must be 16 lower-case hex digits, got {text!r}")
    return int(text, 16)
