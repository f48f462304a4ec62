"""Path fingerprints: per-statement hashing folded into SimHash bits.

Each normalized statement text is hashed to 64 bits with FNV-1a. A
path's fingerprint is the SimHash of its statement multiset: for every
bit position, count +1 when a statement hash has the bit set and -1
when it does not, then emit 1 where the tally is positive. Paths that
share most statements therefore land within a few bits of each other,
and the distance between two fingerprints is a plain Hamming distance.

The tally is a sum, so a path's tally is the sum of its blocks'
tallies. `fingerprint_program` uses this: it hashes each distinct
statement text once per program, sums the votes of each block's
statements into one row per block, and gets every path's tally by
multiplying the path-by-block visit counts with those rows. The counts
and rows are float64, so the product runs in BLAS; every cell is an
integer sum far below 2**53, so float64 holds it exactly.
`fingerprint_path` and `simhash_bits` compute the same bits one path
at a time and are kept as the reference.

A program's fingerprints are plain ints: the ascending tuple of its
distinct path values, the same tuple an index record stores and the
scorer reads (as `bits_array`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .cfg_builder import ControlFlowGraph
from .frontend import NormalizedStatement

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def hash_statement(statement: NormalizedStatement) -> int:
    """64-bit digest of the normalized statement text."""
    return fnv1a64(statement.text.encode("utf-8"))


def simhash_bits(hashes: Iterable[int], width: int = 64) -> int:
    """Majority vote per bit over a multiset of hashes.

    Bit i of the result is 1 iff strictly more inputs have bit i set
    than clear (ties produce 0). Order-independent by construction.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in 1..64, got {width}")
    counts = [0] * width
    n = 0
    for h in hashes:
        n += 1
        for i in range(width):
            counts[i] += 1 if (h >> i) & 1 else -1
    if n == 0:
        raise ValueError("empty path")
    out = 0
    for i in range(width):
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
    width: int = 64

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


def fingerprint_path(
    path_block_ids: Sequence[int], cfg: ControlFlowGraph, width: int = 64
) -> int:
    """SimHash over every statement in every real block on the path."""
    hashes = [
        hash_statement(s)
        for block_id in path_block_ids
        for s in cfg.blocks[block_id].statements
    ]
    if not hashes:
        raise ValueError("empty path")
    return simhash_bits(hashes, width)


def fingerprint_program(
    paths: Sequence,  # ExecutionPath
    cfg: ControlFlowGraph,
    program_id: str,
    width: int = 64,
    truncated: bool = False,
) -> ProgramFingerprint:
    """Fingerprint each path and deduplicate by bits.

    Gives the bits `fingerprint_path` gives for each path; a path whose
    blocks hold no statements raises ValueError("empty path"). An empty
    path list (nothing survived filtering) produces an empty,
    unscoreable fingerprint rather than an error: the caller decides
    how to report it.
    """
    if not 1 <= width <= 64:
        raise ValueError(f"width must be in 1..64, got {width}")
    return ProgramFingerprint(
        program_id=program_id,
        fingerprints=tuple(sorted(set(_path_bits(paths, cfg, width)))) if paths else (),
        path_count=len(paths),
        truncated=truncated,
        width=width,
    )


# float64 cells in one per-chunk temporary (about 64 KB)
_CHUNK_CELLS = 8192


def _block_votes(cfg: ControlFlowGraph, width: int) -> np.ndarray:
    """One float64 row per block: columns 0..width-1 sum the +1/-1 votes
    of the block's statements per bit, columns width..63 stay 0, and
    column 64 counts the statements."""
    distinct: list[NormalizedStatement] = []
    row_of: dict[str, int] = {}
    order: list[int] = []  # distinct-text row of every statement, block by block
    for block in cfg.blocks:
        for statement in block.statements:
            row = row_of.get(statement.text)
            if row is None:
                row = row_of[statement.text] = len(distinct)
                distinct.append(statement)
            order.append(row)
    votes = np.zeros((len(cfg.blocks), 65), dtype=np.float64)
    if not order:
        return votes
    sizes = np.array([len(b.statements) for b in cfg.blocks], dtype=np.intp)
    hashes = np.array([hash_statement(s) for s in distinct], dtype=np.uint64)
    statement_votes = np.zeros((len(hashes), 65), dtype=np.int8)
    statement_votes[:, 64] = 1
    bytes_le = hashes.astype("<u8").view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(bytes_le, axis=1, bitorder="little")[:, :width]
    statement_votes[:, :width] = 2 * bits.view(np.int8) - 1
    filled = np.flatnonzero(sizes)
    starts = np.cumsum(sizes)[filled] - sizes[filled]
    votes[filled] = np.add.reduceat(
        statement_votes[order], starts, axis=0, dtype=np.float64
    )
    return votes


def _path_bits(paths: Sequence, cfg: ControlFlowGraph, width: int) -> list[int]:
    """SimHash bits of every path, in order, from per-block vote rows.

    Visit counts and tallies are float64 so the product runs in BLAS;
    they are integer sums far below 2**53, so every value is exact. Paths
    go through in chunks small enough that the visit-count matrix and the
    tally matrix each stay within _CHUNK_CELLS cells.
    """
    votes = _block_votes(cfg, width)
    n_blocks = len(cfg.blocks)
    rows = max(1, _CHUNK_CELLS // max(n_blocks, 65))
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
        tally = counts.reshape(len(chunk), n_blocks).astype(np.float64) @ votes
        if not tally[:, 64].all():
            raise ValueError("empty path")
        # bit i of a path is bit i of its 8 little-endian bytes
        packed = np.packbits(tally[:, :64] > 0, axis=1, bitorder="little")
        out.extend(packed.view("<u8")[:, 0].tolist())
    return out


def hamming_bits(a: int, b: int) -> int:
    """Hamming distance on raw fingerprint values."""
    return (a ^ b).bit_count()


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
