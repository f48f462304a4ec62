"""The suite's shared helpers: a directly constructed control-flow graph,
a program built from raw bits, and one pure-Python copy of each contract
oracle. No oracle calls cfgprint; each works on plain ints, tuples and
edge sets, the long way."""

from cfgprint.cfg_builder import BasicBlock, ControlFlowGraph
from cfgprint.fingerprint import ProgramFingerprint


def graph_from_edges(blocks, edges, exit_id, entry_id=0):
    """The graph over `blocks` (or that many blocks with no statements)
    whose successor rows are `edges` grouped by source, each row
    sorted."""
    if isinstance(blocks, int):
        blocks = tuple(BasicBlock(i, ()) for i in range(blocks))
    rows = [[] for _ in blocks]
    for src, dst in edges:
        rows[src].append(dst)
    return ControlFlowGraph(
        blocks=tuple(blocks),
        successors=tuple(tuple(sorted(row)) for row in rows),
        entry_id=entry_id,
        exit_id=exit_id,
    )


def program(program_id, bit_values, truncated=False):
    """A program whose fingerprints are the distinct `bit_values`,
    ascending, counted once per given value."""
    return ProgramFingerprint(
        program_id, tuple(sorted(set(bit_values))), len(bit_values), truncated
    )


def popcount(x):
    count = 0
    while x:
        count += x & 1
        x >>= 1
    return count


def count_matched(from_bits, into_bits, alpha):
    """How many of `from_bits` have a partner in `into_bits` within
    alpha bits."""
    return sum(1 for x in from_bits if any(popcount(x ^ y) <= alpha for y in into_bits))


def score_counts(a_bits, b_bits, alpha, mode):
    """(matched, denominator) by nested loops; the score is
    matched / denominator. Containment counts the smaller side's matched
    paths, the better direction on equal sizes; resemblance counts both
    sides over both sizes."""
    a_to_b = count_matched(a_bits, b_bits, alpha)
    b_to_a = count_matched(b_bits, a_bits, alpha)
    na, nb = len(a_bits), len(b_bits)
    if mode == "resemblance":
        return a_to_b + b_to_a, na + nb
    if na < nb:
        return a_to_b, na
    if nb < na:
        return b_to_a, nb
    return max(a_to_b, b_to_a), na


def pair_evidence(a_bits, b_bits, alpha):
    """(evidence, min_distance): each probe path within alpha with its
    nearest partner, the lowest partner bits winning a tie."""
    evidence = []
    for x in a_bits:
        distance, partner = min((popcount(x ^ y), y) for y in b_bits)
        if distance <= alpha:
            evidence.append((format(x, "016x"), format(partner, "016x"), distance))
    min_distance = min(popcount(x ^ y) for x in a_bits for y in b_bits)
    return tuple(evidence), min_distance


def majority_simhash(hashes):
    """Per-bit majority vote over 64 bits: a bit is set where strictly
    more hashes have it set than clear."""
    out = 0
    for bit in range(64):
        vote = 0
        for h in hashes:
            vote += 1 if (h >> bit) & 1 else -1
        if vote > 0:
            out |= 1 << bit
    return out


def simple_paths(n_blocks, edges, entry, exit_id):
    """All simple entry->exit paths over a raw edge set, sorted."""
    adjacency = {i: sorted(d for s, d in edges if s == i) for i in range(n_blocks)}
    found = []

    def walk(node, trail):
        if node == exit_id:
            found.append(tuple(trail))
            return
        for nxt in adjacency[node]:
            if nxt not in trail:
                walk(nxt, trail + [nxt])

    walk(entry, [entry])
    return sorted(found)


def bfs_components(ids, linked):
    """The connected components of two or more ids under the `linked`
    pairs (either order), each sorted, in order of their smallest id."""
    remaining = set(ids)
    components = []
    while remaining:
        seed = min(remaining)
        component = {seed}
        frontier = [seed]
        while frontier:
            node = frontier.pop()
            for other in list(remaining - component):
                if (node, other) in linked or (other, node) in linked:
                    component.add(other)
                    frontier.append(other)
        components.append(sorted(component))
        remaining -= component
    return [c for c in components if len(c) >= 2]
