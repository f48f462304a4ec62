"""
Path enumeration and 64-bit path fingerprints
=============================================

A program's behavior summary is the set of simple paths through its
control-flow graph: every acyclic route from entry to exit, so a loop
contributes "body taken once" and "body skipped". Each path is hashed
into a single 64-bit value by per-bit majority vote over its statement
hashes, which keeps similar statement mixes close in Hamming distance.
"""

from cfgprint import (
    RunConfig,
    cfg_from_statements,
    enumerate_paths,
    filter_paths,
    fingerprint_program,
    normalize_source,
    to_hex,
)

SOURCE = """\
declare x;
x = 1;
while (x < 9)
  x = x + 2;
endwhile
if (x > 5)
  output "big";
else
  output "small";
endif
output x;
"""

config = RunConfig()
cfg = cfg_from_statements(normalize_source(SOURCE))

# enumerate_paths walks depth-first in ascending successor order, so
# the result is deterministic; max_paths caps the walk on graphs with
# exponentially many routes and sets .truncated when it fires
path_set = enumerate_paths(cfg, config.max_paths)
print(f"{len(path_set.paths)} simple paths (truncated: {path_set.truncated}):")
for path in path_set.paths:
    print("  " + " -> ".join(f"b{b}" for b in path.block_ids))

# paths that cover almost nothing carry no signal; the default filter
# keeps paths spanning at least 3 real blocks
kept = filter_paths(path_set.paths, config.min_blocks)
print(f"\nafter the min-blocks filter: {len(kept)} paths")

# one 64-bit fingerprint per distinct path: a program's fingerprints
# are plain ints, ascending
program = fingerprint_program(kept, cfg, "demo")
print("\npath fingerprints:")
for bits in program.fingerprints:
    print(f"  {to_hex(bits)}")

# paths that differ by one statement land a few bits apart, paths
# through different arms land farther apart
pairs = [(a, b) for i, a in enumerate(program.fingerprints)
         for b in program.fingerprints[i + 1:]]
print("\npairwise Hamming distances:")
for a, b in pairs:
    print(f"  {to_hex(a)} vs {to_hex(b)}: {(a ^ b).bit_count()}")
