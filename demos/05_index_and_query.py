"""
Building an index, querying it, finding clone groups
====================================================

The index holds one record per program: its id, source path, and
fingerprint set, stamped with the configuration that produced it so a
probe fingerprinted under different settings is rejected instead of
silently mis-scored. The on-disk form is JSON Lines with deterministic
bytes; save, load, and re-query give identical results.
"""

import tempfile
from pathlib import Path

from cfgprint import RunConfig, fingerprint_source, index_directory, load_index
from cfgprint.cloneforge import EditOps, MutationSpec, generate_program, mutate

# the corpus and its index live in a temporary directory that is
# removed when the demo ends
with tempfile.TemporaryDirectory() as workdir:
    root = Path(workdir) / "corpus"
    root.mkdir()
    config = RunConfig()

    # a small corpus: eight generated programs, plus a renamed copy of the
    # first (a type2 clone) and an edited copy of the second (type3, one
    # statement inserted and one deleted)
    sources = {f"prog_{i}.mp": generate_program(seed=900 + i) for i in range(8)}
    sources["clone_of_0.mp"], _ = mutate(sources["prog_0.mp"], MutationSpec("type2", seed=1))
    sources["edit_of_1.mp"], _ = mutate(
        sources["prog_1.mp"], MutationSpec("type3", seed=2, edit_ops=EditOps(insert=1, delete=1))
    )
    for name, text in sources.items():
        (root / name).write_text(text)

    # index_directory fingerprints every .mp file in sorted order; the
    # build reports unparseable files and unscoreable programs separately
    build = index_directory(root, config)
    print(f"indexed {len(build.index.records)} programs "
          f"(skipped {len(build.skipped)}, unscoreable {len(build.unscoreable)})")

    index_path = root / "corpus.cdx"
    build.index.save(index_path)
    print(f"saved to {index_path.name}, {index_path.stat().st_size} bytes")

    # round trip: load and query with a fresh probe built from the same
    # source text as prog_0 (as if a suspect file arrived for review)
    index = load_index(index_path)
    probe = fingerprint_source(sources["clone_of_0.mp"], "suspect", config)
    print("\nquery results for the renamed copy of prog_0:")
    for cand in index.query(probe, config.alpha, config.threshold, config.mode):
        print(f"  {cand.program_id:<16} score={cand.score.value:.3f} grade={cand.grade}")

    # cluster() turns pairwise scores into connected components, so the
    # original and both its relatives fall into one group
    print("\nclone groups at the default threshold:")
    for group in index.cluster(config.alpha, config.threshold, config.mode):
        print(f"  {', '.join(group.members)}  (mean score {group.mean_score:.3f})")
