"""
Measuring precision and query scaling on a labeled corpus
=========================================================

The benchmark half of the package answers two questions. First, how
does the alpha knob trade recall against false positives? A corpus of
generated originals, labeled mutants, and unrelated programs gives
ground truth; evaluate() sweeps alpha and counts which candidate
pairs are real. Second, does query time grow linearly with index
size? scaling_run() times the same probe against prefix indexes.
"""

import json
import tempfile
from pathlib import Path

from cfgprint import RunConfig
from cfgprint.cloneforge import build_corpus, evaluate, scaling_run

# the labeled corpus lives in a temporary directory removed once the
# alpha sweep is done
with tempfile.TemporaryDirectory() as workdir:
    root = Path(workdir) / "bench"

    # 40 originals, one mutant each (mutation types cycle), 40 unrelated;
    # every file parses and ends up with at least one scoreable path
    manifest_path = build_corpus(root, originals=40, unrelated=40, seed=7)
    pairs = json.loads(manifest_path.read_text())
    print(f"corpus: {len(list(root.glob('*.mp')))} programs, "
          f"{len(pairs)} labeled clone pairs")

    # sweep alpha: candidates can only grow as the distance budget widens.
    # Low alpha keeps precision at 1.0; slack alpha lets lookalikes in.
    config = RunConfig(threshold=0.5)
    print("\nalpha  candidates  tp  fp  precision")
    for result in evaluate(root, config, alpha_values=[0, 2, 4, 6, 8, 10]):
        precision = "-" if result.precision is None else f"{result.precision:.3f}"
        print(f"{result.alpha:>5}  {result.candidates:>10}  {result.tp:>2}  "
              f"{result.fp:>2}  {precision}")

# time one query against indexes of 50, 100, and 200 programs; the
# per-size figure is the best of several interleaved repeats
print("\nquery scaling:")
rows = scaling_run([50, 100, 200], RunConfig(), seed=3, repeats=3, query_loops=10)
for row in rows:
    print(f"  {row['size']:>4} programs: {row['seconds'] * 1000:7.3f} ms/query "
          f"({row['scorings']} pair scorings)")

print("\nms per indexed program at each size:",
      ", ".join(f"{r['seconds'] / r['size'] * 1000:.4f}" for r in rows))
print("roughly flat per-program cost means linear total cost")
