"""The three workloads: seeded inputs, timed calls, output checks.

Every input comes from cloneforge under the run's seed, and cfgprint
sees only the generated sources and files. All calls run in this one
process with one client and `jobs=1`.

- ingest: `index_directory`, `FingerprintIndex.save` and `load_index`
  over a `build_corpus` corpus (write side; no query scan).
- query: closed loop of one probe at a time, `run_pipeline` then
  `FingerprintIndex.query`, against an index loaded during set-up
  (read side).
- allpairs: `evaluate` over alpha 0..10 and repeated
  `FingerprintIndex.cluster` on a labeled corpus (quadratic scoring).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shutil
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from cfgprint import RunConfig, cloneforge, index_store, pipeline
from cfgprint.cloneforge import EditOps, MutationSpec, SizeSpec

ALPHA = 5
THRESHOLD = 0.5
SWEEP_ALPHAS = tuple(range(11))
STATEMENTS = (14, 40)  # build_corpus's default statements_range

SIZES = {
    "full": {
        "ingest": {"originals": 100, "unrelated": 100, "corpora": 4},
        "query": {"originals": 150, "unrelated": 150, "probes": 100},
        "allpairs": {"originals": 40, "unrelated": 40, "min_cluster_calls": 20},
    },
    "tiny": {
        "ingest": {"originals": 3, "unrelated": 3, "corpora": 2},
        "query": {"originals": 6, "unrelated": 6, "probes": 8},
        "allpairs": {"originals": 3, "unrelated": 3, "min_cluster_calls": 3},
    },
}

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def tail(values: list[float]) -> tuple[int, float]:
    """(p, value) for the highest whole percentile p that leaves at
    least ten samples beyond it (nearest rank); p50 below 20 samples."""
    p = max(50, int(100 * (1 - 10 / len(values))))
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def recorded(size: str, workload: str, seed: int) -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text()).get(f"{size}/{workload}/{seed}", {})


def record(size: str, workload: str, seed: int, **fields) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(f"{size}/{workload}/{seed}", {}).update(fields)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Workload:
    """Set-up, timed measurement and checks of one workload.

    `measure` takes `request(name)`, a context manager factory around
    each operation: a no-op in the timed run, `Tracer.request` in the
    traced run. With `seconds=0` it makes the minimum pass, whose
    operations depend only on the seed.
    """

    name = ""

    def __init__(self, size: str, seed: int, work: Path):
        self.size = size
        self.spec = SIZES[size][self.name]
        self.seed = seed
        self.work = work
        self.config = RunConfig()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _attempt(self, fn, *args):
        """One timed operation; a raise counts as a failed operation."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is reported, none is fatal
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def _corpus(self, name: str, seed: int, originals: int, unrelated: int) -> tuple[Path, list]:
        """A fresh build_corpus corpus under the work directory, and its manifest."""
        root = _fresh(self.work / name)
        cloneforge.build_corpus(root, originals=originals, unrelated=unrelated, seed=seed)
        return root, json.loads((root / "manifest.json").read_text())

    def digest_check(self, digest: str) -> str:
        """Returns "ok", "unrecorded" or a mismatch message."""
        want = recorded(self.size, self.name, self.seed).get("output")
        if want is None:
            return "unrecorded"
        return "ok" if want == digest else f"digest {digest[:12]} != recorded {want[:12]}"


class Ingest(Workload):
    """Each run ingests `corpora` distinct corpora once per cycle, so
    that one unusually path-heavy corpus moves the run's figures less."""

    name = "ingest"

    def setup(self) -> None:
        self.corpora = []
        for k in range(self.spec["corpora"]):
            sub_seed = random.Random(f"ingest-{self.seed}-{k}").randrange(2**32)
            self.corpora.append(
                self._corpus(f"corpus/{k}", sub_seed, self.spec["originals"], self.spec["unrelated"])
            )

    def _pass(self, corpus: Path):
        build = pipeline.index_directory(corpus, self.config, jobs=1)
        cdx = self.work / "ingest.cdx"
        build.index.save(cdx)
        loaded = index_store.load_index(cdx)
        return build, loaded, cdx.read_bytes()

    def measure(self, now, seconds: float, request=lambda name: nullcontext()) -> None:
        """Whole cycles over the corpora until `seconds` have passed.
        Outputs are kept for the first cycle."""
        self.first: list = []
        self.programs = 0
        self.samples_ms: list[float] = []
        start = time.monotonic()
        while not self.first or time.monotonic() - start < seconds:
            keep = not self.first
            for corpus, _ in self.corpora:
                t0 = now()
                with request("ingest.pass"):
                    out = self._attempt(self._pass, corpus)
                elapsed = now() - t0
                if out is None:
                    return
                self.samples_ms.append(elapsed * 1000.0)
                self.programs += len(out[0].index.records)
                if keep:
                    self.first.append(out)

    def metrics(self) -> dict:
        return {
            "p50_ms": statistics.median(self.samples_ms),
            "throughput_per_s": self.programs / (sum(self.samples_ms) / 1000.0),
        }

    def check(self) -> dict:
        clean = resaved_same = type2_same = True
        for (_, manifest), (build, loaded, data) in zip(self.corpora, self.first):
            records = build.index.records
            clean = clean and not build.skipped and not build.unscoreable
            resaved = self.work / "resaved.cdx"
            loaded.save(resaved)
            resaved_same = resaved_same and resaved.read_bytes() == data
            type2_same = type2_same and all(
                records[m["original"]].fingerprints == records[m["mutant"]].fingerprints
                for m in manifest
                if m["type"] == "type2"
            )
        digest = sha256_json([hashlib.sha256(data).hexdigest() for _, _, data in self.first])
        return {
            "no_skipped_or_unscoreable": clean,
            "save_load_save_identical": resaved_same,
            "type2_same_fingerprints": type2_same,
            "cdx_sha256": self.digest_check(digest),
            "_digest": digest,
        }


class Query(Workload):
    name = "query"

    def setup(self) -> None:
        corpus, self.manifest = self._corpus(
            "corpus", self.seed, self.spec["originals"], self.spec["unrelated"]
        )
        build = pipeline.index_directory(corpus, self.config, jobs=1)
        cdx = self.work / "query.cdx"
        build.index.save(cdx)
        self.index = index_store.load_index(cdx)
        self.probes = self._probes()

    def _probes(self) -> list[tuple[str, str, str, str | None]]:
        """(probe id, kind, source, original) cycling type1, type2,
        type3 mutants of indexed originals and fresh unrelated programs."""
        rng = random.Random(f"probes-{self.seed}")
        corpus = self.work / "corpus"
        originals = [m["original"] for m in self.manifest]
        probes = []
        for i in range(self.spec["probes"]):
            kind = ("type1", "type2", "type3", "unrelated")[i % 4]
            if kind == "unrelated":
                spec = SizeSpec(statements=rng.randint(*STATEMENTS), max_depth=rng.choice([2, 2, 3]))
                source = cloneforge.generate_program(rng.randrange(2**32), spec)
                original = None
            else:
                original = rng.choice(originals)
                source, _ = cloneforge.mutate(
                    (corpus / original).read_text(encoding="utf-8"),
                    MutationSpec(kind=kind, seed=rng.randrange(2**32),
                                 edit_ops=EditOps(insert=1, delete=0, reorder=1)),
                )
            probes.append((f"probe_{i:03d}_{kind}", kind, source, original))
        return probes

    def _query(self, probe_id: str, source: str) -> list:
        program = pipeline.run_pipeline(source, probe_id, self.config).program
        found = self.index.query(program, ALPHA, THRESHOLD)
        return [
            [c.program_id, c.score.value, c.score.matched_count, c.score.denominator, c.grade]
            for c in found
        ]

    def measure(self, now, seconds: float, request=lambda name: nullcontext()) -> None:
        """Whole cycles over the probe list until `seconds` have passed."""
        self.cycles: list[list] = []
        self.samples_ms: list[float] = []
        start = time.monotonic()
        while not self.cycles or time.monotonic() - start < seconds:
            cycle = []
            for probe_id, _, source, _ in self.probes:
                t0 = now()
                with request("query.probe"):
                    found = self._attempt(self._query, probe_id, source)
                elapsed = now() - t0
                if found is not None:
                    self.samples_ms.append(elapsed * 1000.0)
                cycle.append(found)
            self.cycles.append(cycle)

    def metrics(self) -> dict:
        p, tail_ms = tail(self.samples_ms)
        return {
            "p50_ms": statistics.median(self.samples_ms),
            "throughput_per_s": len(self.samples_ms) / (sum(self.samples_ms) / 1000.0),
            "tail_ms": tail_ms,
            "tail_percentile": p,
        }

    def check(self) -> dict:
        first = self.cycles[0]
        ranked = True
        for (_, kind, _, original), found in zip(self.probes, first):
            if kind in ("type1", "type2"):
                scores = {c[0]: c[1] for c in found or []}
                ranked = ranked and scores.get(original) == 1.0
        digest = sha256_json(first)
        return {
            "type1_type2_rank_original_at_1": ranked,
            "cycles_identical": all(c == first for c in self.cycles),
            "candidates_sha256": self.digest_check(digest),
            "_digest": digest,
        }


class AllPairs(Workload):
    name = "allpairs"

    def setup(self) -> None:
        self.corpus, self.manifest = self._corpus(
            "corpus", self.seed, self.spec["originals"], self.spec["unrelated"]
        )
        self.index = pipeline.index_directory(self.corpus, self.config, jobs=1).index

    def _sweep(self) -> list[dict]:
        rows = cloneforge.evaluate(self.corpus, self.config, SWEEP_ALPHAS, threshold=THRESHOLD)
        out = []
        for row in rows:
            d = row.to_dict()
            del d["wall_time_s"]
            out.append(d)
        return out

    def _cluster(self) -> list:
        return [[list(g.members), g.mean_score] for g in self.index.cluster(ALPHA, THRESHOLD)]

    def measure(self, now, seconds: float, request=lambda name: nullcontext()) -> None:
        """Sweeps for the first half of the run (at least one), then
        cluster calls for the rest (at least min_cluster_calls). The
        first sweep's rows and every call's groups are kept."""
        self.rows, self.sweep_ms, self.groups = None, [], []
        self.samples_ms: list[float] = []
        start = time.monotonic()
        while not self.sweep_ms or time.monotonic() - start < seconds / 2:
            t0 = now()
            with request("allpairs.sweep"):
                rows = self._attempt(self._sweep)
            elapsed = now() - t0
            if rows is None:
                break
            self.sweep_ms.append(elapsed * 1000.0)
            if self.rows is None:
                self.rows = rows
        while len(self.samples_ms) < self.spec["min_cluster_calls"] or time.monotonic() - start < seconds:
            t0 = now()
            with request("allpairs.cluster"):
                groups = self._attempt(self._cluster)
            elapsed = now() - t0
            if groups is None:
                break
            self.samples_ms.append(elapsed * 1000.0)
            self.groups.append(groups)

    def metrics(self) -> dict:
        """throughput_per_s is record fingerprints scanned per second of
        `evaluate`: each of the N scoreable probes scans the other N - 1
        records at every alpha, (N - 1) * S fingerprints per alpha where
        S is the index's fingerprint total. The count is fixed by the
        seed's corpus. Dividing by it takes out most of the seed-to-seed
        spread, since the sweep's cost grows with S and build_corpus path
        counts are heavy-tailed."""
        sizes = [len(r.fingerprints) for r in self.index.records.values() if r.fingerprints]
        rounds = len(SWEEP_ALPHAS) * len(sizes)
        scanned = len(SWEEP_ALPHAS) * (len(sizes) - 1) * sum(sizes)
        sweep_s = statistics.median(self.sweep_ms) / 1000.0
        return {
            "p50_ms": statistics.median(self.samples_ms),
            "throughput_per_s": scanned / sweep_s,
            "sweep_s": sweep_s,
            "query_rounds_per_sweep": rounds,
            "fingerprints_scanned_per_sweep": scanned,
        }

    def check(self) -> dict:
        rows, groups = self.rows, self.groups[0]
        candidates = [r["candidates"] for r in rows]
        fps = [r["fp"] for r in rows]
        grouped = {pid: i for i, g in enumerate(groups) for pid in g[0]}
        exact = [m for m in self.manifest if m["type"] in ("type1", "type2")]
        digest = sha256_json([rows, groups])
        return {
            "candidates_fp_monotone": candidates == sorted(candidates) and fps == sorted(fps),
            "tp_within_labeled": all(r["tp"] <= len(self.manifest) for r in rows),
            "type1_type2_pairs_grouped": all(
                m["original"] in grouped and grouped.get(m["original"]) == grouped.get(m["mutant"])
                for m in exact
            ),
            "cluster_repeats_identical": all(g == groups for g in self.groups),
            "sweep_groups_sha256": self.digest_check(digest),
            "_digest": digest,
        }


WORKLOADS = {w.name: w for w in (Ingest, Query, AllPairs)}
