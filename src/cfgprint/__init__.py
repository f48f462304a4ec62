"""Control-flow fingerprinting and clone search for MiniProc programs.

The pipeline in one breath: parse a program, normalize its statements
so names and literals stop mattering, build the control-flow graph,
enumerate simple paths, hash each path into a 64-bit fingerprint, and
compare programs by near-matching their fingerprint sets under a
Hamming-distance budget.

>>> from cfgprint import RunConfig, fingerprint_source, score_pair
>>> a = fingerprint_source("declare x; x = 1; while (x < 9) x = x + 1; endwhile output x;", "a", RunConfig())
>>> b = fingerprint_source("declare k; k = 5; while (k < 2) k = k + 3; endwhile output k;", "b", RunConfig())
>>> score_pair(a, b, alpha=0, mode="containment").value
1.0
"""

from .config import (
    DEFAULT_ALPHA,
    DEFAULT_MAX_PATHS,
    DEFAULT_MIN_BLOCKS,
    DEFAULT_MODE,
    DEFAULT_THRESHOLD,
    FINGERPRINT_BITS,
    HASH_NAME,
    NORMALIZATION_VERSION,
    ConfigStamp,
    RunConfig,
)
from .frontend import (
    MiniProcSyntaxError,
    NormalizedStatement,
    Statement,
    Token,
    normalize,
    normalize_source,
    parse,
    tokenize,
)
from .cfg_builder import (
    BasicBlock,
    ControlFlowGraph,
    cfg_from_statements,
    export_dot,
)
from .path_enum import ExecutionPath, PathSet, enumerate_paths, filter_paths
from .fingerprint import (
    ProgramFingerprint,
    fingerprint_path,
    fingerprint_program,
    fnv1a64,
    from_hex,
    simhash_bits,
    to_hex,
)
from .similarity import (
    GRADE_DISSIMILAR,
    GRADE_IDENTICAL,
    GRADE_NEAR_IDENTICAL,
    GRADE_SIMILAR,
    PairReport,
    SimilarityScore,
    classify,
    distance_matrix,
    pair_report,
    score_pair,
)
from .index_store import (
    CloneCandidate,
    CloneGroup,
    FingerprintIndex,
    IndexCompatibilityError,
    IndexFormatError,
    IndexRecord,
    load_index,
    record_from_program,
)
from .pipeline import (
    IndexBuild,
    PipelineResult,
    fingerprint_source,
    index_directory,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "BasicBlock",
    "CloneCandidate",
    "CloneGroup",
    "ConfigStamp",
    "ControlFlowGraph",
    "DEFAULT_ALPHA",
    "DEFAULT_MAX_PATHS",
    "DEFAULT_MIN_BLOCKS",
    "DEFAULT_MODE",
    "DEFAULT_THRESHOLD",
    "ExecutionPath",
    "FINGERPRINT_BITS",
    "FingerprintIndex",
    "GRADE_DISSIMILAR",
    "GRADE_IDENTICAL",
    "GRADE_NEAR_IDENTICAL",
    "GRADE_SIMILAR",
    "HASH_NAME",
    "IndexBuild",
    "IndexCompatibilityError",
    "IndexFormatError",
    "IndexRecord",
    "MiniProcSyntaxError",
    "NORMALIZATION_VERSION",
    "NormalizedStatement",
    "PairReport",
    "PathSet",
    "PipelineResult",
    "ProgramFingerprint",
    "RunConfig",
    "SimilarityScore",
    "Statement",
    "Token",
    "cfg_from_statements",
    "classify",
    "distance_matrix",
    "enumerate_paths",
    "export_dot",
    "filter_paths",
    "fingerprint_path",
    "fingerprint_program",
    "fingerprint_source",
    "fnv1a64",
    "from_hex",
    "index_directory",
    "load_index",
    "normalize",
    "normalize_source",
    "pair_report",
    "parse",
    "record_from_program",
    "run_pipeline",
    "score_pair",
    "simhash_bits",
    "to_hex",
    "tokenize",
]
