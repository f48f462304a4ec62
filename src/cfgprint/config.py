"""Shared run configuration and format constants."""

from __future__ import annotations

from dataclasses import dataclass

HASH_NAME = "fnv1a64"
NORMALIZATION_VERSION = "miniproc-1"
INDEX_FORMAT = "cfgprint-index"
INDEX_FORMAT_VERSION = 1

DEFAULT_ALPHA = 5
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_BLOCKS = 3
DEFAULT_MAX_PATHS = 10000
DEFAULT_MODE = "containment"
DEFAULT_R = 64

MODES = ("containment", "resemblance")


@dataclass(frozen=True)
class RunConfig:
    """Knobs that shape fingerprinting and scoring.

    alpha, threshold, and mode are per-query parameters; min_blocks,
    max_paths, and r bake into the fingerprints and therefore into any
    index built with them.
    """

    alpha: int = DEFAULT_ALPHA
    threshold: float = DEFAULT_THRESHOLD
    min_blocks: int = DEFAULT_MIN_BLOCKS
    max_paths: int = DEFAULT_MAX_PATHS
    mode: str = DEFAULT_MODE
    r: int = DEFAULT_R

    def validate(self) -> None:
        if not 1 <= self.r <= 64:
            raise ValueError(f"r must be in 1..64, got {self.r}")
        if not 0 <= self.alpha <= self.r:
            raise ValueError(f"alpha must be in 0..{self.r}, got {self.alpha}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.min_blocks < 1:
            raise ValueError(f"min_blocks must be >= 1, got {self.min_blocks}")
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {self.max_paths}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")


@dataclass(frozen=True)
class ConfigStamp:
    """Fingerprint provenance written into every index record.

    The stamp is exact, alpha included: a record joins an index only
    when its stamp equals the index's in every field. The stamped alpha
    is the index's default query alpha; a query may still pass its own.
    """

    r: int = DEFAULT_R
    alpha: int = DEFAULT_ALPHA
    min_blocks: int = DEFAULT_MIN_BLOCKS
    hash_name: str = HASH_NAME
    normalization: str = NORMALIZATION_VERSION

    @classmethod
    def from_config(cls, config: RunConfig) -> "ConfigStamp":
        return cls(
            r=config.r,
            alpha=config.alpha,
            min_blocks=config.min_blocks,
        )
