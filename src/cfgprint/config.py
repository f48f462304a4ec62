"""Shared run configuration and format constants."""

from __future__ import annotations

from dataclasses import dataclass

HASH_NAME = "fnv1a64"
FINGERPRINT_BITS = 64
NORMALIZATION_VERSION = "miniproc-1"
INDEX_FORMAT = "cfgprint-index"
INDEX_FORMAT_VERSION = 1

DEFAULT_ALPHA = 5
DEFAULT_THRESHOLD = 0.5
DEFAULT_MIN_BLOCKS = 3
DEFAULT_MAX_PATHS = 10000
DEFAULT_MODE = "containment"

MODES = ("containment", "resemblance")


def check_mode(mode: str) -> None:
    """The one mode rule: ValueError unless `mode` is one of `MODES`."""
    if mode not in MODES:
        raise ValueError(f"unknown similarity mode {mode!r}, expected one of {MODES}")


@dataclass(frozen=True)
class RunConfig:
    """Knobs that shape fingerprinting and scoring.

    alpha, threshold, and mode are per-query parameters. Of the knobs
    that shape the fingerprints, only min_blocks is stamped into an
    index (with alpha as its default query alpha); max_paths shows only
    as each record's `truncated` flag. Building one checks every knob.
    """

    alpha: int = DEFAULT_ALPHA
    threshold: float = DEFAULT_THRESHOLD
    min_blocks: int = DEFAULT_MIN_BLOCKS
    max_paths: int = DEFAULT_MAX_PATHS
    mode: str = DEFAULT_MODE

    def __post_init__(self) -> None:
        if not 0 <= self.alpha <= FINGERPRINT_BITS:
            raise ValueError(f"alpha must be in 0..{FINGERPRINT_BITS}, got {self.alpha}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.min_blocks < 1:
            raise ValueError(f"min_blocks must be >= 1, got {self.min_blocks}")
        if self.max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {self.max_paths}")
        check_mode(self.mode)


@dataclass(frozen=True)
class ConfigStamp:
    """Fingerprint provenance written into every index record.

    The stamp is exact, alpha included: a record joins an index only
    when its stamp equals the index's in every field. The stamped alpha
    is the index's default query alpha; a query may still pass its own.
    The fingerprint width, hash and normalization are format constants:
    `save` writes them into the header and `load_index` rejects any
    other value. Building one checks alpha and min_blocks by the rules
    of the `RunConfig` it describes.
    """

    alpha: int = DEFAULT_ALPHA
    min_blocks: int = DEFAULT_MIN_BLOCKS

    def __post_init__(self) -> None:
        RunConfig(alpha=self.alpha, min_blocks=self.min_blocks)

    @classmethod
    def from_config(cls, config: RunConfig) -> "ConfigStamp":
        return cls(alpha=config.alpha, min_blocks=config.min_blocks)
