"""Exception types raised across the package."""


class MaskTrackError(Exception):
    """Base class for all masktrack errors."""


# ---------------------------------------------------------------------------
# mask / geometry
# ---------------------------------------------------------------------------
class CountsSumMismatch(MaskTrackError):
    """RLE counts do not sum to height * width."""


class ShapeMismatch(MaskTrackError):
    """Masks, grids, vectors or input files whose dimensions disagree."""


class MalformedToken(MaskTrackError):
    """Compressed RLE string is truncated or contains invalid characters."""


# ---------------------------------------------------------------------------
# embeddings / feature banks
# ---------------------------------------------------------------------------
class EmptyBox(MaskTrackError):
    """Bounding box with zero area where a region is required."""


class EmptyBank(MaskTrackError):
    """Similarity queried against a feature bank with no entries."""


class NonMonotonicFrame(MaskTrackError):
    """Bank update with a frame index not newer than existing entries."""


# ---------------------------------------------------------------------------
# tracking
# ---------------------------------------------------------------------------
class DegenerateInput(MaskTrackError):
    """Regression input with fewer than two distinct sample positions."""


class OutOfOrderFrame(MaskTrackError):
    """Frames fed to the tracker out of order."""


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------
class ParseError(MaskTrackError):
    """Malformed line in an input file; message carries the line number."""


class MissingFeatures(MaskTrackError):
    """Detection record with neither an embedding nor a feature map."""


class OverlapAfterResolution(MaskTrackError):
    """Masks still overlap after overlap resolution; indicates a codec bug."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------
class ConfigError(MaskTrackError):
    """Base class for configuration file problems."""


class UnknownConfigKey(ConfigError):
    """Config file contains a key that is not part of the schema."""


class ConfigTypeError(ConfigError):
    """Config value cannot be coerced to the expected type."""


class ConfigRangeError(ConfigError):
    """Config value outside its valid range."""


# ---------------------------------------------------------------------------
# synthetic data / evaluation
# ---------------------------------------------------------------------------
class SpecOutOfBounds(MaskTrackError):
    """Scenario places an object outside the image during its lifetime."""


class OverlappingMasksInInput(MaskTrackError):
    """Same-frame masks in a result file are not pairwise disjoint."""
