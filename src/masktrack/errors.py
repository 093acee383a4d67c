"""Exception types raised across the package: one class per kind of failure.

Every input file is checked when it is read, so a bad file fails there with
a ``ParseError``, ``ShapeMismatch`` or ``ConfigError`` naming the file and
line. The other classes mark bad values handed to the library in memory
(``OutOfOrderFrame``, ``DegenerateInput``, ``SpecOutOfBounds``) and bad
result sets (``OverlapAfterResolution``, ``OverlappingMasksInInput``).
"""


class MaskTrackError(Exception):
    """Base class for all masktrack errors."""


class ParseError(MaskTrackError):
    """Malformed input: bad JSON or field, a truncated or invalid RLE token,
    a detection with neither an embedding nor a feature map. Raised from a
    file, the message carries its name and line."""


class ShapeMismatch(MaskTrackError):
    """Masks, grids, vectors or input files whose dimensions disagree, RLE
    counts that are negative, non-canonical or do not sum to
    ``height * width`` included."""


class ConfigError(MaskTrackError):
    """A config key that is unknown, a value of the wrong type or out of range."""


class OutOfOrderFrame(MaskTrackError):
    """Frames fed to the tracker or a feature bank not strictly increasing."""


class DegenerateInput(MaskTrackError):
    """Too little to compute from: regression samples at fewer than two
    positions, a zero-area box to sample attention under, an empty bank."""


class SpecOutOfBounds(MaskTrackError):
    """Scenario places an object outside the image during its lifetime."""


class OverlapAfterResolution(MaskTrackError):
    """Masks still overlap after overlap resolution; indicates a codec bug."""


class OverlappingMasksInInput(MaskTrackError):
    """Same-frame masks in a result file are not pairwise disjoint."""
