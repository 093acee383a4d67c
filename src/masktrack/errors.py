"""Exception types raised across the package: one class per kind of failure.

Every input file is checked when it is read, so a bad file fails there with
a ``ParseError``, ``ShapeMismatch`` or ``ConfigError`` naming the file and
line. The other classes mark bad values handed to the library in memory
(``OutOfOrderFrame``, ``DegenerateInput``, ``SpecOutOfBounds``) and bad
result sets (``OverlapAfterResolution``, ``OverlappingMasksInInput``).

The writers refuse, before they open their file, what their reader would
refuse. ``write_detections`` raises ``ShapeMismatch`` for a mask whose dims
are not the sequence's and for a feature map that is not ``(gh, gw, c)``,
and the reader's ``ParseError`` for a frame below 0, a class id that is not
a known class, a score outside [0, 1], a non-finite value it would write
(the map's when there is one, else the embedding's), and a channel count
that is not the first detection's, each naming the frame and the
detection's index in it. ``resolve_records``, and so ``write_results``,
raises ``ShapeMismatch`` for a mask whose dims are not the sequence's,
naming the frame and the track.
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
