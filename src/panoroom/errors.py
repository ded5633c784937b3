"""Structured exceptions shared across the package.

Every error carries a stable ``code`` string so the CLI can emit
machine-parseable failure lines.
"""


class PanoroomError(Exception):
    code = "error"


class ShapeMismatchError(PanoroomError, ValueError):
    """Maps that must share a grid do not, or a grid is not 2:1."""

    code = "shape-mismatch"


class ValueRangeError(PanoroomError, ValueError):
    """A value lies outside its allowed range: a non-finite or negative depth, a
    camera height that is non-finite or not above 0, a non-finite floor-plan vertex,
    a probability outside [0, 1], a boundary row outside its half of the image, a
    non-positive slack, threshold or size, a grid taller than the supported bound,
    or a finite value beyond the float32 range of a PFM."""

    code = "value-range"


class CornerExtractionError(PanoroomError):
    """Fewer than four layout corners found; the room cannot be closed."""

    code = "corner-extraction"


class PolygonError(PanoroomError):
    """Floor-plan polygon is degenerate, non-simple, or excludes the camera."""

    code = "polygon"


class NoValidSamplesError(PanoroomError):
    """An aggregation found no valid pixels or columns to work with."""

    code = "no-valid-samples"


class PlacementError(PanoroomError, RuntimeError):
    """No camera position in a generated floor plan keeps the required wall
    clearance and corner separation."""

    code = "placement"


class PfmError(PanoroomError):
    code = "pfm"


class PfmMagicError(PfmError):
    code = "pfm-magic"


class PfmHeaderError(PfmError):
    code = "pfm-header"


class PfmTruncatedError(PfmError):
    code = "pfm-truncated"


class SchemaError(PanoroomError):
    """A JSON document lacks a key, holds a value of the wrong type, or a
    ragged array."""

    code = "schema"


class UsageError(PanoroomError):
    """A command line the CLI cannot parse: an unknown command or option, a
    value of the wrong type, or a required option left out."""

    code = "usage"
