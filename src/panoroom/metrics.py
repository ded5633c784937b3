"""Depth evaluation metrics and segmentation/total loss evaluators."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import bgdepth
from .bgdepth import DepthMap, _row_bands, require_same_grid
from .errors import NoValidSamplesError, ValueRangeError
from .fusion import SegMap

PROB_EPS = 1e-7  # clamp before log; the focal term is undefined at 0


@dataclass(frozen=True)
class MetricsReport:
    abs_rel: float
    sq_rel: float
    rmse: float
    mae: float
    delta1: float
    delta2: float
    delta3: float

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        """JSON with each field at 9 significant digits."""
        rounded = {k: float(f"{v:.9g}") for k, v in self.to_dict().items()}
        return json.dumps(rounded, indent=2)


@dataclass(frozen=True)
class FocalParams:
    alpha: float = 0.5
    eta: float = 2.0

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueRangeError("alpha must lie in (0, 1]")
        if not (np.isfinite(self.eta) and self.eta >= 0):
            raise ValueRangeError("eta must be finite and >= 0")


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.01
    lambda2: float = 1.0
    lambda3: float = 0.4

    def __post_init__(self):
        for w in (self.lambda1, self.lambda2, self.lambda3):
            if not (np.isfinite(w) and w >= 0):
                raise ValueRangeError("loss weights must be finite and >= 0")


def _pairwise(lo: int, hi: int, piece):
    """The sum of ``piece(a, b)`` over the pieces [a, b) that numpy's
    pairwise summation makes of [lo, hi).

    ``np.add.reduce`` of a contiguous float64 array halves it (the first
    half rounded down to a multiple of 8) until a half holds at most 128
    values, which it sums in one loop, and adds the two sums of each split.
    Cutting [lo, hi) the same way down to pieces of at most
    ``bgdepth._BAND_VALUES`` (and never below 128) values gives pieces that
    are nodes of that tree. When ``piece`` returns the ``np.add.reduce`` of
    its piece, the result has the bits of ``np.add.reduce`` over [lo, hi).
    """
    n = hi - lo
    if n <= max(bgdepth._BAND_VALUES, 128):
        return piece(lo, hi)
    half = n // 2
    half -= half % 8
    return _pairwise(lo, lo + half, piece) + _pairwise(lo + half, hi, piece)


def _error_sums(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Sums of |e| / g, e^2 / g, e^2 and |e| with e = p - g, then the counts
    of max(p / g, g / p) below 1.25, 1.25^2 and 1.25^3."""
    diff = p - g
    abs_diff = np.abs(diff)
    sq_diff = np.square(diff, out=diff)
    scaled = np.divide(abs_diff, g)
    sums = [np.add.reduce(scaled), np.add.reduce(np.divide(sq_diff, g, out=scaled))]
    sums += [np.add.reduce(sq_diff), np.add.reduce(abs_diff)]
    # max(p / g, g / p), in two buffers that are no longer needed
    with np.errstate(divide="ignore"):
        ratio = np.divide(p, g, out=scaled)
        np.maximum(ratio, np.divide(g, p, out=sq_diff), out=ratio)
    sums += [np.count_nonzero(ratio < t) for t in (1.25, 1.25**2, 1.25**3)]
    return np.array(sums, dtype=np.float64)


def eval_metrics(pred: DepthMap, gt: DepthMap, mask: SegMap | None = None) -> MetricsReport:
    """Standard depth metrics over valid pixels (gt > 0, mask >= 0.5 if given).

    The valid pixels are evaluated piece by piece, cut as ``_pairwise``
    cuts them, so each mean has the bits of ``np.mean`` over the gathered
    valid pixels.
    """
    grid = require_same_grid(pred, gt)
    if mask is not None:
        require_same_grid(gt, mask)
    valid = np.empty(grid.shape, dtype=bool)
    for rows in _row_bands(grid):
        v = np.greater(gt.values[rows], 0, out=valid[rows])
        if mask is not None:
            v &= mask.values[rows] >= 0.5
    n = int(np.count_nonzero(valid))
    if n == 0:
        raise NoValidSamplesError("no valid pixels to evaluate")
    p = pred.values.ravel()
    g = gt.values.ravel()
    if n == valid.size:
        sums = _pairwise(0, n, lambda a, b: _error_sums(p[a:b], g[a:b]))
    else:
        flat = np.flatnonzero(valid)
        sums = _pairwise(0, n, lambda a, b: _error_sums(p.take(flat[a:b]), g.take(flat[a:b])))
    abs_rel, sq_rel, sq, mae, *hits = (s / n for s in sums.tolist())
    return MetricsReport(abs_rel, sq_rel, float(np.sqrt(sq)), mae, *hits)


def focal_loss(pred: SegMap, labels: SegMap, params: FocalParams = FocalParams()) -> float:
    """Mean focal term -alpha * (1 - p_hat)^eta * log(p_hat) over all pixels,
    with p_hat = p where the label is 1, else 1 - p."""
    require_same_grid(pred, labels)
    p = np.clip(pred.values, PROB_EPS, 1.0 - PROB_EPS)
    p_hat = np.where(labels.values >= 0.5, p, 1.0 - p)
    terms = params.alpha * (1.0 - p_hat) ** params.eta * np.log(p_hat)
    return float(-np.mean(terms))


def total_loss(
    l_layout: float, l_depth: float, l_seg: float, w: LossWeights = LossWeights()
) -> float:
    """Weighted sum of the three branch losses."""
    for v in (l_layout, l_depth, l_seg):
        if not np.isfinite(v):
            raise ValueRangeError("loss terms must be finite")
    return w.lambda1 * l_layout + w.lambda2 * l_depth + w.lambda3 * l_seg
