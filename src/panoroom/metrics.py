"""Depth evaluation metrics and segmentation/total loss evaluators."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bgdepth import DepthMap, require_same_grid
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
        return {
            "abs_rel": self.abs_rel,
            "sq_rel": self.sq_rel,
            "rmse": self.rmse,
            "mae": self.mae,
            "delta1": self.delta1,
            "delta2": self.delta2,
            "delta3": self.delta3,
        }

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
        if self.eta < 0:
            raise ValueRangeError("eta must be >= 0")


@dataclass(frozen=True)
class LossWeights:
    lambda1: float = 0.01
    lambda2: float = 1.0
    lambda3: float = 0.4

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0 or self.lambda3 < 0:
            raise ValueRangeError("loss weights must be >= 0")


def eval_metrics(pred: DepthMap, gt: DepthMap, mask: SegMap | None = None) -> MetricsReport:
    """Standard depth metrics over valid pixels (gt > 0, mask >= 0.5 if given)."""
    require_same_grid(pred, gt)
    valid = gt.values > 0
    if mask is not None:
        require_same_grid(gt, mask)
        valid &= mask.values >= 0.5
    n = np.count_nonzero(valid)
    if n == 0:
        raise NoValidSamplesError("no valid pixels to evaluate")
    if n == valid.size:
        # the same 1-D arrays, in the same order, as the gathers below
        p = pred.values.ravel()
        g = gt.values.ravel()
    else:
        p = pred.values[valid]
        g = gt.values[valid]
    diff = p - g
    abs_diff = np.abs(diff)
    sq_diff = np.square(diff, out=diff)
    scaled = abs_diff / g
    abs_rel = np.mean(scaled)
    sq_rel = np.mean(np.divide(sq_diff, g, out=scaled))
    rmse = np.sqrt(np.mean(sq_diff))
    mae = np.mean(abs_diff)
    # max(p / g, g / p), in two buffers that are no longer needed
    with np.errstate(divide="ignore"):
        ratio = np.divide(p, g, out=scaled)
        np.maximum(ratio, np.divide(g, p, out=sq_diff), out=ratio)
    return MetricsReport(
        abs_rel=float(abs_rel),
        sq_rel=float(sq_rel),
        rmse=float(rmse),
        mae=float(mae),
        delta1=float(np.count_nonzero(ratio < 1.25) / n),
        delta2=float(np.count_nonzero(ratio < 1.25**2) / n),
        delta3=float(np.count_nonzero(ratio < 1.25**3) / n),
    )


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
