"""Haar-cascade vehicle detection: integral images + boosted Haar features.

The "Haar-based image processing" vehicle detector of Table I.  Built from
scratch: integral images give O(1) rectangle sums; weak classifiers are
thresholded Haar features; AdaBoost picks and weights them; detection runs
a sliding window over an image pyramid.  The detector counts its own
arithmetic so Table I's latency comes from mechanics, not constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

__all__ = [
    "integral_image",
    "rect_sum",
    "HaarFeature",
    "WeakClassifier",
    "HaarDetector",
    "train_haar_detector",
    "Detection",
    "non_max_suppression",
]

#: Arithmetic cost of evaluating one feature on one window (integral-image
#: corner lookups, rectangle sums, compare, weighted accumulate).
OPS_PER_RECT = 7  # 4 lookups + 3 adds
OPS_FEATURE_OVERHEAD = 4  # normalize, compare, weight, accumulate


def integral_image(img: np.ndarray) -> np.ndarray:
    """Summed-area table with a zero top row/left column."""
    if img.ndim != 2:
        raise ValueError("expected a 2-D grayscale image")
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1))
    ii[1:, 1:] = img.cumsum(axis=0).cumsum(axis=1)
    return ii


def rect_sum(ii: np.ndarray, x, y, w, h):
    """Sum of pixels in [y, y+h) x [x, x+w); broadcasts over arrays."""
    return ii[y + h, x + w] - ii[y, x + w] - ii[y + h, x] + ii[y, x]


def _progression_step(p: np.ndarray) -> int | None:
    """The step if ``p`` is an increasing arithmetic progression of 2+ terms."""
    if len(p) < 2:
        return None
    step = int(p[1] - p[0])
    if step < 1 or np.any(np.diff(p) != step):
        return None
    return step


@dataclass(frozen=True)
class HaarFeature:
    """A two- or three-rectangle Haar feature in unit window coordinates.

    ``kind`` is 'two_h' (left/right halves), 'two_v' (top/bottom) or
    'three_h' (side-centre-side); (fx, fy, fw, fh) is the feature's support
    inside the unit window.
    """

    kind: str
    fx: float
    fy: float
    fw: float
    fh: float

    def __post_init__(self):
        if self.kind not in ("two_h", "two_v", "three_h"):
            raise ValueError(f"unknown feature kind {self.kind!r}")

    @property
    def rect_count(self) -> int:
        return 3 if self.kind == "three_h" else 2

    def _rects(self, size: int) -> list[tuple[int, int, int, int]]:
        """(dx, dy, w, h) of each rectangle from the feature's corner.

        The response is the first rectangle's sum minus the others'.
        """
        fw = max(2, int(self.fw * size))
        fh = max(2, int(self.fh * size))
        if self.kind == "two_h":  # right - left
            half = fw // 2
            return [(half, 0, half, fh), (0, 0, half, fh)]
        if self.kind == "two_v":  # bottom - top
            half = fh // 2
            return [(0, half, fw, half), (0, 0, fw, half)]
        third = fw // 3  # centre - left - right
        return [(third, 0, third, fh), (0, 0, third, fh), (2 * third, 0, third, fh)]

    def _response(self, rect_sum_at, px, py, size: int):
        (dx, dy, w, h), *rest = self._rects(size)
        value = rect_sum_at(px + dx, py + dy, w, h)
        for dx, dy, w, h in rest:
            value = value - rect_sum_at(px + dx, py + dy, w, h)
        return value / (size * size)

    def evaluate(self, ii: np.ndarray, x, y, size: int):
        """Feature response for window(s) at (x, y) of side ``size``.

        x, y may be arrays (vectorized over windows).  Response is
        normalized by the window area so it is scale-invariant.
        """
        px = (x + self.fx * size).astype(int) if hasattr(x, "astype") else int(x + self.fx * size)
        py = (y + self.fy * size).astype(int) if hasattr(y, "astype") else int(y + self.fy * size)
        return self._response(partial(rect_sum, ii), px, py, size)

    def evaluate_grid(self, ii: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
        """:meth:`evaluate` for every window of the grid ``ys`` x ``xs``: (len(ys), len(xs)).

        The feature corners ``px``/``py`` are computed per axis as in
        :meth:`evaluate`.  When both are progressions (the sliding-window
        case) each rectangle's four integral-image corners are strided
        views of ``ii``; otherwise :func:`rect_sum` takes broadcast
        indices.  Either way the values equal the per-window lookups.
        """
        px = (xs + self.fx * size).astype(int)
        py = (ys + self.fy * size).astype(int)
        sx, sy = _progression_step(px), _progression_step(py)
        if sx is None or sy is None:
            return self._response(partial(rect_sum, ii), px[None, :], py[:, None], size)
        nx, ny = len(px), len(py)

        def corner(y: int, x: int) -> np.ndarray:
            return ii[y : y + sy * ny : sy, x : x + sx * nx : sx]

        def grid_rect_sum(x: int, y: int, w: int, h: int) -> np.ndarray:
            return corner(y + h, x + w) - corner(y, x + w) - corner(y + h, x) + corner(y, x)

        return self._response(grid_rect_sum, int(px[0]), int(py[0]), size)


@dataclass
class WeakClassifier:
    """Thresholded Haar feature with polarity and AdaBoost weight."""

    feature: HaarFeature
    threshold: float
    polarity: int  # +1: positive if value > threshold; -1: reversed
    alpha: float = 1.0

    def predict(self, ii: np.ndarray, x, y, size: int):
        return self.vote(self.feature.evaluate(ii, x, y, size))

    def vote(self, value):
        """The weak decision on feature response(s) ``value``."""
        raw = value > self.threshold
        return raw if self.polarity > 0 else ~raw if isinstance(raw, np.ndarray) else not raw


class Detection(NamedTuple):
    """One detected object window.

    A named tuple rather than a dataclass: a Haar scan of one 320x240
    frame builds some 60k of them before NMS, and a tuple is built in
    about half the time.
    """

    x: int
    y: int
    size: int
    score: float

    def iou(self, other: "Detection") -> float:
        """Intersection-over-union with another square detection."""
        x0 = max(self.x, other.x)
        y0 = max(self.y, other.y)
        x1 = min(self.x + self.size, other.x + other.size)
        y1 = min(self.y + self.size, other.y + other.size)
        inter = max(0, x1 - x0) * max(0, y1 - y0)
        union = self.size**2 + other.size**2 - inter
        return inter / union if union else 0.0


def non_max_suppression(
    detections: list[Detection], iou_threshold: float = 0.3
) -> list[Detection]:
    """Greedy NMS: keep the highest-scoring window, drop overlapping ones.

    Sliding-window detectors fire many times around each object; NMS
    collapses the cluster to one box per object (score order preserved).
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"IoU threshold must be in [0, 1], got {iou_threshold}")
    remaining = sorted(detections, key=lambda d: d.score, reverse=True)
    kept: list[Detection] = []
    while remaining:
        best = remaining.pop(0)
        kept.append(best)
        remaining = [d for d in remaining if best.iou(d) < iou_threshold]
    return kept


@dataclass
class HaarDetector:
    """A boosted ensemble over Haar features, plus the sliding-window driver."""

    classifiers: list[WeakClassifier]
    window: int = 24
    threshold_fraction: float = 0.5  # fraction of total alpha needed to accept

    def score_windows(self, ii: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
        """Ensemble score for each window (vectorized)."""
        total = np.zeros(len(xs))
        for clf in self.classifiers:
            votes = clf.predict(ii, xs, ys, size)
            total += clf.alpha * votes
        return total

    def score_grid(self, ii: np.ndarray, xs: np.ndarray, ys: np.ndarray, size: int) -> np.ndarray:
        """Ensemble score of every window on the grid ``ys`` x ``xs``.

        A (len(ys), len(xs)) array whose row-major ravel equals
        :meth:`score_windows` over ``np.meshgrid(xs, ys)``, bit for bit.
        """
        total = np.zeros((len(ys), len(xs)))
        for clf in self.classifiers:
            total += clf.alpha * clf.vote(clf.feature.evaluate_grid(ii, xs, ys, size))
        return total

    def _window_ops(self) -> int:
        """Arithmetic cost of scoring one window with every feature."""
        return sum(
            clf.feature.rect_count * OPS_PER_RECT + OPS_FEATURE_OVERHEAD
            for clf in self.classifiers
        )

    def classify_patch(self, patch: np.ndarray) -> bool:
        """Binary decision for one window-sized patch."""
        ii = integral_image(patch)
        score = self.score_windows(ii, np.array([0]), np.array([0]), patch.shape[0])[0]
        return score >= self.threshold_fraction * sum(c.alpha for c in self.classifiers)

    def detect(
        self,
        img: np.ndarray,
        scale_factor: float = 1.25,
        step: int = 1,
        max_scale: float | None = None,
    ) -> tuple[list[Detection], int]:
        """Sliding-window multi-scale detection; returns (detections, ops).

        ``ops`` is the arithmetic cost of the full scan -- the quantity the
        Table I benchmark divides by processor throughput.
        """
        ii = integral_image(img)
        h, w = img.shape
        limit = min(h, w) if max_scale is None else int(self.window * max_scale)
        alpha_total = sum(c.alpha for c in self.classifiers)
        accept = self.threshold_fraction * alpha_total

        feature_ops = self._window_ops()
        detections: list[Detection] = []
        ops = 0
        size = self.window
        while size <= limit:
            xs0 = np.arange(0, w - size, step)
            ys0 = np.arange(0, h - size, step)
            if len(xs0) == 0 or len(ys0) == 0:
                break
            scores = self.score_grid(ii, xs0, ys0, size)
            ops += scores.size * feature_ops
            rows, cols = np.nonzero(scores >= accept)  # row-major: y, then x
            hits = zip(xs0[cols].tolist(), ys0[rows].tolist(), repeat(size),
                       scores[rows, cols].tolist())
            detections.extend(map(Detection._make, hits))
            size = int(round(size * scale_factor))
        return detections, ops

    def scan_ops(self, width: int, height: int, scale_factor: float = 1.25, step: int = 1) -> int:
        """Analytic op count of a full scan without executing it."""
        feature_ops = self._window_ops()
        ops = 0
        size = self.window
        while size <= min(width, height):
            nx = max(0, (width - size + step - 1) // step)
            ny = max(0, (height - size + step - 1) // step)
            ops += nx * ny * feature_ops
            size = int(round(size * scale_factor))
        return ops


def _candidate_features(rng: np.random.Generator, count: int) -> list[HaarFeature]:
    kinds = ("two_h", "two_v", "three_h")
    features = []
    for _ in range(count):
        kind = kinds[rng.integers(0, 3)]
        fw = rng.uniform(0.3, 0.9)
        fh = rng.uniform(0.2, 0.6)
        fx = rng.uniform(0.0, 1.0 - fw)
        fy = rng.uniform(0.0, 1.0 - fh)
        features.append(HaarFeature(kind, fx, fy, fw, fh))
    return features


def train_haar_detector(
    positives: list[np.ndarray],
    negatives: list[np.ndarray],
    rounds: int = 15,
    candidates: int = 120,
    window: int = 24,
    rng: np.random.Generator | None = None,
) -> HaarDetector:
    """AdaBoost over random Haar features on window-sized patches."""
    if not positives or not negatives:
        raise ValueError("need both positive and negative examples")
    rng = rng or np.random.default_rng(0)
    patches = positives + negatives
    labels = np.array([1] * len(positives) + [0] * len(negatives))
    n = len(patches)
    features = _candidate_features(rng, candidates)

    # Precompute feature responses: (n_features, n_samples).
    iis = [integral_image(p) for p in patches]
    responses = np.zeros((len(features), n))
    for fi, feature in enumerate(features):
        for si, ii in enumerate(iis):
            responses[fi, si] = feature.evaluate(ii, 0, 0, window)

    weights = np.full(n, 1.0 / n)
    chosen: list[WeakClassifier] = []
    for _round in range(rounds):
        weights = weights / weights.sum()
        best = None  # (error, fi, threshold, polarity)
        for fi in range(len(features)):
            values = responses[fi]
            order = np.argsort(values)
            sorted_vals = values[order]
            sorted_labels = labels[order]
            sorted_weights = weights[order]
            # Cumulative weighted positives/negatives below each split.
            w_pos = sorted_weights * (sorted_labels == 1)
            w_neg = sorted_weights * (sorted_labels == 0)
            cum_pos = np.concatenate([[0.0], np.cumsum(w_pos)])
            cum_neg = np.concatenate([[0.0], np.cumsum(w_neg)])
            total_pos, total_neg = cum_pos[-1], cum_neg[-1]
            # polarity +1 (predict positive above split): error =
            # positives below + negatives above.
            err_plus = cum_pos[:-1] + (total_neg - cum_neg[:-1])
            err_minus = cum_neg[:-1] + (total_pos - cum_pos[:-1])
            for errors, polarity in ((err_plus, 1), (err_minus, -1)):
                idx = int(errors.argmin())
                err = float(errors[idx])
                if best is None or err < best[0]:
                    threshold = sorted_vals[idx] - 1e-9 if idx < n else sorted_vals[-1]
                    best = (err, fi, float(threshold), polarity)
        err, fi, threshold, polarity = best
        err = min(max(err, 1e-9), 0.4999)
        alpha = 0.5 * np.log((1.0 - err) / err)
        clf = WeakClassifier(features[fi], threshold, polarity, alpha=float(alpha))
        chosen.append(clf)
        # Reweight: increase weight of misclassified samples.
        predictions = (
            (responses[fi] > threshold) if polarity > 0 else (responses[fi] <= threshold)
        ).astype(int)
        mistakes = predictions != labels
        weights *= np.exp(alpha * np.where(mistakes, 1.0, -1.0))

    return HaarDetector(classifiers=chosen, window=window)
