"""CNN sliding-window vehicle detection.

The "TensorFlow-based deep learning" detector of Table I: a convolutional
classifier slid over an image pyramid.  Orders of magnitude more arithmetic
per window than the Haar cascade -- exactly the gap the paper measures
(~51x slower than Haar on the same vCPU).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..nn.network import Sequential
from ..nn.scan import can_scan, scan_proba
from ..nn.train import SGD, train_classifier
from ..nn.zoo import make_tiny_cnn
from .haar import Detection
from .image import background_patch, vehicle_patch

__all__ = ["CnnDetector", "train_cnn_detector", "make_patch_dataset"]


def make_patch_dataset(
    count: int, patch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Balanced vehicle/background patches as (N, 1, S, S) plus labels."""
    half = count // 2
    xs = []
    for _ in range(half):
        xs.append(background_patch(patch_size, rng))
    for _ in range(count - half):
        xs.append(vehicle_patch(patch_size, rng))
    x = np.stack(xs)[:, None, :, :]
    y = np.array([0] * half + [1] * (count - half))
    return x, y


@dataclass
class CnnDetector:
    """A patch classifier plus the multi-scale sliding-window driver."""

    network: Sequential
    patch_size: int = 32

    def classify_patch(self, patch: np.ndarray) -> bool:
        out = self.network.predict(patch[None, None, :, :])
        return bool(out[0] == 1)

    def detect(
        self,
        img: np.ndarray,
        stride: int = 8,
        scale_factor: float = 1.5,
        max_windows: int | None = None,
    ) -> tuple[list[Detection], int]:
        """Sliding-window detection; returns (detections, flop count).

        Windows go row-major (y, then x) within each pyramid scale, and the
        FLOP ledger counts every window at ``flops_per_sample``.  A scale
        whose windows tile a resampled image at the plain stride (``step *
        patch == stride * size``: the window's nearest-neighbour index
        ``k * size // patch`` is then the whole image's) is scored by
        :func:`~repro.nn.scan.scan_proba`, which shares the convolutions
        of overlapping windows.  Other scales, and networks the scan does
        not handle, run every window through one batched
        ``predict_proba``.  Both give ``predict_proba`` of the same window
        batch.
        """
        detections: list[Detection] = []
        flops_per_window = self.network.flops_per_sample()
        total_flops = 0
        size = self.patch_size
        h, w = img.shape
        windows_done = 0
        shared = can_scan(self.network, stride)
        while size <= min(h, w):
            scale = size / self.patch_size
            step = max(1, int(stride * scale))
            ny, nx = (h - size) // step + 1, (w - size) // step + 1
            count = ny * nx
            if max_windows is not None:
                count = min(count, max_windows - windows_done)
            if count > 0:
                if shared and step * self.patch_size == stride * size:
                    near_y = np.arange((ny - 1) * stride + self.patch_size) * size // self.patch_size
                    near_x = np.arange((nx - 1) * stride + self.patch_size) * size // self.patch_size
                    resampled = img[near_y[:, None], near_x]
                    probs = scan_proba(self.network, resampled[None], stride, count)
                else:
                    # One strided view; other scales resize every window
                    # with one nearest-neighbour gather.
                    windows = sliding_window_view(img, (size, size))[::step, ::step]
                    if scale != 1.0:
                        near = np.arange(self.patch_size) * size // self.patch_size
                        windows = windows[:, :, near[:, None], near[None, :]]
                    batch = windows.reshape(ny * nx, 1, self.patch_size, self.patch_size)
                    probs = self.network.predict_proba(batch[:count])
                total_flops += flops_per_window * count
                windows_done += count
                for k in np.flatnonzero(probs[:, 1] > 0.5).tolist():
                    y, x = divmod(k, nx)
                    detections.append(Detection(x * step, y * step, size, float(probs[k, 1])))
            if max_windows is not None and windows_done >= max_windows:
                return detections, total_flops
            size = int(round(size * scale_factor))
        return detections, total_flops

    def scan_flops(
        self,
        width: int,
        height: int,
        stride: int = 8,
        scale_factor: float = 1.5,
    ) -> int:
        """Analytic FLOP count of a full scan without executing it."""
        flops_per_window = self.network.flops_per_sample()
        total = 0
        size = self.patch_size
        while size <= min(width, height):
            scale = size / self.patch_size
            s = max(1, int(stride * scale))
            nx = max(0, (width - size) // s + 1)
            ny = max(0, (height - size) // s + 1)
            total += nx * ny * flops_per_window
            size = int(round(size * scale_factor))
        return total


def train_cnn_detector(
    patch_size: int = 32,
    train_count: int = 160,
    epochs: int = 6,
    channels: int = 16,
    rng: np.random.Generator | None = None,
) -> CnnDetector:
    """Train the patch classifier on synthetic vehicle/background patches."""
    rng = rng or np.random.default_rng(0)
    x, y = make_patch_dataset(train_count, patch_size, rng)
    network = make_tiny_cnn(
        input_shape=(1, patch_size, patch_size), classes=2, channels=channels, seed=1
    )
    train_classifier(
        network, x, y, epochs=epochs, batch_size=16, optimizer=SGD(lr=0.05), rng=rng
    )
    return CnnDetector(network=network, patch_size=patch_size)
