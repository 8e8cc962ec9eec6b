"""The shared-trunk window scan against per-window forward passes.

``scan_proba`` and the ``CnnDetector.detect`` scales that use it must give
the windows, order and counts of one ``predict_proba`` per window crop,
with scores within 1e-12; networks the scan does not handle must fall
back to the batched path and give exactly its output.
"""

import tracemalloc

import numpy as np
import pytest

from repro.nn import (
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    ReLU,
    Sequential,
    can_scan,
    make_tiny_cnn,
    scan_proba,
)
from repro.vision import CnnDetector, Detection, road_scene

TOL = 1e-12

#: ``CnnDetector.detect`` on the 320x240 scene below peaked at this many
#: traced bytes (16.2 MiB) when every window of a scale went through one
#: blocked ``predict_proba``; the shared scan must not need more.
BATCHED_PEAK_BYTES = 16_970_597


def _untrained(channels_in, patch, seed, channels=4):
    """A ``make_tiny_cnn`` with random weights and random biases."""
    network = make_tiny_cnn((channels_in, patch, patch), channels=channels, seed=seed)
    rng = np.random.default_rng(seed + 100)
    for _layer, name, array in network.parameters():
        if name == "b":
            array[...] = rng.normal(0.0, 0.1, size=array.shape)
    return network


def _crop_proba(network, image, stride):
    """``predict_proba`` of each window crop on its own, row-major."""
    _c, patch, _ = network.input_shape
    ny = (image.shape[1] - patch) // stride + 1
    nx = (image.shape[2] - patch) // stride + 1
    crops = [image[:, y : y + patch, x : x + patch]
             for y in range(0, ny * stride, stride) for x in range(0, nx * stride, stride)]
    return np.concatenate([network.predict_proba(crop[None]) for crop in crops])


@pytest.mark.parametrize(
    "channels_in, patch, stride, height, width",
    [
        (1, 32, 8, 70, 90),  # sides not multiples of 8
        (3, 32, 4, 45, 61),
        (1, 16, 4, 37, 51),
        (3, 16, 8, 50, 43),
        (1, 16, 8, 16, 16),  # a single window
        (3, 32, 8, 39, 77),  # a single window row
        (1, 16, 4, 61, 17),  # a single window column
    ],
)
def test_scan_matches_per_window_crops(channels_in, patch, stride, height, width):
    network = _untrained(channels_in, patch, seed=height)
    image = np.random.default_rng(width).random((channels_in, height, width))
    expected = _crop_proba(network, image, stride)
    scores = scan_proba(network, image, stride)
    assert scores.shape == expected.shape
    np.testing.assert_allclose(scores, expected, rtol=0, atol=TOL)


@pytest.mark.parametrize("count", [0, 1, 5, 7, 13, 20, 1000])
def test_scan_count_stops_mid_row(count):
    network = _untrained(1, 16, seed=3)
    image = np.random.default_rng(4).random((1, 40, 45))  # 4 rows of 7 windows
    expected = _crop_proba(network, image, 4)[:count]
    scores = scan_proba(network, image, 4, count)
    assert scores.shape == expected.shape
    np.testing.assert_allclose(scores, expected, rtol=0, atol=TOL)


def test_scan_needs_a_window():
    network = _untrained(1, 16, seed=1)
    assert scan_proba(network, np.zeros((1, 15, 40)), 4).shape == (0, 2)


def test_scan_rejects_what_it_cannot_score():
    network = _untrained(1, 16, seed=1)
    with pytest.raises(ValueError):
        scan_proba(network, np.zeros((1, 32, 32)), 6)  # stride not a multiple of 4
    with pytest.raises(ValueError):
        scan_proba(network, np.zeros((3, 32, 32)), 4)  # wrong channel count


def _straddle(network, image, stride, count):
    """Shift the head's bias so that half the first ``count`` windows score above 0.5."""
    median = np.median(_crop_proba(network, image, stride)[:count, 1])
    network.layers[-1].b[1] -= np.log(median / (1.0 - median))


def _per_window_detect(detector, img, stride, scale_factor, max_windows):
    """One crop and one nearest-neighbour resize per window, scored alone."""
    patch = detector.patch_size
    detections, size, done = [], patch, 0
    h, w = img.shape
    while size <= min(h, w) and (max_windows is None or done < max_windows):
        step = max(1, int(stride * size / patch))
        coords = [(y, x) for y in range(0, h - size + 1, step) for x in range(0, w - size + 1, step)]
        if max_windows is not None:
            coords = coords[: max_windows - done]
        near = np.arange(patch) * size // patch
        for y, x in coords:
            crop = img[y : y + size, x : x + size][np.ix_(near, near)]
            score = float(detector.network.predict_proba(crop[None, None])[0, 1])
            if score > 0.5:
                detections.append(Detection(x, y, size, score))
        done += len(coords)
        size = int(round(size * scale_factor))
    return detections


def _assert_same_detections(detections, expected):
    assert [d[:3] for d in detections] == [d[:3] for d in expected]
    np.testing.assert_allclose([d.score for d in detections], [d.score for d in expected],
                               rtol=0, atol=TOL)


@pytest.mark.parametrize("patch, stride", [(16, 4), (16, 8), (32, 8), (32, 4)])
@pytest.mark.parametrize("max_windows", [None, 57])  # 57 stops mid-row of the first scale
def test_detect_scales_match_per_window_crops(patch, stride, max_windows):
    """Sizes 1x, 1.5x, 2.25x and 3.375x the patch tile at the plain stride;
    at 5.06x (patch 32) the nearest-neighbour step does not, and falls back."""
    img, _ = road_scene(width=6 * patch + 5, height=5 * patch + 7,
                        rng=np.random.default_rng(stride))
    detector = CnnDetector(_untrained(1, patch, seed=patch + stride), patch_size=patch)
    _straddle(detector.network, img[None], stride, max_windows)
    expected = _per_window_detect(detector, img, stride, 1.5, max_windows)
    detections, flops = detector.detect(img, stride=stride, scale_factor=1.5,
                                        max_windows=max_windows)
    assert expected
    _assert_same_detections(detections, expected)
    windows = flops // detector.network.flops_per_sample()
    assert windows == (max_windows or detector.scan_flops(img.shape[1], img.shape[0], stride)
                       // detector.network.flops_per_sample())


def _variant(kind, patch=16, channels=4, seed=5):
    """A network one layer away from the ``make_tiny_cnn`` shape."""
    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, channels, 3, stride=2 if kind == "stride 2" else 1,
               pad=0 if kind == "pad 0" else 1, rng=rng),
        ReLU(),
        *([Dropout(0.5, rng=rng)] if kind == "dropout" else []),
        MaxPool2D(3 if kind == "pool 3" else 2),
        Conv2D(channels, 2 * channels, 3, pad=1, rng=rng),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
    ]
    (flat,) = Sequential(layers, (1, patch, patch)).output_shape()
    if kind == "extra dense":
        layers += [Dense(flat, 8, rng=rng), Dense(8, 2, rng=rng)]
    else:
        layers.append(Dense(flat, 2, rng=rng))
    return Sequential(layers, (1, patch, patch))


def _batched_detect(detector, img, stride, scale_factor):
    """Every window of a scale through one ``predict_proba``, as the fallback does."""
    patch = detector.patch_size
    detections, size = [], patch
    h, w = img.shape
    while size <= min(h, w):
        step = max(1, int(stride * size / patch))
        coords = [(y, x) for y in range(0, h - size + 1, step) for x in range(0, w - size + 1, step)]
        near = np.arange(patch) * size // patch
        batch = np.stack([img[y : y + size, x : x + size][np.ix_(near, near)] for y, x in coords])
        probs = detector.network.predict_proba(batch[:, None])
        detections += [Detection(x, y, size, float(probs[k, 1]))
                       for k, (y, x) in enumerate(coords) if probs[k, 1] > 0.5]
        size = int(round(size * scale_factor))
    return detections


@pytest.mark.parametrize("kind", ["dropout", "stride 2", "pad 0", "pool 3", "extra dense"])
def test_other_networks_fall_back_to_the_batched_path(kind):
    network = _variant(kind)
    assert not can_scan(network, 4)
    detector = CnnDetector(network, patch_size=16)
    img, _ = road_scene(width=70, height=54, rng=np.random.default_rng(2))
    expected = _batched_detect(detector, img, 4, 1.5)
    detections, _flops = detector.detect(img, stride=4, scale_factor=1.5)
    assert expected and detections == expected


def test_can_scan_wants_a_stride_in_whole_pool_cells():
    network = make_tiny_cnn((1, 16, 16))
    assert can_scan(network, 4) and can_scan(network, 8)
    assert not can_scan(network, 6) and not can_scan(network, 0)
    assert not can_scan(make_tiny_cnn((1, 4, 4)), 4)  # a 1x1 feature map has no interior


def test_detect_memory_peak_is_no_higher_than_the_batched_scan():
    detector = CnnDetector(make_tiny_cnn((1, 32, 32), channels=20, seed=1), patch_size=32)
    img, _ = road_scene(width=320, height=240, rng=np.random.default_rng(5))
    detector.detect(img)  # first call outside the trace
    tracemalloc.start()
    try:
        detector.detect(img)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= BATCHED_PEAK_BYTES
