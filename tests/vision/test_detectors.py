"""Tests for Haar and CNN vehicle detectors and the Table I harness."""

import numpy as np
import pytest

from repro.hw import catalog
from repro.nn.zoo import make_tiny_cnn
from repro.vision import (
    CnnDetector,
    Detection,
    HaarFeature,
    background_patch,
    integral_image,
    make_patch_dataset,
    rect_sum,
    road_scene,
    table1_rows,
    train_cnn_detector,
    train_haar_detector,
    vehicle_patch,
)


def test_integral_image_rect_sum_matches_direct():
    rng = np.random.default_rng(0)
    img = rng.random((10, 12))
    ii = integral_image(img)
    assert rect_sum(ii, 3, 2, 5, 4) == pytest.approx(img[2:6, 3:8].sum())
    assert rect_sum(ii, 0, 0, 12, 10) == pytest.approx(img.sum())


def test_integral_image_rejects_non_2d():
    with pytest.raises(ValueError):
        integral_image(np.zeros((2, 2, 2)))


def test_rect_sum_vectorized():
    rng = np.random.default_rng(1)
    img = rng.random((20, 20))
    ii = integral_image(img)
    xs = np.array([0, 5, 10])
    ys = np.array([0, 2, 4])
    sums = rect_sum(ii, xs, ys, 4, 4)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert sums[i] == pytest.approx(img[y : y + 4, x : x + 4].sum())


def test_haar_feature_validation():
    with pytest.raises(ValueError):
        HaarFeature("diagonal", 0, 0, 1, 1)


def test_haar_feature_two_h_sign():
    # Image brighter on the right: two_h (right - left) should be positive.
    img = np.zeros((24, 24))
    img[:, 12:] = 1.0
    ii = integral_image(img)
    feature = HaarFeature("two_h", 0.0, 0.0, 1.0, 1.0)
    assert feature.evaluate(ii, 0, 0, 24) > 0


def _patches(n, rng):
    positives = [vehicle_patch(24, rng) for _ in range(n)]
    negatives = [background_patch(24, rng) for _ in range(n)]
    return positives, negatives


def test_haar_training_validation():
    with pytest.raises(ValueError):
        train_haar_detector([], [np.zeros((24, 24))])


def test_haar_detector_separates_patches():
    rng = np.random.default_rng(0)
    positives, negatives = _patches(50, rng)
    detector = train_haar_detector(positives, negatives, rounds=12, rng=rng)
    test_pos = [vehicle_patch(24, rng) for _ in range(20)]
    test_neg = [background_patch(24, rng) for _ in range(20)]
    tp = sum(detector.classify_patch(p) for p in test_pos)
    fp = sum(detector.classify_patch(p) for p in test_neg)
    assert tp >= 16  # >= 80% recall
    assert fp <= 4   # <= 20% false positives


def test_haar_detect_finds_vehicle_region_on_scene():
    rng = np.random.default_rng(3)
    positives, negatives = _patches(50, rng)
    detector = train_haar_detector(positives, negatives, rounds=12, rng=rng)
    img, truth = road_scene(width=160, height=120, rng=rng, vehicle_count=1)
    detections, ops = detector.detect(img, step=4)
    assert ops > 0
    vx, vy, vw, vh = truth.vehicle_boxes[0]
    hit = any(
        vx - d.size <= d.x <= vx + vw and vy - d.size <= d.y <= vy + vh
        for d in detections
    )
    assert hit


def test_haar_scan_ops_analytic_matches_executed():
    rng = np.random.default_rng(4)
    positives, negatives = _patches(30, rng)
    detector = train_haar_detector(positives, negatives, rounds=5, rng=rng)
    img, _ = road_scene(width=100, height=80, rng=rng)
    _dets, executed = detector.detect(img, step=2)
    analytic = detector.scan_ops(100, 80, step=2)
    # Analytic count uses ceil-grid; executed uses arange -- within 20%.
    assert executed == pytest.approx(analytic, rel=0.2)


def test_cnn_detector_separates_patches():
    rng = np.random.default_rng(0)
    detector = train_cnn_detector(patch_size=32, train_count=120, epochs=6, rng=rng)
    correct = 0
    for _ in range(20):
        correct += detector.classify_patch(vehicle_patch(32, rng)) is True
        correct += detector.classify_patch(background_patch(32, rng)) is False
    assert correct >= 32  # >= 80% accuracy over 40 trials


def test_cnn_scan_flops_scales_with_area():
    rng = np.random.default_rng(1)
    detector = train_cnn_detector(patch_size=32, train_count=40, epochs=1, rng=rng)
    small = detector.scan_flops(160, 120)
    large = detector.scan_flops(640, 480)
    assert large > 10 * small


def test_patch_dataset_is_balanced():
    x, y = make_patch_dataset(40, 16, np.random.default_rng(0))
    assert x.shape == (40, 1, 16, 16)
    assert (y == 0).sum() == 20 and (y == 1).sum() == 20


def test_table1_ordering_and_ratios():
    """The paper's Table I: lane << Haar << CNN, with Haar ~51x faster
    than the deep detector."""
    rows = table1_rows(rng=np.random.default_rng(0))
    lane, haar, cnn = (row.latency_ms for row in rows)
    assert lane < haar < cnn
    assert 20 < cnn / haar < 110  # paper: 51.9x
    assert 5 < haar / lane < 80   # paper: 19.9x


def test_table1_faster_processor_gives_lower_latency():
    rows_cpu = table1_rows(rng=np.random.default_rng(0))
    rows_v100 = table1_rows(
        processor=catalog.tesla_v100(), rng=np.random.default_rng(0)
    )
    # Same op counts, faster DNN silicon.
    assert rows_v100[2].latency_ms < rows_cpu[2].latency_ms
    assert rows_v100[2].ops == rows_cpu[2].ops


# -- vectorized scans pinned to the per-window paths they replaced -----------


@pytest.fixture(scope="module")
def haar_detector():
    rng = np.random.default_rng(6)
    positives, negatives = _patches(30, rng)
    return train_haar_detector(positives, negatives, rounds=12, rng=rng)


@pytest.mark.parametrize("step", [1, 4])
def test_haar_grid_scores_equal_per_window_scores(haar_detector, step):
    rng = np.random.default_rng(step)
    for h, w in ((60, 80), (47, 53)):
        ii = integral_image(rng.random((h, w)))
        size = haar_detector.window
        while size < min(h, w):
            xs0, ys0 = np.arange(0, w - size, step), np.arange(0, h - size, step)
            gx, gy = np.meshgrid(xs0, ys0)
            grid = haar_detector.score_grid(ii, xs0, ys0, size)
            per_window = haar_detector.score_windows(ii, gx.ravel(), gy.ravel(), size)
            assert grid.shape == (len(ys0), len(xs0))
            assert np.array_equal(grid.ravel(), per_window)
            size = int(round(size * 1.25))


def test_haar_grid_scoring_falls_back_off_a_progression(haar_detector):
    ii = integral_image(np.random.default_rng(9).random((50, 60)))
    xs0 = np.array([0, 1, 3, 7, 8, 20, 31])  # not an arithmetic progression
    ys0 = np.array([2, 5, 6, 19])
    gx, gy = np.meshgrid(xs0, ys0)
    grid = haar_detector.score_grid(ii, xs0, ys0, 18)
    assert np.array_equal(grid.ravel(), haar_detector.score_windows(ii, gx.ravel(), gy.ravel(), 18))


@pytest.mark.parametrize("step", [1, 4])
def test_haar_detect_equals_meshgrid_scan(haar_detector, step):
    img, _ = road_scene(width=120, height=90, rng=np.random.default_rng(11))
    ii = integral_image(img)
    accept = haar_detector.threshold_fraction * sum(c.alpha for c in haar_detector.classifiers)
    expected = []
    size = haar_detector.window
    while size <= 90:
        gx, gy = np.meshgrid(np.arange(0, 120 - size, step), np.arange(0, 90 - size, step))
        xs, ys = gx.ravel(), gy.ravel()
        scores = haar_detector.score_windows(ii, xs, ys, size)
        hits = scores >= accept
        expected += [Detection(int(x), int(y), size, float(s))
                     for x, y, s in zip(xs[hits], ys[hits], scores[hits])]
        size = int(round(size * 1.25))
    detections, _ops = haar_detector.detect(img, step=step)
    assert detections == expected


def _per_window_cnn_detect(detector, img, stride, scale_factor, max_windows):
    """One crop and one nearest-neighbour resize per window, then one batch per scale."""
    patch = detector.patch_size
    detections, size, done = [], patch, 0
    h, w = img.shape
    while size <= min(h, w) and (max_windows is None or done < max_windows):
        step = max(1, int(stride * size / patch))
        coords = [(y, x) for y in range(0, h - size + 1, step) for x in range(0, w - size + 1, step)]
        if max_windows is not None:
            coords = coords[: max_windows - done]
        near = (np.arange(patch) * size // patch).clip(0, size - 1)
        batch = np.stack([img[y : y + size, x : x + size][np.ix_(near, near)] for y, x in coords])
        probs = detector.network.predict_proba(batch[:, None])
        detections += [Detection(x, y, size, float(probs[k, 1]))
                       for k, (y, x) in enumerate(coords) if probs[k, 1] > 0.5]
        done += len(coords)
        size = int(round(size * scale_factor))
    return detections


@pytest.mark.parametrize("max_windows", [None, 326])  # 326 cuts into the second scale
def test_cnn_window_assembly_equals_per_window_crops(max_windows):
    detector = CnnDetector(make_tiny_cnn(input_shape=(1, 16, 16), channels=4, seed=2), patch_size=16)
    img, _ = road_scene(width=90, height=70, rng=np.random.default_rng(12))
    expected = _per_window_cnn_detect(detector, img, 4, 1.5, max_windows)
    detections, flops = detector.detect(img, stride=4, scale_factor=1.5, max_windows=max_windows)
    assert expected and detections == expected
    if max_windows is not None:
        assert flops == max_windows * detector.network.flops_per_sample()
