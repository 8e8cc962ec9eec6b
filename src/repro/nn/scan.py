"""Shared-trunk scan: a patch classifier's scores for every window of an image.

:func:`scan_proba` returns what ``network.predict_proba`` gives for every
stride-spaced ``patch x patch`` crop of an image, in row-major order, for
a network of the :func:`~repro.nn.zoo.make_tiny_cnn` shape: [3x3
``Conv2D`` (pad 1, stride 1), ``ReLU``, ``MaxPool2D(2)``] twice, then
``Flatten`` and ``Dense``.  Overlapping windows share their convolutions
instead of each running its own.

Why the sharing is exact.  Inside a window, a stage's map equals the same
stage run over the whole image, except on a ring one cell wide where the
window's own zero padding hides the image beyond its edge.  Window origins
are multiples of 4 pixels, so both 2x2 pools tile the whole-image maps.  A
ring cell on a window's top or bottom edge depends only on the window's
row, and one on its left or right edge only on the window's column.  So:

* the whole-image trunk runs once; it gives every window's interior;
* the top and bottom edges run once per window row, across the full width,
  and the left and right edges once per window column, down the full
  height (conv2's edges read conv1's pooled edges);
* only the four corners are computed per window: conv1's 2x2 pool cell and
  conv2's 2x2 output block at each;
* the ``Dense`` head runs per window on the assembled features.

Every conv output is the layer's ``W`` times the same zero-padded 3x3
neighbourhood, in the same im2col order, as in the per-window pass, and
the head runs in ``predict_proba``'s blocks.  Where the BLAS computes a
GEMM element the same whatever the GEMM's width (OpenBLAS does), the
scores equal the batched ``predict_proba`` of the window crops bit for
bit.  Maps are laid out (C, H, W, *batch): with the batch axes last,
the im2col copy of many small maps (window corners, edge strips) runs
over long contiguous rows.  Window rows go through in bands and every
im2col stack is bounded, so the working memory stays near that of one
blocked ``predict_proba`` call.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from .network import PREDICT_BLOCK, Sequential, softmax

__all__ = ["can_scan", "scan_proba"]

_SHAPE = (Conv2D, ReLU, MaxPool2D, Conv2D, ReLU, MaxPool2D, Flatten, Dense)

#: Most float64 values one scan step holds in an im2col stack, a conv
#: output or a band of window features.
_BLOCK_VALUES = 1 << 18

_FOUR = np.arange(4)


def _layers(network: Sequential) -> tuple[Conv2D, Conv2D, Dense] | None:
    """The two convs and the head of a ``make_tiny_cnn``-shaped network, else None."""
    layers = network.layers
    if tuple(type(layer) for layer in layers) != _SHAPE:
        return None
    convs = layers[0], layers[3]
    if any(conv.W.shape[2:] != (3, 3) or conv.pad != 1 or conv.stride != 1 for conv in convs):
        return None
    if layers[2].size != 2 or layers[5].size != 2:
        return None
    _channels, height, width = network.input_shape
    if height != width or height % 4 or height < 8:
        return None
    return convs[0], convs[1], layers[7]


def can_scan(network: Sequential, stride: int) -> bool:
    """Whether :func:`scan_proba` handles ``network`` at window ``stride``."""
    return stride > 0 and stride % 4 == 0 and _layers(network) is not None


def _stage(conv: Conv2D, xp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``conv`` over zero-padded maps ``xp`` (C, H+2, W+2, *batch), then 2x2 max-pool and ReLU.

    Writes (oc, H/2, W/2, *batch) into ``out``, in blocks of output rows
    so that no im2col stack or conv output exceeds :data:`_BLOCK_VALUES`.
    The bias and the ReLU follow the pool, on a quarter of the cells: float
    addition and ``max`` are monotone, so ``max(a + b, c + b)`` is
    ``max(a, c) + b`` and the ReLU commutes with the max, bit for bit.
    """
    c, hp, wp, *batch = xp.shape
    oc = conv.W.shape[0]
    h, w = hp - 2, wp - 2
    if out is None:
        out = np.empty((oc, h // 2, w // 2, *batch))
    kernel = conv.W.reshape(oc, -1)
    bias = conv.b.reshape(oc, *[1] * (xp.ndim - 1))
    step = max(2, _BLOCK_VALUES // (w * int(np.prod(batch)) * max(9 * c, oc)) // 2 * 2)
    sc, sh, sw, *sb = xp.strides
    for r in range(0, h, step):
        rows = min(step, h - r)
        cols = np.lib.stride_tricks.as_strided(
            xp[:, r:], shape=(c, 3, 3, rows, w, *batch), strides=(sc, sh, sw, sh, sw, *sb))
        conv_out = (kernel @ cols.reshape(9 * c, -1)).reshape(oc, rows, w, *batch)
        pooled = np.maximum(conv_out[:, 0::2], conv_out[:, 1::2])
        pooled = np.maximum(pooled[:, :, 0::2], pooled[:, :, 1::2])
        pooled += bias
        np.maximum(pooled, 0.0, out=out[:, r // 2 : (r + rows) // 2])
    return out


def _edges(conv: Conv2D, padded: np.ndarray, first: np.ndarray, span: int, axis: int,
           inner: np.ndarray | None = None) -> np.ndarray:
    """A stage on the near and far edges of many windows, along the whole other axis.

    ``padded`` is a whole-image map (C, H+2, W+2) with its zero ring; the
    windows start at padded line ``first`` on ``axis`` (1: rows, 2:
    columns) and span ``span`` lines.  The stage's input at each edge is
    4 padded lines: the window's padding line (zeroed), its two edge lines
    and one inner line.  ``inner`` (C, L+2, 2, n), the previous stage's
    edges, replaces the outermost edge line.  Returns the pooled edge
    lines as (oc, L/2 + 2, 2 [near, far], n), zero at both ends.
    """
    n = len(first)
    length = padded.shape[3 - axis]
    out = np.zeros((conv.W.shape[0], length // 2 + 1, 2, n))
    group = max(1, _BLOCK_VALUES // (8 * padded.shape[0] * length))
    for g in range(0, n, group):
        part = slice(g, g + group)
        lines = _FOUR[:, None, None] + np.stack([first[part], first[part] + span - 2])
        if axis == 1:  # x: (C, 4, W+2, 2, m)
            x = edge = padded[:, lines[:, None], np.arange(length)[:, None, None]]
        else:  # x: (C, H+2, 4, 2, m)
            x = padded[:, :, lines]
            edge = x.swapaxes(1, 2)
        edge[:, 0, :, 0] = 0.0
        edge[:, 3, :, 1] = 0.0
        if inner is not None:
            edge[:, 1, :, 0] = inner[:, :, 0, part]
            edge[:, 2, :, 1] = inner[:, :, 1, part]
        _stage(conv, x, out=out[:, None, 1:-1, :, part] if axis == 1 else out[:, 1:-1, None, :, part])
    return out


def _corners(conv: Conv2D, padded: np.ndarray, first_y: np.ndarray, first_x: np.ndarray,
             span: int, ring: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """A stage at the four corners of every window on the grid ``first_y`` x ``first_x``.

    Each corner's input is a 4x4 padded block with the window's padding
    row and column zeroed; windows start at padded lines (``first_y``,
    ``first_x``) and span ``span`` lines.  ``ring`` = (row edges
    (C, W+2, 2, ny), column edges (C, H+2, 2, nx), corner cells
    (C, 2, 2, ny, nx)) are the previous stage's outputs on the window's
    ring, which replace the block's edge row, edge column and corner.
    Returns (oc, 2 [top, bottom], 2 [left, right], ny, nx).
    """
    fy = _FOUR[:, None, None] + np.stack([first_y, first_y + span - 2])  # (4, 2, ny)
    fx = _FOUR[:, None, None] + np.stack([first_x, first_x + span - 2])  # (4, 2, nx)
    # (C, 4 rows, 4 columns, 2 [top, bottom], 2 [left, right], ny, nx)
    blocks = padded[:, fy[:, None, :, None, :, None], fx[None, :, None, :, None, :]]
    if ring is not None:
        row_edges, column_edges, cells = ring
        for v in (0, 1):
            for u in (0, 1):
                block = blocks[:, :, :, v, u]
                block[:, 1 + v] = row_edges[:, fx[:, u], v].swapaxes(2, 3)
                block[:, :, 1 + u] = column_edges[:, fy[:, v], u]
                block[:, 1 + v, 1 + u] = cells[:, v, u]
    blocks[:, 0, :, 0] = 0.0
    blocks[:, 3, :, 1] = 0.0
    blocks[:, :, 0, :, 0] = 0.0
    blocks[:, :, 3, :, 1] = 0.0
    return _stage(conv, blocks)[:, 0, 0]


def _blocks(arrays, size: int):
    """The rows of the ``arrays`` stream in consecutive blocks of ``size`` rows.

    Only the last block may be shorter.  A block is a view into one array,
    or a copy where it straddles two.
    """
    carry = None
    for rows in arrays:
        if carry is not None:
            need = size - len(carry)
            carry, rows = np.concatenate([carry, rows[:need]]), rows[need:]
            if len(carry) < size:
                continue
            yield carry
        full = len(rows) // size * size
        yield from (rows[i : i + size] for i in range(0, full, size))
        carry = rows[full:] if full < len(rows) else None
    if carry is not None:
        yield carry


def scan_proba(network: Sequential, image: np.ndarray, stride: int,
               count: int | None = None) -> np.ndarray:
    """``network.predict_proba`` of the windows of ``image``, row-major.

    ``image`` is (C, H, W); the windows are the network's ``patch x patch``
    input size, ``stride`` apart, from the top-left corner.  Only the first
    ``count`` windows are scored (all by default).  The ``Dense`` head runs
    in ``predict_proba``'s blocks of :data:`~repro.nn.network.PREDICT_BLOCK`
    windows, counted from the first, as ``predict_proba`` on the batch of
    window crops would.  Returns (windows, classes).  Raises
    ``ValueError`` unless :func:`can_scan`.
    """
    if not can_scan(network, stride):
        raise ValueError("scan_proba needs a make_tiny_cnn-shaped network and a stride "
                         "that is a positive multiple of 4")
    conv1, conv2, dense = _layers(network)
    channels, patch, _ = network.input_shape
    if image.ndim != 3 or image.shape[0] != channels:
        raise ValueError(f"expected a ({channels}, H, W) image, got {image.shape}")
    ny = max(0, (image.shape[1] - patch) // stride + 1)
    nx = max(0, (image.shape[2] - patch) // stride + 1)
    count = ny * nx if count is None else max(0, min(count, ny * nx))
    if count == 0:
        return np.empty((0, dense.W.shape[1]))
    ny = -(-count // nx)  # the window rows the first ``count`` windows reach
    height, width = (ny - 1) * stride + patch, (nx - 1) * stride + patch
    half, quarter = patch // 2, patch // 4

    # The whole-image trunk gives every window's interior.
    img = np.pad(image[:, :height, :width], ((0, 0), (1, 1), (1, 1)))
    b1 = np.zeros((conv1.W.shape[0], height // 2 + 2, width // 2 + 2))
    _stage(conv1, img, out=b1[:, 1:-1, 1:-1])
    p2 = _stage(conv2, b1)
    interiors = np.moveaxis(sliding_window_view(p2, (quarter, quarter), axis=(1, 2)), 0, 2)

    # Window origin x0 (pixels) is padded line x0 in the padded image (its
    # padding line comes first) and padded line x0 / 2 in padded b1.
    xs = np.arange(nx) * stride
    columns1 = _edges(conv1, img, xs, patch, 2)
    columns2 = _edges(conv2, b1, xs // 2, half, 2, columns1)[:, 1:-1]
    across = np.arange(quarter)[:, None]

    def features():
        """Each band's (windows, features) rows, in ``Flatten`` order."""
        band = max(1, _BLOCK_VALUES // (nx * dense.W.shape[0]))
        for k in range(0, ny, band):
            y = np.arange(k, min(k + band, ny)) * stride
            rows1 = _edges(conv1, img, y, patch, 1)
            rows2 = _edges(conv2, b1, y // 2, half, 1, rows1)[:, 1:-1]
            cells = _corners(conv1, img, y, xs, patch)
            corners = _corners(conv2, b1, y // 2, xs // 2, half, (rows1, columns1, cells))

            at_y, at_x = across + y // 4, across + xs // 4  # (q, rows), (q, nx)
            feat = interiors[y[:, None] // 4, xs // 4]  # (rows, nx, oc, q, q), a copy
            feat[..., 0, :] = rows2[:, at_x, 0].transpose(3, 2, 0, 1)
            feat[..., -1, :] = rows2[:, at_x, 1].transpose(3, 2, 0, 1)
            feat[..., 0] = columns2[:, at_y, 0].transpose(2, 3, 0, 1)
            feat[..., -1] = columns2[:, at_y, 1].transpose(2, 3, 0, 1)
            feat[..., :: quarter - 1, :: quarter - 1] = corners.transpose(3, 4, 0, 1, 2)
            yield feat.reshape(len(y) * nx, -1)[: count - k * nx]

    blocks = _blocks(features(), PREDICT_BLOCK)
    return np.concatenate([softmax(dense.forward(block)) for block in blocks])
