"""Sequential network container with size/FLOP accounting and (de)serialization."""

from __future__ import annotations

import numpy as np

from .layers import Layer

__all__ = ["Sequential", "softmax", "cross_entropy"]

#: Largest batch :meth:`Sequential.predict_proba` runs in one forward pass;
#: bigger batches go through in blocks of this many samples, which keeps
#: each layer's intermediates cache-sized.  Set by a block-size sweep of
#: the perception CNN (see DESIGN.md, "Vectorized perception path").
PREDICT_BLOCK = 16


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, numerically stabilized."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of integer ``labels`` under ``probs``."""
    n = probs.shape[0]
    clipped = np.clip(probs[np.arange(n), labels], 1e-12, 1.0)
    return float(-np.log(clipped).mean())


class Sequential:
    """An ordered stack of layers with a classification head.

    ``input_shape`` is the per-sample shape (no batch dim); it drives FLOP
    and output-shape accounting.
    """

    def __init__(self, layers: list[Layer], input_shape: tuple[int, ...]):
        if not layers:
            raise ValueError("network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)

    # -- inference / training ------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, training=training)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if len(x) <= PREDICT_BLOCK:
            return softmax(self.forward(x))
        blocks = range(0, len(x), PREDICT_BLOCK)
        return np.concatenate([softmax(self.forward(x[i : i + PREDICT_BLOCK])) for i in blocks])

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.predict_proba(x).argmax(axis=1)

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(x) == labels).mean())

    # -- accounting ------------------------------------------------------------

    def parameters(self) -> list[tuple[Layer, str, np.ndarray]]:
        """All trainable arrays as (layer, name, array) triples."""
        out = []
        for layer in self.layers:
            for name, array in layer.params.items():
                out.append((layer, name, array))
        return out

    @property
    def param_count(self) -> int:
        return sum(arr.size for _, _, arr in self.parameters())

    def size_bytes(self, bits_per_weight: float = 32.0) -> float:
        """Dense storage footprint of the weights."""
        return self.param_count * bits_per_weight / 8.0

    def flops_per_sample(self) -> int:
        """Forward-pass FLOPs for one input sample."""
        total = 0
        shape = self.input_shape
        for layer in self.layers:
            total += layer.flops(shape)
            shape = layer.output_shape(shape)
        return total

    def output_shape(self) -> tuple[int, ...]:
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.output_shape(shape)
        return shape

    # -- (de)serialization -------------------------------------------------------

    def get_weights(self) -> list[np.ndarray]:
        return [arr.copy() for _, _, arr in self.parameters()]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        triples = self.parameters()
        if len(weights) != len(triples):
            raise ValueError(
                f"weight count mismatch: got {len(weights)}, need {len(triples)}"
            )
        for (layer, name, current), new in zip(triples, weights):
            if current.shape != new.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {current.shape} vs {new.shape}"
                )
            current[...] = new

    def save(self, path: str) -> None:
        arrays = {f"arr_{i}": arr for i, arr in enumerate(self.get_weights())}
        np.savez(path, **arrays)

    def load(self, path: str) -> None:
        data = np.load(path)
        self.set_weights([data[f"arr_{i}"] for i in range(len(data.files))])
