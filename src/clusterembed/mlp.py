"""Small fully connected embedding network with explicit backprop.

The embedding function is a stack of affine layers with ReLU between
them (none after the last), optionally followed by row l2-normalization
so embeddings live on the unit sphere. Forward returns a cache of layer
outputs that ``backward`` consumes to produce parameter gradients from an
upstream gradient w.r.t. the embeddings.

Everything is float64: the package's gradient checks compare against
central finite differences at 1e-4 relative error, which 32-bit
arithmetic cannot reliably meet. Checkpoints are a line-oriented text
format using shortest-round-trip decimals, so save/load is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding_ops import EmbeddingBatch, l2_normalize_rows, l2_normalize_rows_backward
from .errors import InvalidInputError

CHECKPOINT_HEADER = "mlp-checkpoint v1"


@dataclass
class MlpParams:
    """Layer parameters: list of (weight d_out x d_in, bias d_out)."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    final_normalize: bool = False

    def __post_init__(self) -> None:
        if not self.layers:
            raise InvalidInputError("network needs at least one layer")
        prev_out = None
        for idx, (w, b) in enumerate(self.layers):
            if w.ndim != 2 or b.ndim != 1 or b.shape[0] != w.shape[0]:
                raise InvalidInputError(f"layer {idx} weight/bias shapes inconsistent")
            if prev_out is not None and w.shape[1] != prev_out:
                raise InvalidInputError(
                    f"layer {idx} expects input width {w.shape[1]}, previous layer emits {prev_out}"
                )
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise InvalidInputError(f"layer {idx} has non-finite parameters")
            prev_out = w.shape[0]

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1][0].shape[0]


@dataclass
class ForwardCache:
    """Intermediates retained for backward: the input and each layer's
    post-activation output. The last output is the normalization input, and
    a ReLU output is positive exactly where its pre-activation is."""

    x: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)


MlpGrads = list[tuple[np.ndarray, np.ndarray]]


def init_params(
    layer_dims: list[int], final_normalize: bool, rng: np.random.Generator
) -> MlpParams:
    """Weights uniform in [-a, a] with a = sqrt(6 / (d_in + d_out)); zero biases."""
    if len(layer_dims) < 2:
        raise InvalidInputError("layer_dims must name at least input and output widths")
    layers = []
    for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
        a = np.sqrt(6.0 / (d_in + d_out))
        w = rng.uniform(-a, a, size=(d_out, d_in))
        layers.append((w, np.zeros(d_out)))
    return MlpParams(layers=layers, final_normalize=final_normalize)


def forward(params: MlpParams, x: np.ndarray) -> tuple[EmbeddingBatch, ForwardCache]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise InvalidInputError(f"input must be 2-D, got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise InvalidInputError(
            f"input width {x.shape[1]} does not match first layer width {params.input_dim}"
        )
    cache = ForwardCache(x=x)
    h = x
    last = len(params.layers) - 1
    for idx, (w, b) in enumerate(params.layers):
        z = h @ w.T + b
        h = np.maximum(z, 0.0) if idx < last else z
        cache.activations.append(h)
    if params.final_normalize:
        batch = l2_normalize_rows(EmbeddingBatch(h))
    else:
        batch = EmbeddingBatch(h)
    return batch, cache


def backward(params: MlpParams, cache: ForwardCache, d_embeddings: np.ndarray) -> MlpGrads:
    """Parameter gradients from an upstream embedding gradient.

    ReLU uses subgradient 0 at exactly zero pre-activation.
    """
    d_embeddings = np.asarray(d_embeddings, dtype=np.float64)
    if len(cache.activations) != len(params.layers):
        raise InvalidInputError("cache does not match the network depth")
    if d_embeddings.shape != cache.activations[-1].shape:
        raise InvalidInputError(
            f"upstream gradient shape {d_embeddings.shape} does not match "
            f"output shape {cache.activations[-1].shape}"
        )
    if params.final_normalize:
        dh = l2_normalize_rows_backward(cache.activations[-1], d_embeddings)
    else:
        dh = d_embeddings

    grads: MlpGrads = [None] * len(params.layers)  # type: ignore[list-item]
    last = len(params.layers) - 1
    for idx in range(last, -1, -1):
        w, _ = params.layers[idx]
        dz = dh if idx == last else dh * (cache.activations[idx] > 0.0)
        below = cache.x if idx == 0 else cache.activations[idx - 1]
        grads[idx] = (dz.T @ below, dz.sum(axis=0))
        if idx > 0:
            dh = dz @ w
    return grads


def save_checkpoint(params: MlpParams, path: str | Path) -> None:
    lines = [CHECKPOINT_HEADER]
    for w, b in params.layers:
        d_out, d_in = w.shape
        lines.append(f"layer {d_out} {d_in}")
        for row, bias in zip(w, b):
            lines.append(" ".join(repr(v) for v in [*row.tolist(), float(bias)]))
    lines.append(f"normalize {1 if params.final_normalize else 0}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_checkpoint(path: str | Path) -> MlpParams:
    """Parameters saved by ``save_checkpoint``. A malformed file raises
    InvalidInputError naming the line at fault; a file that ends too early
    names the line after its last."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    end = len(lines) + 1

    def malformed(lineno: int, message: str) -> InvalidInputError:
        return InvalidInputError(f"{path} line {lineno}: {message}")

    if not lines or lines[0] != CHECKPOINT_HEADER:
        raise malformed(1, f"missing checkpoint header {CHECKPOINT_HEADER!r}")
    pos = 1
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    final_normalize = None
    while pos < len(lines):
        line = lines[pos]
        if line.startswith("layer "):
            parts = line.split()
            if len(parts) != 3:
                raise malformed(pos + 1, "malformed layer line")
            try:
                d_out, d_in = int(parts[1]), int(parts[2])
            except ValueError:
                raise malformed(pos + 1, "non-integer layer dims") from None
            if d_out < 1 or d_in < 1:
                raise malformed(pos + 1, "layer dims must be at least 1")
            if layers and d_in != layers[-1][0].shape[0]:
                raise malformed(
                    pos + 1,
                    f"layer expects input width {d_in}, previous layer emits "
                    f"{layers[-1][0].shape[0]}",
                )
            rows = []
            for r in range(d_out):
                pos += 1
                if pos >= len(lines):
                    raise malformed(end, "truncated layer block")
                fields = lines[pos].split()
                if len(fields) != d_in + 1:
                    raise malformed(pos + 1, f"expected {d_in + 1} values, got {len(fields)}")
                try:
                    rows.append([float(v) for v in fields])
                except ValueError:
                    raise malformed(pos + 1, "non-numeric value") from None
                if not np.isfinite(rows[-1]).all():
                    raise malformed(pos + 1, "non-finite value")
            block = np.array(rows, dtype=np.float64)
            layers.append((block[:, :-1], block[:, -1]))
            pos += 1
        elif line.startswith("normalize "):
            if final_normalize is not None:
                raise malformed(pos + 1, "second normalize line")
            flag = line.split()[-1]
            if flag not in ("0", "1"):
                raise malformed(pos + 1, "normalize flag must be 0 or 1")
            final_normalize = flag == "1"
            pos += 1
        elif line.strip() == "":
            pos += 1
        else:
            raise malformed(pos + 1, f"unrecognized line {line!r}")
    if not layers:
        raise malformed(end, "no layer block")
    if final_normalize is None:
        raise malformed(end, "missing normalize line")
    return MlpParams(layers=layers, final_normalize=final_normalize)
