"""RMSprop updates and the exponential margin-weight schedule.

Plain RMSprop, no momentum and no centering:

    ms' = rho * ms + (1 - rho) * g^2
    p'  = p - lr * g / sqrt(ms' + eps)

with eps inside the square root. The margin weight gamma follows a
staircase exponential decay: gamma0 * rate^floor(iteration / interval).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .mlp import MlpGrads, MlpParams


@dataclass
class RmsState:
    """Running mean of squared gradients, mirroring the parameter shapes."""

    mean_square: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros_like(cls, params: MlpParams) -> "RmsState":
        return cls(mean_square=[(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers])


def rmsprop_step(
    params: MlpParams,
    grads: MlpGrads,
    state: RmsState,
    lr: float,
    rho: float = 0.9,
    eps: float = 1e-8,
) -> tuple[MlpParams, RmsState]:
    if len(grads) != len(params.layers) or len(state.mean_square) != len(params.layers):
        raise InvalidInputError("gradient/state structure does not match parameters")
    new_layers = []
    new_ms = []
    for (w, b), (gw, gb), (mw, mb) in zip(params.layers, grads, state.mean_square):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise InvalidInputError("gradient shapes do not match parameters")
        mw2 = rho * mw + (1.0 - rho) * gw * gw
        mb2 = rho * mb + (1.0 - rho) * gb * gb
        new_layers.append((w - lr * gw / np.sqrt(mw2 + eps), b - lr * gb / np.sqrt(mb2 + eps)))
        new_ms.append((mw2, mb2))
    return (
        MlpParams(layers=new_layers, final_normalize=params.final_normalize),
        RmsState(mean_square=new_ms),
    )


def gamma_at(iteration: int, gamma0: float, decay_rate: float, interval: int) -> float:
    if iteration < 0:
        raise InvalidInputError("iteration must be nonnegative")
    if interval < 1:
        raise InvalidInputError("decay interval must be at least 1")
    return gamma0 * decay_rate ** (iteration // interval)
