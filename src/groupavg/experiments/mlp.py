"""Sign-flip-invariant regression with a small ReLU network.

Trains a plain-SGD multilayer perceptron on Gaussian inputs labeled by
an invariant target, then averages predictions at evaluation time over
fixed random subsets of the sign-flip group acting on the input, and
records test loss versus subset size and versus training epoch.
Training never sees the subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingFailureError, UsageError, check_bytes

INIT_SCALE = 1.0  # weights/biases ~ U(-c/sqrt(fan_in), +c/sqrt(fan_in)) with c = 1
# Sign patterns per forward call in averaged_predictions.  Per-pattern
# predictions are summed within a chunk first, so this constant fixes
# the summation order and with it the bits of every averaged prediction.
PATTERN_CHUNK = 32
# Flipped rows per forward call within a chunk; the remainder joins the
# last block.  Every block starts at a multiple of this power of two, so
# each row sits where it would in one call over the whole chunk, and the
# BLAS kernels (one thread) give it the same bits.
FORWARD_ROWS = 1024
# MlpConfig refuses a run whose peak passes the cap.  Peak RSS growth read
# 16 * dim + 8 bytes per input (328 and 648 at dims 20 and 40), up to 280 more
# per test input (one chunk's averaged predictions) and 24.4 * dim per sign
# pattern of one subset, which the smaller subsets raise to 32 * (dim + 1); 24.3
# per weight (with its gradient and update), 25.1 per batch row and hidden unit
# in an SGD step, and 8.1 per row and hidden unit in an evaluation forward pass
# of at most max(min(epoch_eval, test), 2 * FORWARD_ROWS) rows.


@dataclass
class MlpConfig:
    input_dim: int = 20
    n_train: int = 50_000
    n_test: int = 50_000
    widths: tuple[int, int] = (128, 64)
    learning_rate: float = 1e-3
    batch_size: int = 256
    epochs: int = 500
    subset_exponents: tuple[int, ...] = tuple(range(11))
    curve_subset_exponent: int = 5  # |S| = 32 for the per-epoch curves
    epoch_eval_size: int = 2000  # subsample used for per-epoch curves
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise UsageError("input dimension must be >= 1")
        if min(self.widths) < 1:
            raise UsageError("hidden widths must be >= 1")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise UsageError(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise UsageError("batch size must be >= 1")
        if self.epochs < 1:
            raise UsageError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size > self.n_train:
            raise UsageError("batch size cannot exceed the training set")
        if self.n_test < 1 or self.epoch_eval_size < 1:
            raise UsageError("test and per-epoch evaluation sets need at least one point")
        if max(self.subset_exponents, default=0) > self.input_dim:
            raise UsageError("subset exponent exceeds the group size exponent")
        if min(self.subset_exponents, default=0) < 0:
            raise UsageError("subset exponents must be >= 0")
        if not 0 <= self.curve_subset_exponent <= self.input_dim:
            raise UsageError("curve subset exponent must lie in 0..input_dim")
        exponent = max((*self.subset_exponents, self.curve_subset_exponent))
        (w1, w2), rows = self.widths, max(min(self.epoch_eval_size, self.n_test), 2 * FORWARD_ROWS)
        # 2**63 patterns pass any cap already; a smaller shift keeps the integer small
        need = ((self.n_train + self.n_test) * (16 * self.input_dim + 8) + self.n_test * 280
                + (32 * (self.input_dim + 1) << min(exponent, 63))
                + 24 * (self.input_dim * w1 + w1 * w2 + w2) + (w1 + w2) * max(25 * self.batch_size, 8 * rows))
        check_bytes(need, "inputs, sign patterns, weights and activations need",
                    "(train + test) * (16 * dim + 8) + test * 280 + 2**max_exponent * 32 * (dim + 1) "
                    "+ 24 * weights + (width1 + width2) * max(25 * batch, 8 * forward rows)")


class SignAveragedMlp:
    """d -> h1 -> h2 -> 1 rectifier network trained with plain SGD."""

    def __init__(self, input_dim: int, widths: tuple[int, int], rng: np.random.Generator):
        dims = [input_dim, widths[0], widths[1], 1]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = INIT_SCALE / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        h = h @ self.weights[-1]
        h += self.biases[-1]
        return h.ravel()

    def sgd_step(self, x: np.ndarray, y: np.ndarray, lr: float) -> float:
        h1_pre = x @ self.weights[0] + self.biases[0]
        h1 = np.maximum(h1_pre, 0.0)
        h2_pre = h1 @ self.weights[1] + self.biases[1]
        h2 = np.maximum(h2_pre, 0.0)
        pred = (h2 @ self.weights[2] + self.biases[2]).ravel()
        err = pred - y
        loss = float((err**2).mean())
        batch = x.shape[0]
        grad_out = (2.0 / batch) * err[:, None]
        gw2 = h2.T @ grad_out
        gb2 = grad_out.sum(axis=0)
        gh2 = (grad_out @ self.weights[2].T) * (h2_pre > 0.0)
        gw1 = h1.T @ gh2
        gb1 = gh2.sum(axis=0)
        gh1 = (gh2 @ self.weights[1].T) * (h1_pre > 0.0)
        gw0 = x.T @ gh1
        gb0 = gh1.sum(axis=0)
        for w, g in zip(self.weights, (gw0, gw1, gw2)):
            w -= lr * g
        for b, g in zip(self.biases, (gb0, gb1, gb2)):
            b -= lr * g
        return loss


def averaged_predictions(model: SignAveragedMlp, x: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Mean prediction over sign patterns applied to the inputs.

    ``model`` needs only ``forward``.  Patterns go through it
    ``PATTERN_CHUNK`` at a time, as one batch of flipped inputs, pattern
    by pattern; each chunk's predictions are summed over its patterns and
    added to the running total, in pattern order.  The batch is built and
    evaluated ``FORWARD_ROWS`` rows at a time, so memory beyond the
    chunk's predictions does not grow with the number of inputs.
    """
    n = x.shape[0]
    total = np.zeros(n)
    for start in range(0, signs.shape[0], PATTERN_CHUNK):
        block = signs[start : start + PATTERN_CHUNK]
        rows = block.shape[0] * n
        edges = np.arange(max(1, rows // FORWARD_ROWS) + 1) * FORWARD_ROWS
        edges[-1] = rows
        preds = np.empty(rows)
        for lo, hi in zip(edges[:-1].tolist(), edges[1:].tolist()):
            row = np.arange(lo, hi)  # pattern row // n applied to input row % n
            preds[lo:hi] = model.forward(x[row % n] * block[row // n])
        total += preds.reshape(block.shape[0], n).sum(axis=0)
    return total / signs.shape[0]


def draw_sign_subsets(
    input_dim: int, exponents: tuple[int, ...], rng: np.random.Generator
) -> dict[int, np.ndarray]:
    """Fixed random sign-pattern subsets of sizes 2**k, one draw per k.

    k = 0 is pinned to the identity pattern (no flips); larger subsets
    are drawn without replacement from all 2**d patterns.
    """
    out: dict[int, np.ndarray] = {}
    n_patterns = 1 << input_dim
    shifts = input_dim - 1 - np.arange(input_dim)
    for k in sorted(set(exponents)):
        size = 1 << k
        if k == 0:
            out[k] = np.ones((1, input_dim))
            continue
        codes = rng.choice(n_patterns, size=size, replace=False)
        bits = (codes[:, None] >> shifts[None, :]) & 1
        out[k] = 1.0 - 2.0 * bits
    return out


@dataclass
class MlpResult:
    config: MlpConfig
    loss_by_subset: dict[int, float]  # subset size -> final test loss
    epoch_losses_plain: list[float]
    epoch_losses_averaged: list[float]
    final_train_loss: float
    subsets: dict[int, np.ndarray] = field(repr=False, default_factory=dict)


def mlp_experiment(cfg: MlpConfig) -> MlpResult:
    """Train once, then evaluate subset-averaged predictions.

    The invariant target is <w, |x|> with Gaussian w and inputs; the
    network and data derive from disjoint seeded streams, and the
    subsets are fixed before training starts.
    """
    root = np.random.SeedSequence(cfg.seed)
    data_rng, init_rng, shuffle_rng, subset_rng = (
        np.random.default_rng(s) for s in root.spawn(4)
    )
    d = cfg.input_dim
    w_star = data_rng.normal(size=d)
    x_train = data_rng.normal(size=(cfg.n_train, d))
    y_train = np.abs(x_train) @ w_star
    x_test = data_rng.normal(size=(cfg.n_test, d))
    y_test = np.abs(x_test) @ w_star

    subsets = draw_sign_subsets(d, tuple(cfg.subset_exponents) + (cfg.curve_subset_exponent,), subset_rng)
    model = SignAveragedMlp(d, cfg.widths, init_rng)

    eval_count = min(cfg.epoch_eval_size, cfg.n_test)
    x_eval, y_eval = x_test[:eval_count], y_test[:eval_count]
    curve_signs = subsets[cfg.curve_subset_exponent]
    epoch_plain: list[float] = []
    epoch_avg: list[float] = []
    last_loss = float("nan")
    loss_by_subset: dict[int, float] = {}
    # a diverging run overflows to inf; the finiteness checks below report it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffle_rng.permutation(cfg.n_train)
            for start in range(0, cfg.n_train, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                last_loss = model.sgd_step(x_train[batch], y_train[batch], cfg.learning_rate)
                if not np.isfinite(last_loss):
                    raise TrainingFailureError(f"training loss diverged at epoch {epoch}", epoch)
            plain = float(((model.forward(x_eval) - y_eval) ** 2).mean())
            avg = float(((averaged_predictions(model, x_eval, curve_signs) - y_eval) ** 2).mean())
            if not (np.isfinite(plain) and np.isfinite(avg)):
                raise TrainingFailureError(f"evaluation loss diverged at epoch {epoch}", epoch)
            epoch_plain.append(plain)
            epoch_avg.append(avg)

        for k in sorted(set(cfg.subset_exponents)):
            preds = averaged_predictions(model, x_test, subsets[k])
            loss_by_subset[1 << k] = float(((preds - y_test) ** 2).mean())
    return MlpResult(
        config=cfg,
        loss_by_subset=loss_by_subset,
        epoch_losses_plain=epoch_plain,
        epoch_losses_averaged=epoch_avg,
        final_train_loss=last_loss,
        subsets=subsets,
    )


def subset_csv(result: MlpResult) -> str:
    lines = ["subset_size,test_loss"]
    for size in sorted(result.loss_by_subset):
        lines.append(f"{size},{result.loss_by_subset[size]:.17g}")
    return "\n".join(lines) + "\n"


def epoch_csv(result: MlpResult) -> str:
    lines = ["epoch,test_loss_plain,test_loss_averaged"]
    for i, (p, a) in enumerate(zip(result.epoch_losses_plain, result.epoch_losses_averaged)):
        lines.append(f"{i},{p:.17g},{a:.17g}")
    return "\n".join(lines) + "\n"
