"""Dense MLP engine operating on flat float64 parameter vectors.

Parameter layout, per layer: the weight matrix is stored as one contiguous
block of out_dim entries per input column, then the bias vector. Dropout
groups are exactly those per-input-column blocks; bias vectors form their own
always-keep groups. All arithmetic is float64 and every code path uses the
same summation order (layer-major, then column), so a masked forward pass and
a forward pass over mask-applied parameters agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Shape disagreement, tagged with the offending layer index."""

    def __init__(self, layer: int, message: str):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer


class NonFiniteLoss(FloatingPointError):
    """Loss went non-finite; batch_index is the first offending sample."""

    def __init__(self, batch_index: int):
        super().__init__(f"non-finite loss at batch index {batch_index}")
        self.batch_index = batch_index


class NonFiniteUpdate(FloatingPointError):
    pass


@dataclass(frozen=True)
class MlpArch:
    """Layer sizes (input dim, hidden dims..., num classes).

    ReLU on hidden layers, identity on the output layer.
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("arch needs at least an input and an output layer")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]


@dataclass(frozen=True)
class Batch:
    inputs: np.ndarray  # (batch_size, input_dim), float64
    labels: np.ndarray  # (batch_size,), integer class indices

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels)
        if inputs.ndim != 2:
            raise ValueError(f"batch inputs must be 2-d, got shape {inputs.shape}")
        if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
            raise ValueError(
                f"labels shape {labels.shape} incompatible with inputs {inputs.shape}"
            )
        if inputs.shape[0] < 1:
            raise ValueError("batch must contain at least one sample")
        if not np.issubdtype(labels.dtype, np.integer):
            raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class DropoutMask:
    """Per-layer keep flags, one per input column of that layer's weights."""

    keep: tuple[np.ndarray, ...]  # bool arrays, keep[l].shape == (in_dim_l,)


def param_count(arch: MlpArch) -> int:
    sizes = arch.layer_sizes
    return sum(sizes[l] * sizes[l + 1] + sizes[l + 1] for l in range(arch.num_layers))


def layer_spans(arch: MlpArch) -> list[tuple[slice, slice]]:
    """(weight slice, bias slice) into the flat vector, per layer."""
    spans = []
    offset = 0
    sizes = arch.layer_sizes
    for l in range(arch.num_layers):
        n_in, n_out = sizes[l], sizes[l + 1]
        w = slice(offset, offset + n_in * n_out)
        b = slice(w.stop, w.stop + n_out)
        spans.append((w, b))
        offset = b.stop
    return spans


def weight_views(params: np.ndarray, arch: MlpArch):
    """Yield (W, b) views per layer; W has shape (in_dim, out_dim).

    Row i of W is dropout group i: the contiguous block of out_dim entries
    for input column i.
    """
    sizes = arch.layer_sizes
    for l, (w_span, b_span) in enumerate(layer_spans(arch)):
        n_in, n_out = sizes[l], sizes[l + 1]
        yield params[w_span].reshape(n_in, n_out), params[b_span]


def head_span(arch: MlpArch) -> slice:
    """The head: the final weight matrix + final bias, one contiguous slice."""
    w_span, b_span = layer_spans(arch)[-1]
    return slice(w_span.start, b_span.stop)


def init_params(arch: MlpArch, rng: np.random.Generator) -> np.ndarray:
    """Per layer: W and b ~ uniform(-1/sqrt(fan_in), +1/sqrt(fan_in))."""
    params = np.empty(param_count(arch), dtype=np.float64)
    sizes = arch.layer_sizes
    for l, (w_span, b_span) in enumerate(layer_spans(arch)):
        bound = 1.0 / np.sqrt(sizes[l])
        params[w_span] = rng.uniform(-bound, bound, w_span.stop - w_span.start)
        params[b_span] = rng.uniform(-bound, bound, b_span.stop - b_span.start)
    return params


def _check_params(params: np.ndarray, arch: MlpArch):
    if params.shape != (param_count(arch),):
        raise DimensionMismatch(
            0, f"params shape {params.shape} != ({param_count(arch)},)"
        )


def _check_mask(mask: DropoutMask, arch: MlpArch):
    if len(mask.keep) != arch.num_layers:
        raise DimensionMismatch(
            0, f"mask has {len(mask.keep)} layers, arch has {arch.num_layers}"
        )
    for l in range(arch.num_layers):
        if mask.keep[l].shape != (arch.layer_sizes[l],):
            raise DimensionMismatch(
                l,
                f"mask keep shape {mask.keep[l].shape} != ({arch.layer_sizes[l]},)",
            )


def sample_dropout_mask(
    p_keep: float, arch: MlpArch, rng: np.random.Generator
) -> DropoutMask:
    if not 0.0 <= p_keep <= 1.0:
        raise ValueError(f"p_keep must be in [0, 1], got {p_keep}")
    keep = tuple(
        rng.random(arch.layer_sizes[l]) < p_keep for l in range(arch.num_layers)
    )
    return DropoutMask(keep=keep)


def apply_mask(params: np.ndarray, arch: MlpArch, mask: DropoutMask) -> np.ndarray:
    """Zero every parameter in a dropped group (biases untouched)."""
    _check_params(params, arch)
    _check_mask(mask, arch)
    out = params.copy()
    for l, (W, b) in enumerate(weight_views(out, arch)):
        W *= mask.keep[l][:, None].astype(np.float64)
    return out


def forward(
    params: np.ndarray,
    arch: MlpArch,
    batch: Batch,
    mask: DropoutMask | None = None,
) -> np.ndarray:
    """Logits (batch_size, num_classes); dropped groups act as zeros."""
    _check_params(params, arch)
    if mask is not None:
        _check_mask(mask, arch)
    X = batch.inputs
    if X.shape[1] != arch.input_dim:
        raise DimensionMismatch(
            0, f"input dim {X.shape[1]} != arch input dim {arch.input_dim}"
        )
    a = X
    last = arch.num_layers - 1
    for l, (W, b) in enumerate(weight_views(params, arch)):
        if mask is not None:
            W = W * mask.keep[l][:, None].astype(np.float64)
        z = a @ W + b
        a = np.maximum(z, 0.0) if l < last else z
    return a


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def loss_and_grad(
    params: np.ndarray,
    arch: MlpArch,
    batch: Batch,
    mask: DropoutMask | None = None,
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy over the batch and its exact gradient.

    Gradient entries of dropped groups are zero (those parameters did not
    participate in the forward pass).
    """
    _check_params(params, arch)
    if mask is not None:
        _check_mask(mask, arch)
    X, y = batch.inputs, batch.labels
    if X.shape[1] != arch.input_dim:
        raise DimensionMismatch(
            0, f"input dim {X.shape[1]} != arch input dim {arch.input_dim}"
        )
    if y.min() < 0 or y.max() >= arch.num_classes:
        raise ValueError(
            f"labels must lie in [0, {arch.num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )

    # forward, keeping activations for the backward pass
    last = arch.num_layers - 1
    activations = [X]
    a = X
    masked_weights = []
    for l, (W, b) in enumerate(weight_views(params, arch)):
        if mask is not None:
            W = W * mask.keep[l][:, None].astype(np.float64)
        masked_weights.append(W)
        z = a @ W + b
        a = np.maximum(z, 0.0) if l < last else z
        activations.append(a)

    logp = log_softmax(activations[-1])
    per_sample = -logp[np.arange(len(y)), y]
    if not np.all(np.isfinite(per_sample)):
        raise NonFiniteLoss(int(np.flatnonzero(~np.isfinite(per_sample))[0]))
    loss = float(per_sample.mean())

    grad = np.empty_like(params)  # every entry is written below
    batch_size = X.shape[0]
    delta = np.exp(logp)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= batch_size
    spans = layer_spans(arch)
    for l in range(last, -1, -1):
        a_prev = activations[l]
        w_span, b_span = spans[l]
        dW = a_prev.T @ delta
        if mask is not None:
            dW *= mask.keep[l][:, None].astype(np.float64)
        grad[w_span] = dW.reshape(-1)
        grad[b_span] = delta.sum(axis=0)
        if l > 0:
            delta = delta @ masked_weights[l].T
            delta[activations[l] <= 0.0] = 0.0
    return loss, grad


def sgd_step(
    params: np.ndarray, grad: np.ndarray, lr: float, out: np.ndarray | None = None
) -> np.ndarray:
    """params - lr*grad, in a fresh array or, with `out`, in place.

    `out` may be params itself. With `out`, grad serves as scratch: it is
    overwritten with lr*grad, so the caller must own it.
    """
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    if params.shape != grad.shape:
        raise ValueError(f"shape mismatch: params {params.shape}, grad {grad.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        step = np.multiply(lr, grad, out=None if out is None else grad)
        out = np.subtract(params, step, out=out)
    if not np.all(np.isfinite(out)):
        raise NonFiniteUpdate("non-finite parameter after SGD step")
    return out
