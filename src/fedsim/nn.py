"""Dense MLP engine operating on flat float64 parameter vectors.

Parameter layout, per layer: the weight matrix is stored as one contiguous
block of out_dim entries per input column, then the bias vector. Dropout
groups are exactly those per-input-column blocks; bias vectors form their own
always-keep groups. All arithmetic is float64.

A dropout mask acts on each layer's input: `(a * keep) @ W`, not
`a @ (W * keep)`. For finite values `(x*0)*w` and `x*(w*0)` are the same
signed zero, so both accumulate identical products in the same order and a
masked forward pass equals a forward pass over mask-applied parameters bit
for bit, without copying any weight matrix.
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


def _check_inputs(
    params: np.ndarray, arch: MlpArch, X: np.ndarray, mask: DropoutMask | None
):
    _check_params(params, arch)
    if mask is not None:
        _check_mask(mask, arch)
    if X.ndim != 2 or X.shape[1] != arch.input_dim:
        raise DimensionMismatch(
            0, f"inputs of shape {X.shape} != (rows, {arch.input_dim})"
        )


def _layer_inputs(
    params: np.ndarray, arch: MlpArch, X: np.ndarray, mask: DropoutMask | None
) -> list[np.ndarray]:
    """[X, a_1, ..., logits]: each layer's unmasked input, then the logits.

    A mask multiplies layer l's input by keep[l] before the product with
    W_l (see the module docstring).
    """
    outs = [X]
    last = arch.num_layers - 1
    for l, (W, b) in enumerate(weight_views(params, arch)):
        a = outs[-1] if mask is None else outs[-1] * mask.keep[l]
        z = a @ W
        z += b
        if l < last:
            np.maximum(z, 0.0, out=z)
        outs.append(z)
    return outs


def forward(
    params: np.ndarray,
    arch: MlpArch,
    x: np.ndarray,
    mask: DropoutMask | None = None,
) -> np.ndarray:
    """Logits (rows of x, num_classes); dropped groups act as zeros."""
    _check_inputs(params, arch, x, mask)
    return _layer_inputs(params, arch, x, mask)[-1]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def _mean_nll(logits: np.ndarray, y: np.ndarray):
    """(mean cross-entropy, log-probabilities) of integer labels y."""
    num_classes = logits.shape[1]
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{y.min()}, {y.max()}]"
        )
    logp = log_softmax(logits)
    per_sample = -logp[np.arange(len(y)), y]
    if not np.all(np.isfinite(per_sample)):
        raise NonFiniteLoss(int(np.flatnonzero(~np.isfinite(per_sample))[0]))
    return float(per_sample.mean()), logp


def mean_loss(
    params: np.ndarray,
    arch: MlpArch,
    batch: Batch,
    mask: DropoutMask | None = None,
) -> float:
    """Mean cross-entropy over the batch, from one forward pass.

    The same bits as `loss_and_grad(...)[0]`: both take their logits from
    `_layer_inputs` and their loss from `_mean_nll`.
    """
    return _mean_nll(forward(params, arch, batch.inputs, mask), batch.labels)[0]


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
    X, y = batch.inputs, batch.labels
    _check_inputs(params, arch, X, mask)
    activations = _layer_inputs(params, arch, X, mask)
    loss, logp = _mean_nll(activations[-1], y)

    grad = np.empty_like(params)  # every entry is written below
    delta = np.exp(logp)
    delta[np.arange(len(y)), y] -= 1.0
    delta /= X.shape[0]
    weights = [W for W, _ in weight_views(params, arch)]
    for l, (dW, db) in reversed(list(enumerate(weight_views(grad, arch)))):
        np.matmul(activations[l].T, delta, out=dW)
        if mask is not None:
            # dropped rows times 0.0, as a product with the mask would give;
            # kept rows would be multiplied by 1.0, which changes nothing
            np.multiply(dW, 0.0, out=dW, where=~mask.keep[l][:, None])
        np.sum(delta, axis=0, out=db)
        if l > 0:
            W = weights[l] if mask is None else weights[l] * mask.keep[l][:, None]
            delta = delta @ W.T
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
