"""Minimal dense neural network substrate: numpy forward/backward, Adam,
and the JSON documents that learning checkpoints store networks in.

Sized for small policy/value heads (117-128-64-128); float64 throughout
so repeated runs stay bit-identical. Inputs may be single vectors or
batches (rows); gradients are exact sums over the supplied batch. A
layer is ``relu`` or ``linear``; ``learning`` masks a policy's softmax.

A ``DenseNet`` owns two flat float64 vectors of one length,
``parameters`` and ``gradients``, both laid out layer by layer: a
layer's weights (row-major, [out, in]), then its biases. A layer's
``weights`` and ``biases`` are views into ``parameters``, and
``layer_gradients`` holds the same views into ``gradients``. ``backward``
writes dW and db into those views and returns them. A returned gradient
holds its values until the net's next ``backward`` or ``adam_step``:
Adam uses the consumed gradient vector as scratch.

``adam_step`` updates the flat moment vectors in place with the
elementwise operations of the per-layer update, in the same order:
``m = m*b1 + (1-b1)*g``, ``v = v*b2 + (1-b2)*g**2`` and
``p -= lr*(m/c1) / (sqrt(v/c2) + eps)`` with ``c = 1 - b**step``, so
every float is the one the per-layer update gives
(``tests/test_neuralnet.py`` keeps that update as a reference). The
optimizer's one scratch vector and the gradient vector hold its
temporaries, so a training step allocates no parameter-sized array.

A net document (``net_to_doc``) holds ``layer_dims``, ``activations``
and ``parameters``: the base64 of the flat parameter vector as
little-endian float64, in the layout above, so a loaded net has every
float's bits, -0.0 and subnormals included. ``net_from_doc`` refuses a
document whose activations are unknown, whose dims do not give one
layer per activation, whose byte count is not ``8 * sum(out*in + out)``
over the dims, or whose parameters are not all finite.
``FORMAT_VERSION`` is the version of the checkpoint files that hold
these documents.

``np`` is numpy, loaded on first use: importing this module (or
``learning``, which takes its ``np`` from here) only finds numpy, so the
rule, search, report and play paths never load it. This is the one
place in the package that imports numpy.
"""

from __future__ import annotations

import importlib.util
import sys
from dataclasses import dataclass
from typing import Sequence


def _lazy_import(name: str):
    """The module ``name``, whose body runs on its first attribute access
    (the ``importlib.util.LazyLoader`` recipe). A module that is already
    imported is returned as it is; one that is not installed raises
    ModuleNotFoundError here, as ``import`` does."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")

ACTIVATIONS = ("relu", "linear")


class CheckpointError(ValueError):
    """Raised when a weights file cannot be parsed into a network."""


@dataclass
class Layer:
    weights: np.ndarray  # [out, in]
    biases: np.ndarray  # [out]
    activation: str


class DenseNet:
    """Dense layers over one flat parameter vector (see the module
    docstring). Built from ``Layer``s, it copies their values and keeps
    layers of its own that view its vector."""

    def __init__(self, layers: Sequence[Layer]):
        self.parameters = np.concatenate(
            [np.ravel(a) for layer in layers for a in (layer.weights, layer.biases)],
            dtype=np.float64,
        )
        self.gradients = np.zeros_like(self.parameters)
        self.layers: list[Layer] = []
        self.layer_gradients: list[tuple[np.ndarray, np.ndarray]] = []
        end = 0
        for layer in layers:
            start, middle = end, end + layer.weights.size
            end = middle + layer.biases.size
            shape = layer.weights.shape
            self.layers.append(Layer(self.parameters[start:middle].reshape(shape),
                                     self.parameters[middle:end], layer.activation))
            self.layer_gradients.append((self.gradients[start:middle].reshape(shape),
                                         self.gradients[middle:end]))

    def copy(self) -> "DenseNet":
        """An equal net that shares no memory with this one."""
        return DenseNet(self.layers)

    @property
    def layer_dims(self) -> list[int]:
        dims = [self.layers[0].weights.shape[1]]
        dims.extend(layer.weights.shape[0] for layer in self.layers)
        return dims

    @property
    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]


def init_net(
    dims: Sequence[int], activations: Sequence[str], rng: np.random.Generator
) -> DenseNet:
    """Glorot-uniform initialisation: weights in ±sqrt(6/(fan_in+fan_out))."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    for name in activations:
        if name not in ACTIVATIONS:
            raise ValueError(f"unknown activation {name!r}")
    layers = []
    for fan_in, fan_out, activation in zip(dims, dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(Layer(weights, np.zeros(fan_out), activation))
    return DenseNet(layers)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax (max subtraction)."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=-1, keepdims=True)


def forward(net: DenseNet, x: np.ndarray) -> np.ndarray:
    """Composed affine+activation pass; shape follows the input."""
    out, _ = forward_cache(net, x)
    return out


def forward_cache(net: DenseNet, x: np.ndarray):
    """Forward pass keeping per-layer inputs and pre-activations for backprop."""
    x = np.asarray(x, dtype=np.float64)
    squeeze = x.ndim == 1
    a = x[None, :] if squeeze else x
    if a.shape[1] != net.layers[0].weights.shape[1]:
        raise ValueError(
            f"input width {a.shape[1]} != first layer fan-in "
            f"{net.layers[0].weights.shape[1]}"
        )
    inputs = []  # activation entering each layer
    pre = []  # z per layer
    for layer in net.layers:
        inputs.append(a)
        z = a @ layer.weights.T + layer.biases
        pre.append(z)
        a = np.maximum(z, 0.0) if layer.activation == "relu" else z
    out = a[0] if squeeze else a
    return out, (inputs, pre, squeeze)


def backward(net: DenseNet, cache, grad_output: np.ndarray):
    """Exact parameter gradients given dL/d(output). Writes one (dW, db)
    pair per layer, summed over the batch, into ``net.layer_gradients`` and
    returns that list."""
    inputs, pre, squeeze = cache
    grad = np.asarray(grad_output, dtype=np.float64)
    if squeeze:
        grad = grad[None, :]
    for index in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[index]
        dz = grad * (pre[index] > 0.0) if layer.activation == "relu" else grad
        dw, db = net.layer_gradients[index]
        np.matmul(dz.T, inputs[index], out=dw)
        np.sum(dz, axis=0, out=db)
        grad = dz @ layer.weights
    return net.layer_gradients


@dataclass
class AdamState:
    """Bias-corrected Adam moments over a net's flat parameter vector, and
    the scratch vector that holds one temporary of each step."""

    first: np.ndarray
    second: np.ndarray
    scratch: np.ndarray
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(net: DenseNet, lr: float = 1e-4) -> AdamState:
    flat = net.parameters
    # each step writes the scratch before it reads it
    return AdamState(first=np.zeros_like(flat), second=np.zeros_like(flat),
                     scratch=np.empty_like(flat), lr=lr)


def adam_step(net: DenseNet, state: AdamState) -> None:
    """One in-place Adam update of the whole parameter vector from the
    net's gradient vector, as ``backward`` wrote it; the gradients are
    consumed."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.step
    correction2 = 1.0 - b2**state.step
    g, s, m, v = net.gradients, state.scratch, state.first, state.second
    m *= b1
    np.multiply(1 - b1, g, out=s)
    m += s
    np.square(g, out=g)
    np.multiply(1 - b2, g, out=g)
    v *= b2
    v += g
    np.divide(m, correction1, out=s)
    np.multiply(state.lr, s, out=s)
    np.divide(v, correction2, out=g)
    np.sqrt(g, out=g)
    g += state.eps
    s /= g
    net.parameters -= s


# the version of the checkpoint documents that hold net documents; it
# changes whenever net_to_doc's encoding does
FORMAT_VERSION = 2


def net_to_doc(net: DenseNet) -> dict:
    """A JSON-ready document: the layer dims, the activations and the flat
    parameter vector as base64 of little-endian float64, so every float
    keeps its bits."""
    import base64  # loaded with the first checkpoint: play, search and report never need it

    raw = net.parameters.astype("<f8", copy=False).tobytes()
    return {
        "layer_dims": net.layer_dims,
        "activations": net.activations,
        "parameters": base64.b64encode(raw).decode("ascii"),
    }


def net_from_doc(doc: dict) -> DenseNet:
    """Inverse of net_to_doc; raises CheckpointError on a malformed document
    or a non-finite parameter."""
    import base64

    try:
        dims, activations, text = doc["layer_dims"], doc["activations"], doc["parameters"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed net document: {exc!r}") from exc
    if not (isinstance(dims, list) and isinstance(activations, list)):
        raise CheckpointError("layer_dims and activations must be lists")
    for index, activation in enumerate(activations):
        if activation not in ACTIVATIONS:
            raise CheckpointError(f"layer {index}: unknown activation {activation!r}")
    if len(dims) != len(activations) + 1 or not all(type(d) is int and d >= 1 for d in dims):
        raise CheckpointError(
            f"layer_dims {dims!r} must be {len(activations) + 1} positive integers, "
            f"one more than the {len(activations)} activations")
    try:
        raw = base64.b64decode(text, validate=True)
    except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
        raise CheckpointError(f"parameters are not base64: {exc}") from exc
    expected = 8 * sum(fan_out * fan_in + fan_out for fan_in, fan_out in zip(dims, dims[1:]))
    if len(raw) != expected:
        raise CheckpointError(
            f"parameters hold {len(raw)} bytes; layer_dims {dims} need {expected}")
    flat = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(flat).all():
        raise CheckpointError(
            f"{np.count_nonzero(~np.isfinite(flat))} parameters are not finite")
    layers = []
    end = 0
    for fan_in, fan_out, activation in zip(dims, dims[1:], activations):
        start, middle = end, end + fan_out * fan_in
        end = middle + fan_out
        layers.append(Layer(flat[start:middle].reshape(fan_out, fan_in),
                            flat[middle:end], activation))
    return DenseNet(layers)
