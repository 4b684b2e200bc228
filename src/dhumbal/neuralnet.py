"""Minimal dense neural network substrate: numpy forward/backward, Adam,
and the JSON documents that learning checkpoints store networks in.

Sized for small policy/value heads (117-128-64-128); float64 throughout
so repeated runs stay bit-identical. Inputs may be single vectors or
batches (rows); gradients are exact sums over the supplied batch.

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

ACTIVATIONS = ("relu", "linear", "softmax")


class CheckpointError(ValueError):
    """Raised when a weights file cannot be parsed into a network."""


@dataclass
class Layer:
    weights: np.ndarray  # [out, in]
    biases: np.ndarray  # [out]
    activation: str


@dataclass
class DenseNet:
    layers: list[Layer]

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


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "linear":
        return z
    return softmax(z)


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
        a = _activate(z, layer.activation)
    out = a[0] if squeeze else a
    return out, (inputs, pre, squeeze)


def backward(net: DenseNet, cache, grad_output: np.ndarray, *, from_logits: bool = False):
    """Exact parameter gradients given dL/d(output).

    ``from_logits`` treats ``grad_output`` as dL/dz of the final layer,
    skipping the last activation derivative (how the policy losses feed
    masked log-softmax gradients straight into the net).
    Returns one (dW, db) pair per layer, summed over the batch.
    """
    inputs, pre, squeeze = cache
    grad = np.asarray(grad_output, dtype=np.float64)
    if squeeze:
        grad = grad[None, :]
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(net.layers)  # type: ignore
    for index in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[index]
        z = pre[index]
        if from_logits and index == len(net.layers) - 1:
            dz = grad
        elif layer.activation == "relu":
            dz = grad * (z > 0.0)
        elif layer.activation == "linear":
            dz = grad
        else:  # softmax Jacobian-vector product: p * (g - (g . p))
            p = softmax(z)
            dz = p * (grad - np.sum(grad * p, axis=-1, keepdims=True))
        grads[index] = (dz.T @ inputs[index], dz.sum(axis=0))
        grad = dz @ layer.weights
    return grads


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one pair of slots per layer."""

    first: list[tuple[np.ndarray, np.ndarray]]
    second: list[tuple[np.ndarray, np.ndarray]]
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(net: DenseNet, lr: float = 1e-4) -> AdamState:
    zeros = lambda layer: (
        np.zeros_like(layer.weights),
        np.zeros_like(layer.biases),
    )
    return AdamState(
        first=[zeros(layer) for layer in net.layers],
        second=[zeros(layer) for layer in net.layers],
        lr=lr,
    )


def adam_step(net: DenseNet, grads, state: AdamState) -> None:
    """One in-place Adam update over all layers."""
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    correction1 = 1.0 - b1**state.step
    correction2 = 1.0 - b2**state.step
    for layer, (gw, gb), (mw, mb), (vw, vb) in zip(
        net.layers, grads, state.first, state.second
    ):
        for param, grad, m, v in ((layer.weights, gw, mw, vw), (layer.biases, gb, mb, vb)):
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * np.square(grad)
            param -= state.lr * (m / correction1) / (np.sqrt(v / correction2) + state.eps)


FORMAT_VERSION = 1


def net_to_doc(net: DenseNet) -> dict:
    """A versioned JSON-ready document; floats round-trip exactly."""
    return {
        "format_version": FORMAT_VERSION,
        "layer_dims": net.layer_dims,
        "activations": net.activations,
        "weights": [layer.weights.tolist() for layer in net.layers],
        "biases": [layer.biases.tolist() for layer in net.layers],
    }


def net_from_doc(doc: dict) -> DenseNet:
    """Inverse of net_to_doc; raises CheckpointError on a malformed document."""
    try:
        if doc["format_version"] != FORMAT_VERSION:
            raise CheckpointError(f"unsupported format_version {doc['format_version']}")
        dims = doc["layer_dims"]
        activations = doc["activations"]
        layers = []
        for index, activation in enumerate(activations):
            if activation not in ACTIVATIONS:
                raise CheckpointError(
                    f"layer {index}: unknown activation {activation!r}"
                )
            weights = np.asarray(doc["weights"][index], dtype=np.float64)
            biases = np.asarray(doc["biases"][index], dtype=np.float64)
            if weights.shape != (dims[index + 1], dims[index]) or biases.shape != (
                dims[index + 1],
            ):
                raise CheckpointError(
                    f"layer {index}: shapes {weights.shape}/{biases.shape} do not "
                    f"match dims {dims[index]}->{dims[index + 1]}"
                )
            layers.append(Layer(weights, biases, activation))
        return DenseNet(layers)
    except (KeyError, IndexError, TypeError) as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc!r}") from exc
