from __future__ import annotations

import base64
import json
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhumbal import learning
from dhumbal import neuralnet as nn


def random_net(rng, dims=(4, 3, 2), activations=("relu", "linear")):
    return nn.init_net(dims, activations, rng)


def parameter_count(net) -> int:
    return sum(layer.weights.size + layer.biases.size for layer in net.layers)


def finite_difference_grads(net, x, probe, step=1e-5):
    """Central-difference gradient of L = probe . forward(x) per parameter."""
    grads = []
    for layer in net.layers:
        for param in (layer.weights, layer.biases):
            grad = np.zeros_like(param)
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                original = param[idx]
                param[idx] = original + step
                up = float(np.dot(probe, nn.forward(net, x)))
                param[idx] = original - step
                down = float(np.dot(probe, nn.forward(net, x)))
                param[idx] = original
                grad[idx] = (up - down) / (2 * step)
            grads.append(grad)
    return grads


def analytic_grads_flat(net, x, probe):
    out, cache = nn.forward_cache(net, x)
    grads = nn.backward(net, cache, probe)
    flat = []
    for dw, db in grads:
        flat.append(dw)
        flat.append(db)
    return flat


def reference_backward(net, cache, grad_output):
    """The per-layer backward pass the flat one must equal bit for bit:
    fresh (dW, db) arrays per layer."""
    inputs, pre, squeeze = cache
    grad = np.asarray(grad_output, dtype=np.float64)
    if squeeze:
        grad = grad[None, :]
    grads = [None] * len(net.layers)
    for index in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[index]
        if layer.activation == "relu":
            dz = grad * (pre[index] > 0.0)
        else:
            dz = grad
        grads[index] = (dz.T @ inputs[index], dz.sum(axis=0))
        grad = dz @ layer.weights
    return grads


def reference_adam_init(net):
    zeros = lambda layer: (np.zeros_like(layer.weights), np.zeros_like(layer.biases))
    return SimpleNamespace(first=[zeros(layer) for layer in net.layers],
                           second=[zeros(layer) for layer in net.layers],
                           step=0, lr=1e-4, beta1=0.9, beta2=0.999, eps=1e-8)


def reference_adam_step(net, grads, state):
    """The per-layer Adam update, with per-layer moments, that the flat one
    must equal bit for bit."""
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


def reference_net(net):
    """Separate per-layer arrays holding ``net``'s values, laid out as
    before the flat vector: a net ``forward_cache`` reads as it reads any."""
    return SimpleNamespace(layers=[
        nn.Layer(layer.weights.copy(), layer.biases.copy(), layer.activation)
        for layer in net.layers
    ])


def flat_bytes(pairs) -> bytes:
    return b"".join(a.tobytes() for pair in pairs for a in pair)


def assert_trains_like_reference(net, loss_grad, rng, *, steps=20, batch=8, lr=1e-3):
    """Train ``net`` and a per-layer reference copy side by side on the same
    random batches; after every step the parameters, both moments and the
    gradients are byte-equal."""
    reference = reference_net(net)
    state, reference_state = nn.adam_init(net, lr=lr), reference_adam_init(net)
    reference_state.lr = lr
    for _ in range(steps):
        x = rng.normal(size=(batch, net.layer_dims[0]))
        out, cache = nn.forward_cache(net, x)
        reference_out, reference_cache = nn.forward_cache(reference, x)
        assert out.tobytes() == reference_out.tobytes()
        grad_output = loss_grad(out)
        grads = nn.backward(net, cache, grad_output)
        reference_grads = reference_backward(reference, reference_cache, grad_output)
        assert flat_bytes(grads) == flat_bytes(reference_grads)
        assert net.gradients.tobytes() == flat_bytes(reference_grads)
        nn.adam_step(net, state)
        reference_adam_step(reference, reference_grads, reference_state)
        assert state.step == reference_state.step
        assert net.parameters.tobytes() == flat_bytes(
            (layer.weights, layer.biases) for layer in reference.layers)
        assert state.first.tobytes() == flat_bytes(reference_state.first)
        assert state.second.tobytes() == flat_bytes(reference_state.second)


class TestFlatLayout:
    def test_layers_view_the_parameter_vector(self):
        net = random_net(np.random.default_rng(0), dims=(5, 4, 3))
        assert net.parameters.size == net.gradients.size == parameter_count(net)
        for layer, (dw, db) in zip(net.layers, net.layer_gradients):
            for view, flat in ((layer.weights, net.parameters), (layer.biases, net.parameters),
                               (dw, net.gradients), (db, net.gradients)):
                assert view.base is flat and view.flags.c_contiguous
            assert dw.shape == layer.weights.shape and db.shape == layer.biases.shape
        net.parameters[:] = np.arange(net.parameters.size)
        assert net.layers[0].weights[1, 0] == 5.0  # row-major, weights before biases
        assert net.layers[0].biases[0] == 20.0
        assert net.layers[1].weights[0, 0] == 24.0

    def test_net_from_layers_keeps_their_values(self):
        rng = np.random.default_rng(1)
        given_layers = [nn.Layer(rng.normal(size=(4, 3)), rng.normal(size=4), "relu"),
                        nn.Layer(rng.normal(size=(2, 4)), rng.normal(size=2), "linear")]
        net = nn.DenseNet(given_layers)
        for mine, given in zip(net.layers, given_layers):
            assert mine.weights.tobytes() == given.weights.tobytes()
            assert mine.biases.tobytes() == given.biases.tobytes()
            assert mine.activation == given.activation
            assert not np.shares_memory(mine.weights, given.weights)
        assert net.layer_dims == [3, 4, 2] and net.activations == ["relu", "linear"]

    def test_copy_shares_no_memory(self):
        net = random_net(np.random.default_rng(2), dims=(6, 5, 4))
        twin = net.copy()
        assert twin.parameters.tobytes() == net.parameters.tobytes()
        assert twin.activations == net.activations
        for ours, theirs in ((net.parameters, twin.parameters), (net.gradients, twin.gradients),
                             (net.parameters, twin.gradients)):
            assert not np.shares_memory(ours, theirs)
        twin.layers[0].weights[0, 0] += 1.0
        assert twin.parameters[0] != net.parameters[0]

    def test_target_net_does_not_alias_online_net(self):
        core = learning.DQNAgentCore(learning.DQNConfig(), seed=0)
        assert core.target_net.parameters.tobytes() == core.net.parameters.tobytes()
        assert not np.shares_memory(core.net.parameters, core.target_net.parameters)
        core.net.parameters[0] += 1.0
        assert core.target_net.parameters[0] != core.net.parameters[0]


class TestBitIdenticalToPerLayerReference:
    """The flat backward and Adam against the per-layer code they replace."""

    def test_dqn_net(self):
        rng = np.random.default_rng(17)
        net = nn.init_net((117, 128, 64, 128), ("relu", "relu", "linear"), rng)

        def td_grad(q):  # one chosen action per row, as train_step feeds it
            grad = np.zeros_like(q)
            grad[np.arange(len(q)), rng.integers(128, size=len(q))] = rng.normal(size=len(q))
            return grad

        assert_trains_like_reference(net, td_grad, rng, steps=25, batch=32, lr=1e-4)

    def test_ppo_actor(self):
        rng = np.random.default_rng(18)
        net = nn.init_net((117, 128, 64, 128), ("relu", "relu", "linear"), rng)
        assert_trains_like_reference(net, lambda logits: rng.normal(size=logits.shape) / 16,
                                     rng, steps=25, batch=16, lr=1e-4)

    def test_ppo_critic(self):
        rng = np.random.default_rng(19)
        net = nn.init_net((117, 128, 64, 1), ("relu", "relu", "linear"), rng)
        assert_trains_like_reference(net, lambda values: 0.5 * 2.0 * values / len(values),
                                     rng, steps=25, batch=16, lr=1e-4)

    def test_single_row_batch(self):
        rng = np.random.default_rng(20)
        net = random_net(rng, dims=(5, 4, 3), activations=("relu", "relu"))
        reference = reference_net(net)
        x = rng.normal(size=5)
        _, cache = nn.forward_cache(net, x)
        _, reference_cache = nn.forward_cache(reference, x)
        probe = rng.normal(size=3)
        assert flat_bytes(nn.backward(net, cache, probe)) == flat_bytes(
            reference_backward(reference, reference_cache, probe))

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 7), min_size=2, max_size=4),
        activations=st.data(),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 5),
    )
    def test_small_nets(self, dims, activations, seed, batch):
        names = activations.draw(st.lists(st.sampled_from(nn.ACTIVATIONS),
                                          min_size=len(dims) - 1, max_size=len(dims) - 1))
        rng = np.random.default_rng(seed)
        net = nn.init_net(dims, names, rng)
        assert_trains_like_reference(net, lambda out: rng.normal(size=out.shape), rng,
                                     steps=20, batch=batch, lr=1e-2)


class TestForward:
    def test_zero_weights_relu_gives_zero(self):
        rng = np.random.default_rng(0)
        net = random_net(rng)
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.biases[:] = 0.0
        assert np.all(nn.forward(net, np.ones(4)) == 0.0)

    def test_identity_linear_layer(self):
        net = nn.DenseNet([nn.Layer(np.eye(3), np.zeros(3), "linear")])
        x = np.array([0.5, -2.0, 7.0])
        assert np.allclose(nn.forward(net, x), x)

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(0)
        net = random_net(rng)
        with pytest.raises(ValueError):
            nn.forward(net, np.ones(5))

    def test_batched_forward_matches_loop(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        batch = rng.normal(size=(6, 4))
        stacked = nn.forward(net, batch)
        rows = np.stack([nn.forward(net, row) for row in batch])
        assert np.allclose(stacked, rows)


class TestSoftmax:
    def test_probability_vector(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=30.0, size=128)
        p = nn.softmax(logits)
        assert np.all(p >= 0)
        assert abs(p.sum() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=50)
        shifted = nn.softmax(logits + 123.456)
        assert np.allclose(nn.softmax(logits), shifted, atol=1e-9)

    def test_extreme_logits_stable(self):
        p = nn.softmax(np.array([1e8, 0.0, -1e8]))
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0)


class TestBackward:
    @pytest.mark.parametrize(
        "activations",
        [("relu", "linear"), ("linear", "linear"), ("linear", "relu"), ("relu", "relu")],
    )
    def test_matches_finite_differences(self, activations):
        rng = np.random.default_rng(42)
        for _ in range(5):
            net = random_net(rng, activations=activations)
            x = rng.normal(size=4)
            probe = rng.normal(size=2)
            analytic = analytic_grads_flat(net, x, probe)
            numeric = finite_difference_grads(net, x, probe)
            for a, b in zip(analytic, numeric):
                scale = np.maximum(np.abs(b), 1e-3)
                assert np.max(np.abs(a - b) / scale) < 1e-4

    def test_relu_blocks_gradient_at_negative_preactivation(self):
        net = nn.DenseNet([nn.Layer(np.array([[1.0]]), np.array([-5.0]), "relu")])
        out, cache = nn.forward_cache(net, np.array([1.0]))
        assert out[0] == 0.0
        (dw, db), = nn.backward(net, cache, np.array([1.0]))
        assert dw[0, 0] == 0.0 and db[0] == 0.0

    def test_linear_squared_loss_closed_form(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(2, 3))
        net = nn.DenseNet([nn.Layer(weights.copy(), np.zeros(2), "linear")])
        x = rng.normal(size=3)
        target = rng.normal(size=2)
        pred, cache = nn.forward_cache(net, x)
        # L = ||pred - target||^2  =>  dL/dW = 2 (pred - target) x^T
        (dw, db), = nn.backward(net, cache, 2.0 * (pred - target))
        assert np.allclose(dw, np.outer(2.0 * (pred - target), x))
        assert np.allclose(db, 2.0 * (pred - target))


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        rng = np.random.default_rng(5)
        net = random_net(rng)
        before = [layer.weights.copy() for layer in net.layers]
        state = nn.adam_init(net)
        net.gradients[:] = 0.0
        nn.adam_step(net, state)
        assert state.step == 1
        for layer, kept in zip(net.layers, before):
            assert np.array_equal(layer.weights, kept)

    def test_first_step_magnitude_is_learning_rate(self):
        net = nn.DenseNet([nn.Layer(np.zeros((1, 1)), np.zeros(1), "linear")])
        state = nn.adam_init(net, lr=1e-3)
        net.gradients[:] = (0.37, 0.0)  # dW, then db
        nn.adam_step(net, state)
        # bias-corrected first step moves by ~lr regardless of gradient scale
        assert abs(net.layers[0].weights[0, 0]) == pytest.approx(1e-3, rel=1e-6)

    def test_deterministic_runs(self):
        def run():
            rng = np.random.default_rng(9)
            net = random_net(rng)
            state = nn.adam_init(net, lr=1e-2)
            x = np.ones(4)
            for _ in range(50):
                out, cache = nn.forward_cache(net, x)
                nn.backward(net, cache, out)  # pull outputs to zero
                nn.adam_step(net, state)
            return [layer.weights.copy() for layer in net.layers]

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestCheckpoints:
    """Networks persist only inside learning checkpoints."""

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.default_rng(13)
        core = SimpleNamespace(
            actor=random_net(rng, dims=(117, 128, 64, 128),
                             activations=("relu", "relu", "linear")),
            critic=random_net(rng, dims=(117, 128, 64, 1),
                              activations=("relu", "relu", "linear")),
        )
        path = tmp_path / "ppo.json"
        learning.save_learning_checkpoint("ppo", core, path, episode=1)
        kind, nets = learning.load_learning_checkpoint(path)
        assert kind == "ppo"
        for name in ("actor", "critic"):
            net, loaded = getattr(core, name), nets[name]
            assert loaded.activations == net.activations
            for a, b in zip(loaded.layers, net.layers):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.biases, b.biases)

    def test_policy_head_parameter_count(self):
        rng = np.random.default_rng(1)
        net = random_net(rng, dims=(117, 128, 64, 128), activations=("relu", "relu", "linear"))
        # 117*128+128 + 128*64+64 + 64*128+128
        assert parameter_count(net) == 31_680

    def test_truncated_file_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "dqn.json"
        learning.save_learning_checkpoint(
            "dqn", SimpleNamespace(net=random_net(rng)), path, episode=1)
        path.write_text(path.read_text()[:80])
        with pytest.raises(nn.CheckpointError):
            learning.load_learning_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(2)
        doc = nn.net_to_doc(random_net(rng))
        doc["layer_dims"][1] = 2  # 4-2-2 needs 16 parameters, and the vector holds 23
        path = tmp_path / "dqn.json"
        path.write_text(json.dumps(
            {"format_version": nn.FORMAT_VERSION, "kind": "dqn", "episode": 1, "net": doc}))
        with pytest.raises(nn.CheckpointError, match="184 bytes"):
            learning.load_learning_checkpoint(path)

    def test_unknown_activation_rejected(self):
        doc = nn.net_to_doc(random_net(np.random.default_rng(2)))
        doc["activations"][0] = "tanh"
        with pytest.raises(nn.CheckpointError, match="tanh"):
            nn.net_from_doc(doc)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=23, max_size=23))
    @example(values=[-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                     -2.225073858507201e-308, 2.2250738585072014e-308,
                     np.finfo(np.float64).max, -np.finfo(np.float64).max, 1.0, -1.0,
                     *np.random.default_rng(7).normal(scale=3.0, size=12)])
    def test_file_round_trip_keeps_every_bit(self, tmp_path_factory, values):
        """Save -> file -> load gives the same 64 bits for every parameter:
        -0.0, subnormals and the largest floats included."""
        net = random_net(np.random.default_rng(0))
        net.parameters[:] = values
        path = tmp_path_factory.mktemp("bits") / "dqn.json"
        learning.save_learning_checkpoint("dqn", SimpleNamespace(net=net), path, episode=1)
        kind, nets = learning.load_learning_checkpoint(path)
        loaded = nets["net"]
        assert kind == "dqn"
        assert loaded.layer_dims == net.layer_dims
        assert loaded.activations == net.activations
        assert loaded.parameters.tobytes() == net.parameters.tobytes()
        # the loaded net owns a writable vector of its own, as a trained one does
        loaded.parameters[0] = 1.5
        assert loaded.layers[0].weights[0, 0] == 1.5

    @pytest.mark.parametrize("fault, message", [
        ("bad-character", "not base64"),
        ("bad-padding", "not base64"),
        ("not-a-string", "not base64"),
        ("one-float-short", "176 bytes"),
        ("one-dim-more", "one more than the 2 activations"),
        ("one-activation-more", "one more than the 3 activations"),
        ("zero-width", "positive integers"),
        ("float-dim", "positive integers"),
        ("dims-not-a-list", "must be lists"),
        ("no-parameters", "parameters"),
        ("nan", "1 parameters are not finite"),
        ("inf", "2 parameters are not finite"),
    ])
    def test_malformed_net_document_refused(self, fault, message):
        net = random_net(np.random.default_rng(2))
        if fault == "nan":
            net.layers[1].biases[0] = np.nan
        elif fault == "inf":
            net.layers[0].weights[1, 2] = np.inf
            net.layers[0].weights[2, 1] = -np.inf
        doc = nn.net_to_doc(net)
        text = doc["parameters"]
        if fault == "bad-character":
            doc["parameters"] = "*" + text[1:]
        elif fault == "bad-padding":
            doc["parameters"] = text[:-1]
        elif fault == "not-a-string":
            doc["parameters"] = 5
        elif fault == "one-float-short":
            doc["parameters"] = base64.b64encode(base64.b64decode(text)[:-8]).decode()
        elif fault == "one-dim-more":
            doc["layer_dims"].append(2)
        elif fault == "one-activation-more":
            doc["activations"].append("linear")
        elif fault == "zero-width":
            doc["layer_dims"][1] = 0
        elif fault == "float-dim":
            doc["layer_dims"][1] = 3.0
        elif fault == "dims-not-a-list":
            doc["layer_dims"] = "4-3-2"
        elif fault == "no-parameters":
            del doc["parameters"]
        with pytest.raises(nn.CheckpointError, match=message):
            nn.net_from_doc(doc)

    @pytest.mark.parametrize("version", [1, 3, 99, "2", None])
    def test_other_format_version_refused(self, tmp_path, version):
        """A checkpoint of another version is refused with a message to
        retrain; version 1 stored each layer's weights and biases as
        nested float lists under a versioned net document."""
        net = random_net(np.random.default_rng(2))
        if version == 1:
            doc = {"format_version": 1, "kind": "dqn", "episode": 1, "net": {
                "format_version": 1,
                "layer_dims": net.layer_dims,
                "activations": net.activations,
                "weights": [layer.weights.tolist() for layer in net.layers],
                "biases": [layer.biases.tolist() for layer in net.layers],
            }}
        else:
            doc = {"format_version": version, "kind": "dqn", "episode": 1,
                   "net": nn.net_to_doc(net)}
        path = tmp_path / "dqn.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(nn.CheckpointError,
                           match=rf"{re.escape(str(path))}: format_version "
                                 rf"{re.escape(repr(version))}, .*retrain"):
            learning.load_learning_checkpoint(path)

    def test_checkpoint_without_a_version_refused(self, tmp_path):
        path = tmp_path / "dqn.json"
        learning.save_learning_checkpoint(
            "dqn", SimpleNamespace(net=random_net(np.random.default_rng(2))), path, episode=1)
        doc = json.loads(path.read_text())
        del doc["format_version"]
        path.write_text(json.dumps(doc))
        with pytest.raises(nn.CheckpointError, match="format_version"):
            learning.load_learning_checkpoint(path)


class TestXorTraining:
    def test_xor_converges(self):
        rng = np.random.default_rng(42)
        net = nn.init_net((2, 8, 1), ("relu", "linear"), rng)
        state = nn.adam_init(net, lr=0.01)
        inputs = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        targets = np.array([[0.0], [1.0], [1.0], [0.0]])
        loss = np.inf
        for step in range(5_000):
            out, cache = nn.forward_cache(net, inputs)
            error = out - targets
            loss = float(np.mean(error**2))
            if loss < 0.05:
                break
            nn.backward(net, cache, 2.0 * error / len(inputs))
            nn.adam_step(net, state)
        assert loss < 0.05, f"XOR failed to converge: loss {loss} at step {step}"
