"""Layer and network tests: shape chains, loop oracles, finite differences."""

import re

import numpy as np
import pytest

from platoonsim.drl import (Conv2D, Dense, Flatten, MaxPool2D, ReLU,
                            Sequential, ZeroPad2D, coordination_network,
                            formation_network, load_checkpoint,
                            network_from_spec, save_checkpoint)

from oracles import finite_diff_grads, naive_conv, rel_err


RNG = np.random.default_rng(7)


# ---------------------------------------------------------------------------
# convolution against the quadruple-loop oracle


@pytest.mark.parametrize("stride", [(1, 1), (2, 2), (3, 2)])
def test_conv_matches_loop_oracle(stride):
    rng = np.random.default_rng(11)
    layer = Conv2D(2, 4, (3, 3), stride, rng)
    x = rng.standard_normal((2, 2, 8, 8))
    w, b = layer.params
    assert np.max(np.abs(layer.forward(x) - naive_conv(x, w, b, *stride))) \
        <= 1e-12


def test_conv_identity_passthrough():
    layer = Conv2D(1, 1, (1, 1), (1, 1))
    layer.params[0][...] = 1.0
    layer.params[1][...] = 0.0
    x = RNG.standard_normal((3, 1, 1, 1))
    assert np.array_equal(layer.forward(x), x)


def test_conv_rejects_oversized_kernel():
    layer = Conv2D(1, 1, (5, 5), (1, 1))
    with pytest.raises(ValueError):
        layer.out_shape((1, 4, 4))
    with pytest.raises(ValueError):
        Conv2D(3, 1, (1, 1), (1, 1)).out_shape((2, 4, 4))


# ---------------------------------------------------------------------------
# pooling and padding


def test_maxpool_blockwise_max():
    x = RNG.standard_normal((2, 3, 6, 4))
    y = MaxPool2D((2, 2)).forward(x)
    assert y.shape == (2, 3, 3, 2)
    for i in range(3):
        for j in range(2):
            block = x[:, :, 2 * i:2 * i + 2, 2 * j:2 * j + 2]
            assert np.array_equal(y[:, :, i, j], block.max(axis=(2, 3)))


def test_maxpool_rejects_non_tiling_input():
    with pytest.raises(ValueError):
        MaxPool2D((2, 2)).out_shape((1, 5, 4))


def test_maxpool_tie_routes_to_first_element():
    layer = MaxPool2D((2, 2))
    x = np.ones((1, 1, 2, 2))
    layer.forward(x)
    dx = layer.backward(np.array([[[[3.0]]]]))
    assert np.array_equal(dx[0, 0], [[3.0, 0.0], [0.0, 0.0]])


def test_zeropad_centered_margins():
    layer = ZeroPad2D((26, 26))
    x = RNG.standard_normal((1, 2, 12, 12))
    y = layer.forward(x)
    assert y.shape == (1, 2, 26, 26)
    assert np.array_equal(y[:, :, 7:19, 7:19], x)
    assert y.sum() == pytest.approx(x.sum())
    assert np.array_equal(layer.backward(y), x)


def test_zeropad_odd_margin_goes_last():
    y = ZeroPad2D((8, 8)).forward(np.ones((1, 1, 5, 5)))
    assert np.array_equal(y[0, 0, 1:6, 1:6], np.ones((5, 5)))
    assert y[0, 0, 0].sum() == 0 and y[0, 0, 6:].sum() == 0


def test_zeropad_rejects_shrinking():
    with pytest.raises(ValueError):
        ZeroPad2D((4, 4)).out_shape((1, 6, 6))


# ---------------------------------------------------------------------------
# finite-difference gradients, every layer type then a composed net


def _check_grads(layer, x, check_input: bool = True, seed: int = 3):
    rng = np.random.default_rng(seed)
    probe = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float(np.sum(layer.forward(x) * probe))

    analytic_dx = layer.backward(probe)
    num_param = finite_diff_grads(loss, layer.params)
    for got, want in zip(layer.grads, num_param):
        assert rel_err(got, want) <= 1e-4
    if check_input:
        (num_dx,) = finite_diff_grads(loss, [x])
        assert rel_err(analytic_dx, num_dx) <= 1e-4


def test_conv_gradients():
    rng = np.random.default_rng(5)
    _check_grads(Conv2D(2, 3, (3, 3), (2, 2), rng),
                 rng.standard_normal((2, 2, 7, 7)))


def test_conv_gradients_with_leftover_rows():
    # input rows the strided kernel never reaches must get zero gradient
    rng = np.random.default_rng(6)
    _check_grads(Conv2D(1, 2, (2, 2), (3, 3), rng),
                 rng.standard_normal((1, 1, 6, 6)))


def test_maxpool_gradients():
    rng = np.random.default_rng(8)
    _check_grads(MaxPool2D((2, 2)), rng.standard_normal((2, 2, 4, 4)))


def test_pad_gradients():
    rng = np.random.default_rng(9)
    _check_grads(ZeroPad2D((7, 7)), rng.standard_normal((2, 2, 4, 4)))


def test_relu_gradients():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((4, 6))
    x[np.abs(x) < 0.05] += 0.1  # keep clear of the kink
    _check_grads(ReLU(), x)


def test_dense_gradients():
    rng = np.random.default_rng(12)
    _check_grads(Dense(6, 4, rng), rng.standard_normal((3, 6)))


def test_composed_network_gradients():
    # the priority-net layout at g=6, filter counts shrunk under 1e3 params
    rng = np.random.default_rng(13)
    net = Sequential([
        ZeroPad2D((8, 8)),
        Conv2D(2, 3, (3, 3), (1, 1), rng), ReLU(),
        Conv2D(3, 4, (3, 3), (2, 2), rng), ReLU(),
        Flatten(),
        Dense(16, 6, rng), ReLU(),
        Dense(6, 4, rng),
    ], (2, 6, 6))
    assert sum(p.size for p in net.parameters()) <= 1000
    x = rng.standard_normal((2, 2, 6, 6))
    probe = rng.standard_normal((2, 4))

    def loss():
        return float(np.sum(net.forward(x) * probe))

    net.forward(x)
    net.backward(probe)
    analytic = [g.copy() for g in net.gradients()]
    numeric = finite_diff_grads(loss, net.parameters())
    for got, want in zip(analytic, numeric):
        assert rel_err(got, want) <= 1e-4


_SHIPPED_NETS = {"formation": formation_network(33),
                 **{f"coordination-g{g}": coordination_network(g)
                    for g in (6, 12, 24)}}
_SHIPPED_CONVS = [pytest.param(name, k, id=f"{name}-layer{k}")
                  for name, net in _SHIPPED_NETS.items()
                  for k, layer in enumerate(net.layers)
                  if isinstance(layer, Conv2D)]


@pytest.mark.parametrize("name, k", _SHIPPED_CONVS)
def test_conv_input_gradient_is_adjoint_of_forward(name, k):
    # <conv(x) - b, dy> == <x, conv^T(dy)> on each shipped input size
    net = _SHIPPED_NETS[name]
    layer = net.layers[k]
    layer.needs_input_grad = True
    rng = np.random.default_rng(k)
    x = rng.standard_normal((2,) + net.shapes[k])
    y = layer.forward(x) - layer.params[1][None, :, None, None]
    dy = rng.standard_normal(y.shape)
    dx = layer.backward(dy)
    lhs, rhs = np.vdot(y, dy), np.vdot(x, dx)
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
    # rows and columns past the last window get exactly zero
    (kh, kw), (sh, sw) = layer.kernel, layer.stride
    reach_h = sh * (y.shape[2] - 1) + kh
    reach_w = sw * (y.shape[3] - 1) + kw
    assert not dx[:, :, reach_h:].any() and not dx[:, :, :, reach_w:].any()
    if (name, k) == ("formation", 0):
        assert (reach_h, reach_w) == (158, 158)


def test_first_parameter_layer_skips_input_gradient():
    net = formation_network(33)
    assert net.layers[0].needs_input_grad is False


# ---------------------------------------------------------------------------
# shipped architectures: exact shape chains


def _param_shapes(net):
    return [s for layer, s in zip(net.layers, net.shapes[1:])
            if not isinstance(layer, ReLU)]


def test_formation_network_shape_chain():
    net = formation_network(33)
    assert _param_shapes(net) == [
        (32, 52, 52),   # convolution 1
        (32, 26, 26),   # max pooling
        (32, 12, 12),   # convolution 2
        (32, 26, 26),   # padding
        (64, 12, 12),   # convolution 3
        (64, 5, 5),     # convolution 4
        (1600,),        # reshape
        (100,),         # fully connected 1
        (33,),          # fully connected 2
    ]


def test_coordination_network_shape_chains():
    assert _param_shapes(coordination_network(6)) == [
        (4, 16, 16), (32, 14, 14), (64, 6, 6), (64, 2, 2),
        (256,), (16,), (24,)]
    assert _param_shapes(coordination_network(12)) == [
        (4, 20, 20), (32, 18, 18), (64, 6, 6), (64, 2, 2),
        (256,), (16,), (24,)]
    assert _param_shapes(coordination_network(24)) == [
        (4, 30, 30), (32, 28, 28), (64, 9, 9), (64, 4, 4), (64, 2, 2),
        (256,), (16,), (24,)]


def test_coordination_network_rejects_other_granularity():
    with pytest.raises(ValueError):
        coordination_network(9)


def test_zero_weights_give_zero_outputs():
    net = coordination_network(6)
    for p in net.parameters():
        p[...] = 0.0
    out = net.forward(RNG.standard_normal((2, 4, 6, 6)))
    assert np.array_equal(out, np.zeros((2, 24)))


# ---------------------------------------------------------------------------
# spec round-trip and checkpoints


def test_network_spec_round_trip():
    net = coordination_network(6, rng=np.random.default_rng(2))
    twin = network_from_spec(net.spec())
    twin.copy_weights_from(net)
    x = RNG.standard_normal((3, 4, 6, 6))
    assert np.array_equal(net.forward(x), twin.forward(x))


def test_checkpoint_bit_exact_round_trip(tmp_path):
    net = coordination_network(12, rng=np.random.default_rng(4))
    meta = {"episode": 7, "seed": 123, "note": "round-trip"}
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, net, meta)
    loaded, got_meta = load_checkpoint(path)
    assert got_meta == meta
    for a, b in zip(net.parameters(), loaded.parameters()):
        assert a.dtype == np.float64 and np.array_equal(a, b)
    x = RNG.standard_normal((1, 4, 12, 12))
    assert np.array_equal(net.forward(x), loaded.forward(x))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.ckpt"
    import json
    import struct
    blob = json.dumps({"format": 99}).encode()
    path.write_bytes(struct.pack("<I", len(blob)) + blob)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "weights.ckpt"
    save_checkpoint(path, coordination_network(6), {})
    return path


def test_checkpoint_rejects_bytes_past_its_weights(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + bytes(64))
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_weights(tmp_path):
    path = _saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-80])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        load_checkpoint(path)
