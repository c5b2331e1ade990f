"""Sequential Q-networks, the two shipped architectures, checkpoint IO.

A checkpoint is a single file: a little-endian uint32 header length, a JSON
header (layer specs, parameter shapes, caller metadata), then every
parameter tensor as raw little-endian float64 in layer order.  Round-trips
are bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU, ZeroPad2D


class Sequential:
    """Layer pipeline with a verified shape chain.

    `in_shape` is (channels, height, width) or (features,).  Building
    raises immediately on any inter-layer shape mismatch, so a network that
    constructs at all is structurally sound.
    """

    def __init__(self, layers: list[Layer], in_shape: tuple):
        self.layers = layers
        self.in_shape = tuple(in_shape)
        shapes = [self.in_shape]
        for layer in layers:
            shapes.append(layer.out_shape(shapes[-1]))
        self.shapes = shapes
        # the input tensor never needs a gradient
        for layer in layers:
            if layer.params:
                layer.needs_input_grad = False
                break
        # a convolution behind zero padding reads only zeros outside the
        # windows that reach the padded input
        for k, (pad, conv) in enumerate(zip(layers, layers[1:])):
            if isinstance(pad, ZeroPad2D) and isinstance(conv, Conv2D):
                conv.box = conv.windows_reaching(shapes[k + 1],
                                                 *pad.interior(shapes[k]))

    def batch(self, states: list) -> list | np.ndarray:
        """`forward`'s input for a list of unbatched states.

        Sparse states (those with a `cells()` list) stay a list when the
        first layer is a convolution, which reads them without densifying;
        any other states are stacked into one float64 array.
        """
        if (isinstance(self.layers[0], Conv2D)
                and all(hasattr(s, "cells") for s in states)):
            return list(states)
        return np.stack([np.asarray(s, dtype=np.float64) for s in states])

    def forward(self, x) -> np.ndarray:
        """Action values for a batch: a stacked array, or a list of sparse
        states when the first layer is a convolution."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def predict(self, state) -> np.ndarray:
        """Action values for one unbatched state."""
        return self.forward(self.batch([state]))[0]

    def backward(self, dy: np.ndarray) -> None:
        for layer in reversed(self.layers):
            dy = layer.backward(dy)
            if dy is None:
                break

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.params]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.grads]

    def copy_weights_from(self, other: "Sequential") -> None:
        for dst, src in zip(self.parameters(), other.parameters()):
            dst[...] = src

    def spec(self) -> dict:
        return {"in_shape": list(self.in_shape),
                "layers": [layer.spec() for layer in self.layers]}


def network_from_spec(spec: dict, rng: np.random.Generator | None = None) -> Sequential:
    rng = rng or np.random.default_rng(0)
    layers: list[Layer] = []
    for item in spec["layers"]:
        kind = item["type"]
        if kind == "conv":
            layers.append(Conv2D(item["in_channels"], item["filters"],
                                 item["kernel"], item["stride"], rng))
        elif kind == "maxpool":
            layers.append(MaxPool2D(item["size"]))
        elif kind == "pad":
            layers.append(ZeroPad2D(item["target"]))
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "flatten":
            layers.append(Flatten())
        elif kind == "dense":
            layers.append(Dense(item["n_in"], item["n_out"], rng))
        else:
            raise ValueError(f"unknown layer type {kind!r}")
    return Sequential(layers, tuple(spec["in_shape"]))


def formation_network(n_actions: int,
                      rng: np.random.Generator | None = None) -> Sequential:
    """Size-decision CNN over the 160x160x4 formation canvas."""
    rng = rng or np.random.default_rng(0)
    return Sequential([
        Conv2D(4, 32, (5, 5), (3, 3), rng), ReLU(),
        MaxPool2D((2, 2)),
        Conv2D(32, 32, (3, 3), (2, 2), rng), ReLU(),
        ZeroPad2D((26, 26)),
        Conv2D(32, 64, (3, 3), (2, 2), rng), ReLU(),
        Conv2D(64, 64, (3, 3), (2, 2), rng), ReLU(),
        Flatten(),
        Dense(1600, 100, rng), ReLU(),
        Dense(100, n_actions, rng),
    ], (4, 160, 160))


def coordination_network(granularity: int, n_actions: int = 24,
                         rng: np.random.Generator | None = None) -> Sequential:
    """Priority-decision CNN over the four g x g coordination matrices."""
    rng = rng or np.random.default_rng(0)
    g = granularity
    if g == 6:
        layers = [
            ZeroPad2D((16, 16)),
            Conv2D(4, 32, (3, 3), (1, 1), rng), ReLU(),
            Conv2D(32, 64, (3, 3), (2, 2), rng), ReLU(),
            Conv2D(64, 64, (3, 3), (2, 2), rng), ReLU(),
        ]
    elif g == 12:
        layers = [
            ZeroPad2D((20, 20)),
            Conv2D(4, 32, (3, 3), (1, 1), rng), ReLU(),
            Conv2D(32, 64, (3, 3), (3, 3), rng), ReLU(),
            Conv2D(64, 64, (3, 3), (2, 2), rng), ReLU(),
        ]
    elif g == 24:
        layers = [
            ZeroPad2D((30, 30)),
            Conv2D(4, 32, (3, 3), (1, 1), rng), ReLU(),
            Conv2D(32, 64, (3, 3), (3, 3), rng), ReLU(),
            Conv2D(64, 64, (3, 3), (2, 2), rng), ReLU(),
            MaxPool2D((2, 2)),
        ]
    else:
        raise ValueError(f"granularity must be 6, 12 or 24, got {g}")
    layers += [Flatten(), Dense(256, 16, rng), ReLU(), Dense(16, n_actions, rng)]
    return Sequential(layers, (4, g, g))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, net: Sequential, meta: dict | None = None) -> None:
    params = net.parameters()
    header = {
        "format": 1,
        "spec": net.spec(),
        "shapes": [list(p.shape) for p in params],
        "meta": meta or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(np.ascontiguousarray(p, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[Sequential, dict]:
    with open(path, "rb") as fh:
        (n,) = struct.unpack("<I", fh.read(4))
        header = json.loads(fh.read(n).decode("utf-8"))
        if header.get("format") != 1:
            raise ValueError(f"unsupported checkpoint format in {path}")
        net = network_from_spec(header["spec"])
        raw = fh.read()
        if len(raw) != 8 * sum(p.size for p in net.parameters()):
            raise ValueError(f"weight bytes in {path} disagree with its header")
        flat = np.frombuffer(raw, dtype="<f8")
        for p, shape in zip(net.parameters(), header["shapes"]):
            if list(p.shape) != shape:
                raise ValueError("checkpoint shape mismatch")
            p[...] = flat[:p.size].reshape(p.shape)
            flat = flat[p.size:]
    return net, header["meta"]
