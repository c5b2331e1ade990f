"""Network layers with forward and backward passes, float64 throughout.

Tensors are laid out (batch, channels, height, width).  Convolutions keep
one window layout: the forward pass is an im2col matrix product, and the
backward pass multiplies the output gradient back into that column layout
and adds it onto the input through the same strided windows (col2im).
Every layer caches what its backward pass needs during forward and exposes
`params`/`grads` as parallel lists.
"""

from __future__ import annotations

import numpy as np


def _he_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape).astype(np.float64)


class Layer:
    """Base contract: forward caches, backward returns dx and fills grads."""

    params: list
    grads: list

    def __init__(self):
        self.params = []
        self.grads = []
        self.needs_input_grad = True

    def out_shape(self, in_shape: tuple) -> tuple:
        raise NotImplementedError

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError


class Conv2D(Layer):
    """Strided valid convolution (cross-correlation), bias per filter."""

    def __init__(self, in_channels: int, filters: int, kernel, stride,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        kh, kw = self.kernel
        fan_in = in_channels * kh * kw
        rng = rng or np.random.default_rng(0)
        w = _he_uniform(rng, (filters, in_channels, kh, kw), fan_in)
        b = np.zeros(filters, dtype=np.float64)
        self.params = [w, b]
        self.grads = [np.zeros_like(w), np.zeros_like(b)]

    def out_shape(self, in_shape):
        c, h, w = in_shape
        if c != self.in_channels:
            raise ValueError(f"expected {self.in_channels} channels, got {c}")
        kh, kw = self.kernel
        sh, sw = self.stride
        if kh > h or kw > w:
            raise ValueError(f"kernel {self.kernel} exceeds input {in_shape}")
        return (self.filters, (h - kh) // sh + 1, (w - kw) // sw + 1)

    def forward(self, x):
        w, b = self.params
        (kh, kw), (sh, sw) = self.kernel, self.stride
        win = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
        win = win[:, :, ::sh, ::sw]
        n, _, oh, ow = win.shape[:4]
        # im2col: one row per output position, kept for both gradients
        self._cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, -1)
        self._x_shape = x.shape
        y = self._cols @ w.reshape(self.filters, -1).T
        return (y.reshape(n, oh, ow, self.filters).transpose(0, 3, 1, 2)
                + b[None, :, None, None])

    def backward(self, dy):
        w, _ = self.params
        n, f, oh, ow = dy.shape
        dy_cols = dy.transpose(0, 2, 3, 1).reshape(n * oh * ow, f)
        self.grads[0][...] = (dy_cols.T @ self._cols).reshape(w.shape)
        self.grads[1][...] = dy.sum(axis=(0, 2, 3))
        self._cols = None
        if not self.needs_input_grad:
            return None
        (kh, kw), (sh, sw) = self.kernel, self.stride
        # col2im: each kernel tap adds its column back onto the input
        # positions that tap read in the forward windows
        dcols = (dy_cols @ w.reshape(f, -1)).reshape(n, oh, ow, -1, kh, kw)
        dx = np.zeros(self._x_shape)
        for i in range(kh):
            for j in range(kw):
                dx[:, :, i:i + sh * oh:sh, j:j + sw * ow:sw] += \
                    dcols[..., i, j].transpose(0, 3, 1, 2)
        return dx

    def spec(self):
        return {"type": "conv", "in_channels": self.in_channels,
                "filters": self.filters, "kernel": list(self.kernel),
                "stride": list(self.stride)}


class MaxPool2D(Layer):
    """Non-overlapping max pooling; window equals stride by construction."""

    def __init__(self, size):
        super().__init__()
        self.size = tuple(size)
        if self.size[0] < 1 or self.size[1] < 1:
            raise ValueError("pool size must be positive")

    def out_shape(self, in_shape):
        c, h, w = in_shape
        ph, pw = self.size
        if h % ph or w % pw:
            raise ValueError(f"pool {self.size} does not tile input {in_shape}")
        return (c, h // ph, w // pw)

    def forward(self, x):
        b, c, h, w = x.shape
        ph, pw = self.size
        if h % ph or w % pw:
            raise ValueError(f"pool {self.size} does not tile input {x.shape}")
        win = (x.reshape(b, c, h // ph, ph, w // pw, pw)
                .transpose(0, 1, 2, 4, 3, 5)
                .reshape(b, c, h // ph, w // pw, ph * pw))
        self._argmax = win.argmax(axis=-1)
        self._in_shape = x.shape
        return win.max(axis=-1)

    def backward(self, dy):
        b, c, h, w = self._in_shape
        ph, pw = self.size
        flat = np.zeros((b, c, h // ph, w // pw, ph * pw))
        np.put_along_axis(flat, self._argmax[..., None], dy[..., None], axis=-1)
        return (flat.reshape(b, c, h // ph, w // pw, ph, pw)
                    .transpose(0, 1, 2, 4, 3, 5)
                    .reshape(b, c, h, w))

    def spec(self):
        return {"type": "maxpool", "size": list(self.size)}


class ZeroPad2D(Layer):
    """Zero-pads height/width up to a target size, split evenly per side
    (the extra cell of an odd difference goes to the bottom/right)."""

    def __init__(self, target):
        super().__init__()
        self.target = tuple(target)

    def _margins(self, h, w):
        th, tw = self.target
        if th < h or tw < w:
            raise ValueError(f"cannot pad {h}x{w} down to {self.target}")
        top, left = (th - h) // 2, (tw - w) // 2
        return top, th - h - top, left, tw - w - left

    def out_shape(self, in_shape):
        c, h, w = in_shape
        self._margins(h, w)
        return (c, self.target[0], self.target[1])

    def forward(self, x):
        top, bot, left, right = self._margins(x.shape[2], x.shape[3])
        self._crop = (top, top + x.shape[2], left, left + x.shape[3])
        return np.pad(x, ((0, 0), (0, 0), (top, bot), (left, right)))

    def backward(self, dy):
        r0, r1, c0, c1 = self._crop
        return dy[:, :, r0:r1, c0:c1]

    def spec(self):
        return {"type": "pad", "target": list(self.target)}


class ReLU(Layer):
    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)

    def backward(self, dy):
        return np.where(self._mask, dy, 0.0)

    def spec(self):
        return {"type": "relu"}


class Flatten(Layer):
    def out_shape(self, in_shape):
        n = 1
        for d in in_shape:
            n *= d
        return (n,)

    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy):
        return dy.reshape(self._in_shape)

    def spec(self):
        return {"type": "flatten"}


class Dense(Layer):
    def __init__(self, n_in: int, n_out: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.n_in, self.n_out = n_in, n_out
        rng = rng or np.random.default_rng(0)
        w = _he_uniform(rng, (n_out, n_in), n_in)
        b = np.zeros(n_out, dtype=np.float64)
        self.params = [w, b]
        self.grads = [np.zeros_like(w), np.zeros_like(b)]

    def out_shape(self, in_shape):
        if in_shape != (self.n_in,):
            raise ValueError(f"dense expects ({self.n_in},), got {in_shape}")
        return (self.n_out,)

    def forward(self, x):
        self._x = x
        w, b = self.params
        return x @ w.T + b

    def backward(self, dy):
        w, _ = self.params
        self.grads[0][...] = dy.T @ self._x
        self.grads[1][...] = dy.sum(axis=0)
        self._x = None
        if not self.needs_input_grad:
            return None
        return dy @ w

    def spec(self):
        return {"type": "dense", "n_in": self.n_in, "n_out": self.n_out}
