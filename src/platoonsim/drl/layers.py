"""Network layers with forward and backward passes, float64 throughout.

Tensors are laid out (batch, channels, height, width).  A convolution
computes only its live windows, the ones that can read a nonzero input,
and writes its bias at every other output position:

* a batch of sparse states (a list of objects with `shape` and a `cells()`
  list, such as the formation canvas) is live only in the windows its
  cells fall in;
* a dense batch behind a `ZeroPad2D` is live in the box of windows that
  reach the unpadded interior (`Conv2D.box`, set by `Sequential`);
* any other dense batch is live everywhere.

The forward pass is an im2col matrix product over the live windows' rows.
The backward pass takes the weight gradient from the same rows and, for a
dense batch, adds the input gradient back onto the input through the same
strided windows (col2im).  Every layer caches what its backward pass needs
during forward and exposes `params`/`grads` as parallel lists.
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
    """Strided valid convolution (cross-correlation), bias per filter.

    `box` = (i0, i1, j0, j1) limits a dense batch's live windows to output
    rows [i0, i1) and columns [j0, j1); None leaves every window live.
    """

    def __init__(self, in_channels: int, filters: int, kernel, stride,
                 rng: np.random.Generator | None = None):
        super().__init__()
        self.in_channels = in_channels
        self.filters = filters
        self.kernel = tuple(kernel)
        self.stride = tuple(stride)
        self.box = None
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

    def windows_reaching(self, in_shape, r0, r1, c0, c1) -> tuple:
        """Box (i0, i1, j0, j1) of the windows that read any input position
        in rows [r0, r1) and columns [c0, c1)."""
        _, oh, ow = self.out_shape(in_shape)
        (kh, kw), (sh, sw) = self.kernel, self.stride
        return (max(0, (r0 - kh) // sh + 1), min(oh, (r1 - 1) // sh + 1),
                max(0, (c0 - kw) // sw + 1), min(ow, (c1 - 1) // sw + 1))

    def forward(self, x):
        w, b = self.params
        if isinstance(x, np.ndarray):
            n, oh, ow = self._dense_cols(x)
        else:
            n, oh, ow = self._sparse_cols(x)
        # one im2col row per live window, kept for both gradients; a window
        # that reads only zeros holds the bias
        rows = self._cols @ w.reshape(self.filters, -1).T + b
        if self._reach is not None:
            i0, i1, j0, j1 = self._reach
            y = rows.reshape(n, i1 - i0, j1 - j0, self.filters)
            if y.shape[1:3] != (oh, ow):
                box, y = y, np.empty((n, oh, ow, self.filters))
                y[...] = b
                y[:, i0:i1, j0:j1] = box
            return y.transpose(0, 3, 1, 2)
        y = np.empty((n, self.filters, oh, ow))
        y[...] = b[:, None, None]
        ns, ii, jj = self._live
        y[ns, :, ii, jj] = rows
        return y

    def _dense_cols(self, x):
        n = x.shape[0]
        _, oh, ow = self.out_shape(x.shape[1:])
        i0, i1, j0, j1 = self.box or (0, oh, 0, ow)
        (kh, kw), (sh, sw) = self.kernel, self.stride
        block = x[:, :, sh * i0:sh * (i1 - 1) + kh, sw * j0:sw * (j1 - 1) + kw]
        win = np.lib.stride_tricks.sliding_window_view(block, (kh, kw),
                                                       axis=(2, 3))
        self._cols = (win[:, :, ::sh, ::sw].transpose(0, 2, 3, 1, 4, 5)
                      .reshape(n * (i1 - i0) * (j1 - j0), -1))
        self._x_shape = x.shape
        self._reach = (i0, i1, j0, j1)
        return n, oh, ow

    def _sparse_cols(self, states):
        n, c = len(states), self.in_channels
        _, oh, ow = self.out_shape(states[0].shape)
        (kh, kw), (sh, sw) = self.kernel, self.stride
        cells = [s.cells() for s in states]
        sample = np.repeat(np.arange(n), [len(cell[0]) for cell in cells])
        ch, r, col, val = (np.concatenate(a) for a in zip(*cells))
        ch, r, col = (a.astype(np.intp) for a in (ch, r, col))
        # each cell lies in at most ceil(k/s) windows per axis; (p, q) is
        # its tap in window (i, j)
        keys, taps, vals = [], [], []
        for di in range(-(-kh // sh)):
            i = r // sh - di
            p = r - sh * i
            for dj in range(-(-kw // sw)):
                j = col // sw - dj
                q = col - sw * j
                hit = (i >= 0) & (i < oh) & (p < kh) & (j >= 0) & (j < ow) \
                    & (q < kw)
                keys.append((sample[hit] * oh + i[hit]) * ow + j[hit])
                taps.append((ch[hit] * kh + p[hit]) * kw + q[hit])
                vals.append(val[hit])
        live, row = np.unique(np.concatenate(keys), return_inverse=True)
        self._cols = np.zeros((live.size, c * kh * kw))
        self._cols[row, np.concatenate(taps)] = np.concatenate(vals)
        self._reach = None
        ns, rest = np.divmod(live, oh * ow)
        self._live = (ns, *np.divmod(rest, ow))
        return n, oh, ow

    def backward(self, dy):
        w, _ = self.params
        n, f, oh, ow = dy.shape
        if self._reach is not None:
            i0, i1, j0, j1 = self._reach
            dy_rows = dy.transpose(0, 2, 3, 1)[:, i0:i1, j0:j1].reshape(-1, f)
        else:
            ns, ii, jj = self._live
            dy_rows = dy[ns, :, ii, jj]
        self.grads[0][...] = (dy_rows.T @ self._cols).reshape(w.shape)
        self.grads[1][...] = dy.sum(axis=(0, 2, 3))
        self._cols = None
        if not self.needs_input_grad:
            return None
        if self._reach is None:
            raise ValueError("a batch of sparse states has no input gradient")
        (kh, kw), (sh, sw) = self.kernel, self.stride
        i0, i1, j0, j1 = self._reach
        bh, bw = i1 - i0, j1 - j0
        # col2im: each kernel tap adds its column back onto the input
        # positions that tap read in the forward windows
        dcols = (w.reshape(f, -1).T @ dy_rows.T).reshape(-1, kh, kw, n, bh, bw)
        dx = np.zeros(self._x_shape)
        for i in range(kh):
            for j in range(kw):
                r, c = sh * i0 + i, sw * j0 + j
                dx[:, :, r:r + sh * bh:sh, c:c + sw * bw:sw] += \
                    dcols[:, i, j].transpose(1, 0, 2, 3)
        return dx

    def spec(self):
        return {"type": "conv", "in_channels": self.in_channels,
                "filters": self.filters, "kernel": list(self.kernel),
                "stride": list(self.stride)}


class MaxPool2D(Layer):
    """Non-overlapping max pooling; window equals stride by construction.

    The first maximum in a window, in row-major order, takes its gradient.
    """

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

    def _views(self, x):
        """Element k of every window as one strided view, k row-major."""
        ph, pw = self.size
        return [x[:, :, i::ph, j::pw] for i in range(ph) for j in range(pw)]

    def forward(self, x):
        self.out_shape(x.shape[1:])
        views = self._views(x)
        y = views[0].copy()
        arg = np.zeros(y.shape, dtype=np.min_scalar_type(len(views) - 1))
        for k, view in enumerate(views[1:], 1):
            # strictly greater: a tie keeps the earlier element, and the
            # last element that beat the running max is the first maximum
            better = np.greater(view, y)
            np.maximum(y, view, out=y)
            np.maximum(arg, better * arg.dtype.type(k), out=arg)
        self._argmax = arg
        self._in_shape = x.shape
        return y

    def backward(self, dy):
        dx = np.zeros(self._in_shape)
        for k, view in enumerate(self._views(dx)):
            np.copyto(view, dy, where=self._argmax == k)
        return dx

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

    def interior(self, in_shape) -> tuple:
        """Rows [r0, r1) and columns [c0, c1) of the output that hold the
        input; everything else is zero."""
        _, h, w = in_shape
        top, _, left, _ = self._margins(h, w)
        return top, top + h, left, left + w

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
