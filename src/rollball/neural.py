"""From-scratch multilayer perceptron with manual backpropagation.

The network exists to expose a real, high-dimensional training loss as a
Landscape: all parameters live in one flat vector, the loss is mean softmax
cross-entropy, and the gradient is exact backprop. Data arrives through the
big-endian IDX format that the standard digit benchmark ships in.
"""
from __future__ import annotations

import gzip
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, BinaryIO, Callable

import numpy as np

from .landscape import Array, Landscape
from .optimizer import hyperparameters, run

DATA_DIR_ENV = "RLB_DATA_DIR"

# canonical IDX basenames; a trailing .gz variant of each is also accepted
MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass(frozen=True)
class MlpSpec:
    """Fully-connected ReLU architecture: inputs -> hidden... -> outputs.

    The init seed is deliberately not part of the spec; it is an argument
    of init_params, so one architecture can be initialized many ways.
    """

    inputs: int = 784
    hidden: tuple[int, ...] = (256, 256)
    outputs: int = 10

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if len(self.hidden) < 1:
            raise ValueError("at least one hidden layer is required")
        if self.inputs < 1 or self.outputs < 2 or any(h < 1 for h in self.hidden):
            raise ValueError("layer sizes must be positive (outputs >= 2)")

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.inputs, *self.hidden, self.outputs)


def param_count(spec: MlpSpec) -> int:
    sizes = spec.layer_sizes
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))


def init_params(spec: MlpSpec, seed: int) -> Array:
    """Uniform weights at scale sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    sizes = spec.layer_sizes
    chunks = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        scale = math.sqrt(6.0 / (fan_in + fan_out))
        chunks.append(rng.uniform(-scale, scale, size=fan_in * fan_out))
        chunks.append(np.zeros(fan_out))
    return np.concatenate(chunks)


def unflatten(spec: MlpSpec, params: Array) -> list[tuple[Array, Array]]:
    """Split the flat vector into (W, b) per layer; views, never copies.

    Layer-major order: layer 0's weights row-major, then its biases, then
    layer 1, and so on. W has shape (fan_in, fan_out) so a batch maps as
    x @ W + b.
    """
    params = np.asarray(params)
    if params.shape != (param_count(spec),):
        raise ValueError(f"expected {param_count(spec)} parameters, "
                         f"got shape {params.shape}")
    sizes = spec.layer_sizes
    layers, pos = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = params[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = params[pos:pos + fan_out]
        pos += fan_out
        layers.append((w, b))
    return layers


def flatten(spec: MlpSpec, layers: list[tuple[Array, Array]]) -> Array:
    sizes = spec.layer_sizes
    if len(layers) != len(sizes) - 1:
        raise ValueError(f"expected {len(sizes) - 1} layers, got {len(layers)}")
    chunks = []
    for (w, b), fan_in, fan_out in zip(layers, sizes, sizes[1:]):
        if w.shape != (fan_in, fan_out) or b.shape != (fan_out,):
            raise ValueError(f"layer shape mismatch: {w.shape}, {b.shape}")
        chunks.append(np.asarray(w).ravel())
        chunks.append(np.asarray(b).ravel())
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def _forward(layers, x: Array) -> tuple[Array, list[Array]]:
    """Logits plus the ReLU output of every hidden layer."""
    acts = []
    h = x
    for w, b in layers[:-1]:
        z = h @ w + b
        h = np.maximum(z, 0.0)
        acts.append(h)
    w, b = layers[-1]
    return h @ w + b, acts


def _softmax_ce(logits: Array, labels: Array) -> tuple[float, Array]:
    """Mean cross-entropy and d(loss)/d(logits) for integer labels."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    n = logits.shape[0]
    loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(n), labels]))
    dlogits = exp / z
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


def loss_and_backward(spec: MlpSpec, params: Array, images: Array, labels: Array,
                      ) -> tuple[float, Callable[[], Array]]:
    """Mean softmax cross-entropy over the batch, and a backward() that
    returns its exact gradient from the activations this forward pass saved."""
    images = np.asarray(images, dtype=float)
    labels = np.asarray(labels)
    if images.ndim != 2 or images.shape[0] == 0:
        raise ValueError("batch must be a non-empty (n, inputs) matrix")
    layers = unflatten(spec, np.asarray(params, dtype=float))
    logits, acts = _forward(layers, images)
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite activations in forward pass")
    loss, dlogits = _softmax_ce(logits, labels)

    def backward() -> Array:
        # each layer's gradient is written straight into its slot of the
        # flat vector, through the same views unflatten gives the parameters
        grad = np.empty(param_count(spec))
        grad_layers = unflatten(spec, grad)
        inputs = [images] + acts  # input to layer k is inputs[k]
        delta = dlogits
        for k in range(len(layers) - 1, -1, -1):
            gw, gb = grad_layers[k]
            np.matmul(inputs[k].T, delta, out=gw)
            delta.sum(axis=0, out=gb)
            if k > 0:
                delta = delta @ layers[k][0].T
                delta = delta * (acts[k - 1] > 0.0)
        return grad

    return loss, backward


def loss_and_grad(spec: MlpSpec, params: Array, images: Array,
                  labels: Array) -> tuple[float, Array]:
    """Mean softmax cross-entropy over the batch and its exact gradient."""
    loss, backward = loss_and_backward(spec, params, images, labels)
    return loss, backward()


def evaluate(spec: MlpSpec, params: Array, dataset: "Dataset",
             chunk: int = 8192) -> tuple[float, float]:
    """Full-pass mean loss and top-1 accuracy (argmax ties go to the lowest
    class index)."""
    layers = unflatten(spec, np.asarray(params, dtype=float))
    total_loss, correct = 0.0, 0
    n = dataset.n
    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        logits, _ = _forward(layers, dataset.images[a:b])
        loss, _ = _softmax_ce(logits, dataset.labels[a:b])
        total_loss += loss * (b - a)
        correct += int(np.sum(np.argmax(logits, axis=1) == dataset.labels[a:b]))
    return total_loss / n, correct / n


# ---------------------------------------------------------------------------
# data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Dataset:
    """Rows of flattened pixels in [0, 1] with integer class labels."""

    images: Array
    labels: Array

    def __post_init__(self):
        object.__setattr__(self, "images", np.asarray(self.images, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.images.ndim != 2:
            raise ValueError("images must be a (n, pixels) matrix")
        if self.labels.shape != (self.images.shape[0],):
            raise ValueError("labels count must match images row count")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() > 9):
            raise ValueError("labels must lie in [0, 9]")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("pixel values must lie in [0, 1]")

    @property
    def n(self) -> int:
        return self.images.shape[0]

    def subset(self, idx) -> "Dataset":
        return Dataset(images=self.images[idx], labels=self.labels[idx])

    def split(self, n_first: int) -> tuple["Dataset", "Dataset"]:
        if not 0 < n_first < self.n:
            raise ValueError(f"split point must lie in (0, {self.n})")
        return self.subset(slice(0, n_first)), self.subset(slice(n_first, self.n))


class IdxError(ValueError):
    """Base class for IDX parsing failures."""


class IdxMagicError(IdxError):
    pass


class IdxTruncatedError(IdxError):
    pass


class IdxCountMismatchError(IdxError):
    pass


def _open_binary(path: str | Path) -> BinaryIO:
    # gzip-transparent: sniff the two-byte gzip signature
    fh = open(path, "rb")
    head = fh.read(2)
    fh.seek(0)
    if head == b"\x1f\x8b":
        return gzip.open(fh)  # type: ignore[return-value]
    return fh


def _read_exact(fh: BinaryIO, count: int, path, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise IdxTruncatedError(
            f"{path}: truncated while reading {what} "
            f"(wanted {count} bytes, got {len(data)})")
    return data


def _read_idx(path: str | Path, magic: int, dims: tuple[str, ...], body: str,
              ) -> tuple[list[int], bytes]:
    """The dimensions and the raw bytes of one IDX file, whose magic number
    must be `magic`; dims and body name the header fields and the data in
    error messages."""
    with _open_binary(path) as fh:
        got = int.from_bytes(_read_exact(fh, 4, path, "magic"), "big")
        if got != magic:
            raise IdxMagicError(f"{path}: wrong magic {got}, expected {magic}")
        shape = [int.from_bytes(_read_exact(fh, 4, path, what), "big") for what in dims]
        return shape, _read_exact(fh, math.prod(shape), path, body)


def load_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a Dataset.

    Images use magic 2051 with dimensions (n, rows, cols); labels use magic
    2049 with dimension (n,). Pixels are scaled by 1/255. Wrong magic,
    truncation, and image/label count disagreement raise distinct errors.
    """
    (n, rows, cols), raw = _read_idx(images_path, 2051,
                                     ("image count", "row count", "column count"),
                                     "pixel data")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)
    (n_labels,), raw = _read_idx(labels_path, 2049, ("label count",), "label data")
    labels = np.frombuffer(raw, dtype=np.uint8)
    if n_labels != n:
        raise IdxCountMismatchError(
            f"{labels_path}: {n_labels} labels for {n} images in {images_path}")
    return Dataset(images=images.astype(float) / 255.0,
                   labels=labels.astype(np.int64))


def find_mnist(data_dir: str | Path | None = None) -> dict[str, Path] | None:
    """Locate the four standard IDX files (plain or .gz).

    Searches, in order: the explicit argument, the directory named by the
    RLB_DATA_DIR environment variable, and ./data. Returns a dict with keys
    train_images/train_labels/test_images/test_labels, or None when any
    file is missing everywhere.
    """
    candidates = []
    if data_dir is not None:
        candidates.append(Path(data_dir))
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        candidates.append(Path(env))
    candidates.append(Path("data"))

    for root in candidates:
        found = {}
        for key, base in MNIST_FILES.items():
            for name in (base, base + ".gz"):
                if (root / name).is_file():
                    found[key] = root / name
                    break
        if len(found) == len(MNIST_FILES):
            return found
    return None


def load_mnist(data_dir: str | Path | None = None) -> tuple[Dataset, Dataset]:
    """(train, test) datasets, or FileNotFoundError naming the search path."""
    paths = find_mnist(data_dir)
    if paths is None:
        searched = data_dir or os.environ.get(DATA_DIR_ENV) or "./data"
        raise FileNotFoundError(
            f"IDX digit files not found (searched {searched}); place the four "
            f"standard files there or set {DATA_DIR_ENV}")
    return (load_idx(paths["train_images"], paths["train_labels"]),
            load_idx(paths["test_images"], paths["test_labels"]))


# ---------------------------------------------------------------------------
# the training loss as a landscape
# ---------------------------------------------------------------------------

def as_landscape(spec: MlpSpec, dataset: Dataset, batch_size: int | None = None) -> Landscape:
    """Expose mean training loss over `dataset` as a Landscape in R^d.

    batch_size None or equal to the dataset size gives the deterministic
    full-batch landscape. Smaller batch sizes give a stochastic landscape:
    each drawn context is one uniformly sampled (without replacement) batch
    of row indices, and binding it yields the deterministic view on those
    rows. The base landscape's own forward reads the full dataset, so
    record 0 of a run that keeps its records reports the true objective.
    A run's own seed draws its minibatches.
    """
    if dataset.n == 0:
        raise ValueError("dataset is empty")
    if dataset.images.shape[1] != spec.inputs:
        raise ValueError(f"dataset has {dataset.images.shape[1]} pixels per row, "
                         f"spec expects {spec.inputs}")
    if batch_size is None:
        batch_size = dataset.n
    if not 0 < batch_size <= dataset.n:
        raise ValueError(f"batch_size must lie in [1, {dataset.n}]")

    d = param_count(spec)
    arch = "-".join(str(s) for s in spec.layer_sizes)

    def _view(images: Array, labels: Array, name: str,
              sample_context=None, with_context=None) -> Landscape:
        # views over a bound batch carry no samplers: they are deterministic
        def forward(theta: Array) -> tuple[float, Callable[[], Array]]:
            return loss_and_backward(spec, theta, images, labels)

        return Landscape(dim=d, forward=forward, name=name,
                         sample_context=sample_context, with_context=with_context)

    if batch_size == dataset.n:
        return _view(dataset.images, dataset.labels, f"mlp-{arch}(full batch)")

    def sample_context(rng: np.random.Generator) -> Array:
        return rng.choice(dataset.n, size=batch_size, replace=False)

    def with_context(ctx: Array) -> Landscape:
        idx = np.asarray(ctx)
        return _view(dataset.images[idx], dataset.labels[idx],
                     f"mlp-{arch}(batch={batch_size})")

    return _view(dataset.images, dataset.labels,
                 f"mlp-{arch}(batch={batch_size})",
                 sample_context=sample_context, with_context=with_context)


# ---------------------------------------------------------------------------
# epoch-driven benchmark loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


def train_mlp(spec: MlpSpec, train: Dataset, val: Dataset, optimizer: str = "rbo",
              epochs: int = 10, batch_size: int = 128, seed: int = 0, **hyper: Any,
              ) -> tuple[Array, list[EpochStats]]:
    """Train for whole epochs and evaluate at every epoch boundary.

    One epoch is floor(n / batch_size) steps of optimizer.run(optimizer,
    ..., **hyper) on freshly sampled batches (hyper defaulted and checked
    before any work, see optimizer.hyperparameters); the per-epoch minibatch
    seed fans out from `seed` by a fixed offset. epochs=0 evaluates the
    freshly initialized network and returns that single row. A diverged
    epoch raises with the step that failed. Runs keep only their final
    record, so memory does not grow with the epoch's step count.
    """
    hyper = hyperparameters(optimizer, **hyper)
    if epochs < 0:
        raise ValueError("epochs must be >= 0")
    params = init_params(spec, seed)
    stats: list[EpochStats] = []

    def measure(epoch: int) -> EpochStats:
        tl, ta = evaluate(spec, params, train)
        vl, va = evaluate(spec, params, val)
        return EpochStats(epoch=epoch, train_loss=tl, train_accuracy=ta,
                          val_loss=vl, val_accuracy=va)

    if epochs == 0:
        return params, [measure(0)]

    landscape = as_landscape(spec, train, batch_size)
    steps_per_epoch = max(1, train.n // batch_size)
    for epoch in range(1, epochs + 1):
        traj = run(optimizer, landscape, params, steps_per_epoch, seed=seed + 1000 * epoch,
                   keep_records=False, **hyper)
        if traj.error is not None:
            raise RuntimeError(f"epoch {epoch} aborted: {traj.error}")
        params = traj.records[-1].theta
        stats.append(measure(epoch))
    return params, stats
