"""Tests for the from-scratch MLP, IDX data loading, and the training loop."""
import dataclasses
import gzip
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollball import neural
from rollball.landscape import value_and_grad
from rollball.neural import (Dataset, EpochStats,
                             IdxCountMismatchError, IdxMagicError,
                             IdxTruncatedError, MlpSpec, as_landscape,
                             evaluate, find_mnist, flatten, init_params,
                             load_idx, load_mnist, loss_and_grad, param_count,
                             train_mlp, unflatten)
from rollball.optimizer import StepRecord, run_rbo

from reference import finite_difference_grad

TINY = MlpSpec(inputs=6, hidden=(5,), outputs=3)


def tiny_dataset(n: int = 40, seed: int = 0) -> Dataset:
    rng = np.random.default_rng(seed)
    return Dataset(images=rng.uniform(0.0, 1.0, size=(n, 6)),
                   labels=rng.integers(0, 3, size=n))


# ---------------------------------------------------------------------------
# architecture and parameters
# ---------------------------------------------------------------------------

class TestSpec:
    def test_default_architecture(self):
        spec = MlpSpec()
        assert spec.layer_sizes == (784, 256, 256, 10)
        assert param_count(spec) == 269_322

    def test_tiny_count(self):
        # 6*5 + 5 weights+biases, then 5*3 + 3
        assert param_count(TINY) == 53

    def test_validation(self):
        with pytest.raises(ValueError, match="hidden"):
            MlpSpec(hidden=())
        with pytest.raises(ValueError, match="outputs"):
            MlpSpec(outputs=1)

    def test_init_deterministic_and_scaled(self):
        p1 = init_params(MlpSpec(), seed=3)
        p2 = init_params(MlpSpec(), seed=3)
        assert np.array_equal(p1, p2)
        assert not np.array_equal(p1, init_params(MlpSpec(), seed=4))
        sizes = MlpSpec().layer_sizes
        for (w, b), fan_in, fan_out in zip(unflatten(MlpSpec(), p1),
                                           sizes, sizes[1:]):
            scale = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= scale)
            assert np.all(b == 0.0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_flatten_round_trip(self, seed):
        params = np.random.default_rng(seed).standard_normal(param_count(TINY))
        assert np.array_equal(flatten(TINY, unflatten(TINY, params)), params)

    def test_unflatten_views_not_copies(self):
        params = np.zeros(param_count(TINY))
        w, _ = unflatten(TINY, params)[0]
        w[0, 0] = 7.0
        assert params[0] == 7.0

    def test_unflatten_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 53 parameters"):
            unflatten(TINY, np.zeros(54))

    def test_flatten_rejects_wrong_shapes(self):
        layers = unflatten(TINY, np.zeros(param_count(TINY)))
        with pytest.raises(ValueError, match="layers"):
            flatten(TINY, layers[:1])
        bad = [(np.zeros((6, 4)), np.zeros(4))] + layers[1:]
        with pytest.raises(ValueError, match="shape mismatch"):
            flatten(TINY, bad)


# ---------------------------------------------------------------------------
# loss and gradient
# ---------------------------------------------------------------------------

class TestLossAndGrad:
    def test_zero_params_give_log_n_classes(self):
        # all-zero weights make every class equally likely
        spec = MlpSpec(inputs=3, hidden=(2,), outputs=10)
        images = np.random.default_rng(0).uniform(size=(4, 3))
        labels = np.array([0, 3, 9, 1])
        loss, grad = loss_and_grad(spec, np.zeros(param_count(spec)),
                                   images, labels)
        assert loss == math.log(10.0)
        assert grad.shape == (param_count(spec),)

    def test_matches_finite_differences(self):
        params = init_params(TINY, seed=1)
        data = tiny_dataset()
        landscape = as_landscape(TINY, data)
        g = value_and_grad(landscape, params)[1]
        fd = finite_difference_grad(landscape, params)
        assert np.linalg.norm(g - fd) / np.linalg.norm(g) < 1e-6

    def test_non_finite_forward_raises(self):
        params = np.full(param_count(TINY), 1e200)
        data = tiny_dataset()
        with np.errstate(over="ignore"):
            with pytest.raises(FloatingPointError, match="non-finite"):
                loss_and_grad(TINY, params, data.images, data.labels)

    def test_rejects_empty_or_flat_batch(self):
        params = np.zeros(param_count(TINY))
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grad(TINY, params, np.zeros((0, 6)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="non-empty"):
            loss_and_grad(TINY, params, np.zeros(6), np.zeros(1, dtype=int))

    @pytest.mark.parametrize("hidden", [(5,), (5, 4)])
    def test_flat_gradient_matches_per_layer_products(self, hidden):
        # the gradient written in place into one flat vector equals the
        # per-layer products joined by flatten
        spec = MlpSpec(inputs=6, hidden=hidden, outputs=3)
        rng = np.random.default_rng(4)
        params = init_params(spec, seed=4) + 0.1 * rng.standard_normal(param_count(spec))
        data = tiny_dataset()
        layers = unflatten(spec, params)
        inputs = [data.images]
        for w, b in layers[:-1]:
            inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
        logits = inputs[-1] @ layers[-1][0] + layers[-1][1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        delta = exp / exp.sum(axis=1, keepdims=True)
        delta[np.arange(data.n), data.labels] -= 1.0
        delta = delta / data.n
        grads = []
        for k in range(len(layers) - 1, -1, -1):
            grads.insert(0, (inputs[k].T @ delta, delta.sum(0)))
            if k > 0:
                a = inputs[k]
                delta = delta @ layers[k][0].T
                delta = delta * (a > 0.0)
        _, grad = loss_and_grad(spec, params, data.images, data.labels)
        assert np.array_equal(grad, flatten(spec, grads))

    def test_evaluate_ties_pick_lowest_class(self):
        # zero params leave all logits equal, so argmax resolves to class 0
        data = Dataset(images=np.full((4, 6), 0.5),
                       labels=np.array([0, 1, 0, 2]))
        loss, acc = evaluate(TINY, np.zeros(param_count(TINY)), data)
        assert loss == pytest.approx(math.log(3.0), abs=1e-12)
        assert acc == 0.5


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

class TestDataset:
    def test_validation(self):
        with pytest.raises(ValueError, match="matrix"):
            Dataset(images=np.zeros(6), labels=np.zeros(1, dtype=int))
        with pytest.raises(ValueError, match="count"):
            Dataset(images=np.zeros((2, 6)), labels=np.zeros(3, dtype=int))
        with pytest.raises(ValueError, match=r"\[0, 9\]"):
            Dataset(images=np.zeros((1, 6)), labels=np.array([10]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Dataset(images=np.full((1, 6), 1.5), labels=np.array([0]))

    def test_subset_and_split(self):
        data = tiny_dataset(10)
        head, tail = data.split(4)
        assert head.n == 4 and tail.n == 6
        assert np.array_equal(head.images, data.images[:4])
        assert np.array_equal(tail.labels, data.labels[4:])
        sub = data.subset([1, 3])
        assert np.array_equal(sub.images, data.images[[1, 3]])
        with pytest.raises(ValueError, match="split point"):
            data.split(0)
        with pytest.raises(ValueError, match="split point"):
            data.split(10)


def write_idx_pair(dirpath, images, labels, gz=False,
                   image_magic=2051, label_magic=2049, truncate=0):
    """Write an IDX image/label pair; returns the two paths."""
    n, rows, cols = images.shape
    img = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate:
        img = img[:-truncate]
    lab = struct.pack(">II", label_magic, len(labels)) + labels.tobytes()
    suffix = ".gz" if gz else ""
    img_path = dirpath / f"images-idx3-ubyte{suffix}"
    lab_path = dirpath / f"labels-idx1-ubyte{suffix}"
    img_path.write_bytes(gzip.compress(img) if gz else img)
    lab_path.write_bytes(gzip.compress(lab) if gz else lab)
    return img_path, lab_path


class TestIdx:
    IMAGES = np.arange(5 * 4 * 3, dtype=np.uint8).reshape(5, 4, 3)
    LABELS = np.array([0, 1, 2, 3, 4], dtype=np.uint8)

    def test_round_trip(self, tmp_path):
        paths = write_idx_pair(tmp_path, self.IMAGES, self.LABELS)
        data = load_idx(*paths)
        assert data.n == 5
        assert np.array_equal(data.images,
                              self.IMAGES.reshape(5, 12).astype(float) / 255.0)
        assert np.array_equal(data.labels, self.LABELS.astype(np.int64))

    def test_gzip_round_trip(self, tmp_path):
        paths = write_idx_pair(tmp_path, self.IMAGES, self.LABELS, gz=True)
        data = load_idx(*paths)
        assert data.n == 5
        assert data.images.shape == (5, 12)

    def test_wrong_magic(self, tmp_path):
        paths = write_idx_pair(tmp_path, self.IMAGES, self.LABELS,
                               image_magic=2050)
        with pytest.raises(IdxMagicError, match="expected 2051"):
            load_idx(*paths)

    def test_truncated(self, tmp_path):
        paths = write_idx_pair(tmp_path, self.IMAGES, self.LABELS, truncate=3)
        with pytest.raises(IdxTruncatedError, match="pixel data"):
            load_idx(*paths)

    def test_count_mismatch(self, tmp_path):
        paths = write_idx_pair(tmp_path, self.IMAGES, self.LABELS[:4])
        with pytest.raises(IdxCountMismatchError, match="4 labels for 5 images"):
            load_idx(*paths)


def seed_mnist_dir(root, rows=2):
    """Blank digit files, rows each, labelled 0, 1, 0, 1, ..."""
    root.mkdir(parents=True, exist_ok=True)
    images = np.zeros((rows, 28, 28), dtype=np.uint8)
    labels = (np.arange(rows) % 2).astype(np.uint8)
    for img_name, lab_name in (("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
                               ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")):
        img = struct.pack(">IIII", 2051, rows, 28, 28) + images.tobytes()
        lab = struct.pack(">II", 2049, rows) + labels.tobytes()
        (root / img_name).write_bytes(img)
        (root / lab_name).write_bytes(lab)


class TestFindMnist:
    def test_nothing_found(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert find_mnist() is None

    def test_explicit_dir_wins(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        seed_mnist_dir(tmp_path / "digits")
        paths = find_mnist(tmp_path / "digits")
        assert paths is not None
        assert set(paths) == {"train_images", "train_labels",
                              "test_images", "test_labels"}

    def test_env_var(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        seed_mnist_dir(tmp_path / "digits")
        monkeypatch.setenv("RLB_DATA_DIR", str(tmp_path / "digits"))
        assert find_mnist() is not None

    def test_local_data_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        seed_mnist_dir(tmp_path / "data")
        assert find_mnist() is not None

    def test_gz_variant_found(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        root = tmp_path / "digits"
        seed_mnist_dir(root)
        plain = root / "train-images-idx3-ubyte"
        (root / "train-images-idx3-ubyte.gz").write_bytes(
            gzip.compress(plain.read_bytes()))
        plain.unlink()
        paths = find_mnist(root)
        assert paths is not None
        assert paths["train_images"].suffix == ".gz"

    def test_load_mnist_missing_names_env_var(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError, match="RLB_DATA_DIR"):
            load_mnist()

    def test_load_mnist_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv("RLB_DATA_DIR", raising=False)
        seed_mnist_dir(tmp_path / "digits")
        train, test = load_mnist(tmp_path / "digits")
        assert train.n == 2 and test.n == 2
        assert train.images.shape == (2, 784)


# ---------------------------------------------------------------------------
# the loss as a landscape
# ---------------------------------------------------------------------------

class TestAsLandscape:
    def test_full_batch_deterministic(self):
        data = tiny_dataset()
        landscape = as_landscape(TINY, data)
        assert landscape.name == "mlp-6-5-3(full batch)"
        assert not landscape.is_stochastic
        params = init_params(TINY, seed=0)
        loss, grad = loss_and_grad(TINY, params, data.images, data.labels)
        value, backward = landscape.forward(params)
        assert value == loss
        assert np.array_equal(backward(), grad)

    def test_stochastic_views(self):
        data = tiny_dataset()
        landscape = as_landscape(TINY, data, batch_size=8)
        assert landscape.name == "mlp-6-5-3(batch=8)"
        assert landscape.is_stochastic
        params = init_params(TINY, seed=0)
        # the base landscape reads the full dataset
        full_loss = loss_and_grad(TINY, params, data.images, data.labels)[0]
        assert landscape.forward(params)[0] == full_loss
        # a bound context reads exactly its rows
        idx = landscape.sample_context(np.random.default_rng(5))
        assert idx.shape == (8,) and len(set(idx.tolist())) == 8
        view = landscape.with_context(idx)
        batch_loss = loss_and_grad(TINY, params,
                                   data.images[idx], data.labels[idx])[0]
        assert view.forward(params)[0] == batch_loss
        assert not view.is_stochastic

    def test_validation(self):
        empty = Dataset(images=np.zeros((0, 6)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValueError, match="empty"):
            as_landscape(TINY, empty)
        with pytest.raises(ValueError, match="pixels per row"):
            as_landscape(TINY, Dataset(images=np.zeros((3, 4)),
                                       labels=np.zeros(3, dtype=int)))
        with pytest.raises(ValueError, match="batch_size"):
            as_landscape(TINY, tiny_dataset(), batch_size=41)


def eager_backward(landscape):
    """The landscape, and every minibatch view it binds, with a forward that
    runs the backward pass at once: each oracle call then pays for both."""
    bind = landscape.with_context

    def forward(theta):
        v, g = value_and_grad(landscape, theta)
        return v, lambda: g
    return dataclasses.replace(
        landscape, forward=forward,
        with_context=None if bind is None else lambda ctx: eager_backward(bind(ctx)))


class TestDeferredBackward:
    """run_rbo reads a trial's gradient only when the trial lowers G."""

    STEPS = 10

    def run(self, landscape):
        return run_rbo(landscape, init_params(TINY, seed=0), rho=1.0, eta=6.0,
                       steps=self.STEPS, seed=3)

    def test_matches_the_fused_path(self):
        landscape = as_landscape(TINY, tiny_dataset(), batch_size=8)
        deferred, fused = self.run(landscape), self.run(eager_backward(landscape))
        assert deferred.error == fused.error
        assert len(deferred.records) == len(fused.records) == self.STEPS + 1
        for a, b in zip(deferred.records, fused.records):
            for fld in dataclasses.fields(StepRecord):
                assert np.array_equal(getattr(a, fld.name), getattr(b, fld.name))

    def test_rejected_trials_skip_the_backward_pass(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}
        inner = neural.loss_and_backward

        def counted(*args, **kwargs):
            calls["forward"] += 1
            loss, backward = inner(*args, **kwargs)

            def counted_backward():
                calls["backward"] += 1
                return backward()
            return loss, counted_backward

        monkeypatch.setattr(neural, "loss_and_backward", counted)
        landscape = as_landscape(TINY, tiny_dataset(), batch_size=8)
        seen = {}
        for label, ls in (("deferred", landscape), ("fused", eager_backward(landscape))):
            calls.update(forward=0, backward=0)
            traj = self.run(ls)
            assert traj.error is None
            lifts = 1 + self.STEPS  # record 0, then one per minibatch view
            trials = sum(r.projection_iters for r in traj.records)
            assert calls["forward"] == trials + lifts
            seen[label] = dict(calls)
        assert seen["fused"]["backward"] == seen["fused"]["forward"]
        assert seen["deferred"]["backward"] < seen["deferred"]["forward"]


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

class TestTrainMlp:
    def test_epoch_zero_measures_init(self):
        train = tiny_dataset(32, seed=1)
        val = tiny_dataset(16, seed=2)
        params, stats = train_mlp(TINY, train, val, epochs=0, seed=7)
        assert np.array_equal(params, init_params(TINY, seed=7))
        assert len(stats) == 1
        assert stats[0].epoch == 0
        assert stats[0].train_loss == pytest.approx(math.log(3.0), rel=0.5)

    def test_one_row_per_epoch(self):
        train = tiny_dataset(32, seed=1)
        val = tiny_dataset(16, seed=2)
        _, stats = train_mlp(TINY, train, val, optimizer="sgd", epochs=3,
                             batch_size=8, eta=0.5, seed=0)
        assert [s.epoch for s in stats] == [1, 2, 3]
        assert all(isinstance(s, EpochStats) for s in stats)

    def test_seeded_runs_reproduce(self):
        train = tiny_dataset(32, seed=1)
        val = tiny_dataset(16, seed=2)
        kw = dict(optimizer="rbo", epochs=2, batch_size=8,
                  eta=0.5, rho=1.0, seed=3)
        p1, s1 = train_mlp(TINY, train, val, **kw)
        p2, s2 = train_mlp(TINY, train, val, **kw)
        assert np.array_equal(p1, p2)
        assert s1 == s2
        p3, _ = train_mlp(TINY, train, val, **{**kw, "seed": 4})
        assert not np.array_equal(p1, p3)

    def test_rejects_unknown_optimizer(self):
        train = tiny_dataset(8)
        with pytest.raises(ValueError, match="unknown optimizer"):
            train_mlp(TINY, train, train, optimizer="adam")
        with pytest.raises(ValueError, match="epochs"):
            train_mlp(TINY, train, train, epochs=-1)

    def test_rejects_a_hyperparameter_its_optimizer_does_not_take(self):
        train = tiny_dataset(8)
        with pytest.raises(ValueError, match="rho applies to the rbo optimizer only"):
            train_mlp(TINY, train, train, optimizer="sgd", rho=123)
        with pytest.raises(ValueError, match="sam_rho applies to the sam optimizer only"):
            train_mlp(TINY, train, train, optimizer="sgd", sam_rho=9)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            train_mlp(TINY, train, train, optimizer="rbo", max_iters=0)

    def test_defaults_come_from_the_optimizer_table(self):
        train = tiny_dataset(32, seed=1)
        for name, hyper in [("sgd", dict(eta=0.01)), ("rbo", dict(eta=6.0, rho=1.0))]:
            p1, s1 = train_mlp(TINY, train, train, optimizer=name, epochs=1, batch_size=8)
            p2, s2 = train_mlp(TINY, train, train, optimizer=name, epochs=1, batch_size=8,
                               **hyper)
            assert np.array_equal(p1, p2) and s1 == s2

    def test_epoch_memory_is_flat_in_the_step_count(self):
        """An epoch keeps no per-step records: going from 8 to 32 sgd steps
        over the same rows of the full-size network must not raise the
        traced peak by as much as two parameter vectors."""
        spec = MlpSpec()
        rng = np.random.default_rng(0)
        rows = Dataset(images=rng.random((256, 784)), labels=rng.integers(0, 10, 256))
        peaks = []
        for batch_size in (32, 8):  # 8, then 32 steps
            tracemalloc.start()
            try:
                train_mlp(spec, rows, rows.subset(slice(0, 16)), optimizer="sgd",
                          epochs=1, batch_size=batch_size, eta=0.01)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 2 * param_count(spec) * 8

    def test_diverged_epoch_raises(self):
        train = tiny_dataset(8)
        with pytest.raises(RuntimeError, match="epoch 1 aborted"):
            train_mlp(TINY, train, train, optimizer="gd", epochs=1,
                      batch_size=8, eta=1e16)
