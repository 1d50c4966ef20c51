import dataclasses
import math
import typing

import numpy as np
import pytest

import sparse24 as s
from sparse24.workflow import LayerKind, Phase, PhaseKind


def manifest(**kw):
    defaults = dict(
        name="layer",
        kind=LayerKind.FULLY_CONNECTED,
        gemm_k=1024,
        in_channels=64,
        dtype=s.FP16,
        is_first=False,
    )
    defaults.update(kw)
    return s.LayerManifest(**defaults)


class TestEligibility:
    def test_fc_1024_fp16_eligible(self):
        ok, reason = s.eligible(manifest())
        assert ok, reason

    def test_first_conv_3_channel_ineligible(self):
        ok, reason = s.eligible(
            manifest(kind=LayerKind.CONV, in_channels=3, is_first=True, gemm_k=147)
        )
        assert not ok and "3-channel" in reason

    def test_non_first_conv_3_channel_still_checked_on_k(self):
        ok, _ = s.eligible(manifest(kind=LayerKind.CONV, in_channels=3, gemm_k=144))
        assert ok

    def test_k_not_multiple_of_16(self):
        ok, reason = s.eligible(manifest(gemm_k=24))
        assert not ok and "multiple of 16" in reason

    def test_int8_needs_multiple_of_32(self):
        assert s.eligible(manifest(dtype=s.INT8, gemm_k=32))[0]
        ok, reason = s.eligible(manifest(dtype=s.INT8, gemm_k=48))
        assert not ok and "multiple of 32" in reason

    def test_embedding_ineligible(self):
        ok, reason = s.eligible(manifest(name="embedding", kind=LayerKind.OTHER))
        assert not ok and "not GEMM-like" in reason

    def test_training_only_head_ineligible(self):
        ok, _ = s.eligible(manifest(name="aux_head", kind=LayerKind.OTHER))
        assert not ok

    def test_fp32_has_no_sparse_mode(self):
        ok, reason = s.eligible(manifest(dtype=s.FP32))
        assert not ok and "sparse mode" in reason


@pytest.fixture
def blobs():
    return s.make_blobs(samples=256, features=16, classes=3, seed=7)


@pytest.fixture
def net():
    return s.TinyNet.init([16, 16, 3], seed=7)


class TestTrainer:
    def test_zero_epochs_is_identity(self, net, blobs):
        sched = s.Schedule(epochs=0, lr=0.1)
        out, _ = s.train(net, blobs, sched)
        for w0, w1 in zip(net.weights, out.weights):
            assert np.array_equal(w0, w1)

    def test_deterministic_given_seed(self, net, blobs):
        sched = s.Schedule(epochs=3, lr=0.05, seed=11)
        a, _ = s.train(net, blobs, sched)
        b, _ = s.train(net, blobs, sched)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_loss_decreases_in_aggregate(self, net, blobs):
        _, hist = s.train(net, blobs, s.Schedule(epochs=8, lr=0.05))
        assert hist["loss"][-1] < hist["loss"][0]
        assert list(hist) == ["loss"] and len(hist["loss"]) == 8

    def test_reaches_95_percent_on_blobs(self):
        data = s.make_blobs(samples=512, features=64, classes=4, seed=3)
        trained, _ = s.train(s.TinyNet.init([64, 64, 4], seed=3), data, s.Schedule(epochs=10, lr=0.05, seed=3))
        assert trained.accuracy(data.x, data.y) >= 0.95

    def test_divergence_reported(self, net, blobs):
        with pytest.raises(s.workflow.DivergenceError):
            s.train(net, blobs, s.Schedule(epochs=20, lr=1e6))

    @pytest.mark.parametrize("lr", [0.05, 1e6], ids=["returns", "diverges"])
    def test_numpy_error_state_restored(self, net, blobs, lr):
        with np.errstate(over="raise", under="warn", divide="ignore", invalid="raise"):
            before = np.geterr()
            diverged = False
            try:
                s.train(net, blobs, s.Schedule(epochs=20, lr=lr))
            except s.DivergenceError:
                diverged = True
            assert diverged == (lr == 1e6)
            assert np.geterr() == before

    def test_loss_and_grads_runs_under_the_callers_error_state(self, net, blobs):
        net.weights[0] *= 1e300  # the logits overflow to ±inf, and softmax takes inf - inf
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            net.loss_and_grads(blobs.x, blobs.y)


class TestInit:
    @pytest.mark.parametrize("sizes", [[], [4], [4, 0], [0, 4], [4, 4, 0], [4.5, 2], [4, 2.0]])
    def test_needs_two_positive_layer_sizes(self, sizes):
        with pytest.raises(s.ShapeError) as exc:
            s.TinyNet.init(sizes, 0)
        assert exc.value.code == "shape"

    def test_numpy_integer_sizes(self):
        net = s.TinyNet.init([np.int64(4), np.uint8(2)], 0)
        assert [w.shape for w in net.weights] == [(2, 4)]


class TestMakeBlobs:
    @pytest.mark.parametrize(
        "kw",
        [dict(classes=0), dict(samples=-1), dict(features=-2), dict(samples=2.5), dict(features=0), dict(classes=2.0)],
        ids=["no_classes", "negative_samples", "negative_features", "fraction_samples", "no_features", "float_classes"],
    )
    def test_bad_size_rejected(self, kw):
        with pytest.raises(s.ShapeError) as exc:
            s.make_blobs(**kw)
        assert exc.value.code == "shape"

    @pytest.mark.parametrize(
        "spread", ["x", math.nan, math.inf, -math.inf, None, 1 + 2j], ids=["str", "nan", "inf", "neg_inf", "none", "complex"]
    )
    def test_spread_that_is_not_a_finite_real_rejected(self, spread):
        # unchecked, "x" raised numpy's UFuncTypeError and nan gave NaN features
        with pytest.raises(s.ShapeError, match="finite real spread") as exc:
            s.make_blobs(samples=4, spread=spread)
        assert exc.value.code == "shape"

    def test_spread_of_numpy_and_integer_reals(self):
        want = s.make_blobs(samples=4, spread=2.0).x
        for spread in (np.float32(2.0), np.int64(2), 2):
            assert np.array_equal(s.make_blobs(samples=4, spread=spread).x, want)

    def test_no_samples_and_numpy_integers(self):
        assert s.make_blobs(samples=0).x.shape == (0, 64)
        data = s.make_blobs(samples=np.int64(5), features=np.int32(3), classes=np.uint8(2))
        assert data.x.shape == (5, 3) and data.y.max() < 2


class TestDatasetFit:
    """A dataset that does not fit the net is a ShapeError before any step,
    never numpy's matmul ValueError or an IndexError on a label."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda d: s.make_blobs(samples=64, features=16, classes=4, seed=1),  # 16 features, 8 inputs
            lambda d: s.make_blobs(samples=64, features=8, classes=8, seed=1),  # labels up to 7, 4 outputs
            lambda d: s.Dataset(d.x[:, :, None], d.y),
            lambda d: s.Dataset(d.x, d.y[:-1]),
            lambda d: s.Dataset(d.x, d.y[:, None]),
            lambda d: s.Dataset(d.x, d.y.astype(np.float64)),
            lambda d: s.Dataset(d.x, d.y - 1),
        ],
        ids=["features", "classes", "x_3d", "y_short", "y_2d", "y_float", "y_negative"],
    )
    def test_misfit_dataset_rejected(self, make):
        net = s.TinyNet.init([8, 8, 4], seed=1)
        data = make(s.make_blobs(samples=64, features=8, classes=4, seed=1))
        with pytest.raises(s.ShapeError):
            s.train(net, data, s.Schedule(epochs=1, lr=0.05))
        with pytest.raises(s.ShapeError):
            s.run_recipe(s.parse_recipe(RECIPE_BASIC), net, data)

    def test_empty_dataset_fits(self):
        net = s.TinyNet.init([8, 8, 4], seed=1)
        data = s.Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64))
        out, hist = s.train(net, data, s.Schedule(epochs=2, lr=0.05))
        assert hist["loss"] == [0.0, 0.0]

    def test_accuracy_of_no_samples_rejected(self):
        net = s.TinyNet.init([8, 8, 4], seed=1)
        data = s.Dataset(np.zeros((0, 8)), np.zeros(0, dtype=np.int64))
        with pytest.raises(s.ShapeError, match="at least one sample") as exc:
            net.accuracy(data.x, data.y)
        assert exc.value.code == "shape"
        with pytest.raises(s.ShapeError, match="at least one sample"):
            s.run_recipe(s.parse_recipe(RECIPE_BASIC), net, data)

    @pytest.mark.parametrize("labels", [3, 5, 0], ids=["short", "long", "none"])
    def test_accuracy_with_a_label_count_unlike_the_samples_rejected(self, labels):
        # unchecked, the comparison raised numpy's bare broadcast ValueError
        net = s.TinyNet.init([8, 8, 4], seed=1)
        with pytest.raises(s.ShapeError, match="one label per sample") as exc:
            net.accuracy(np.zeros((4, 8)), np.zeros(labels, dtype=np.int64))
        assert exc.value.code == "shape"

    def test_accuracy_of_a_column_of_labels_rejected(self):
        # unchecked, (3,) predictions against (3, 1) labels broadcast to a 3 x 3
        # table, whose mean is not the share of correct samples
        net = s.TinyNet.init([8, 8, 4], seed=1)
        x = np.random.default_rng(0).standard_normal((3, 8))
        y = net.predict(x)
        assert net.accuracy(x, y) == 1.0
        assert len(set(y.tolist())) > 1  # the table's off-diagonal entries are not all hits
        with pytest.raises(s.ShapeError, match="one label per sample") as exc:
            net.accuracy(x, y[:, None])
        assert exc.value.code == "shape"

    @pytest.mark.parametrize("shape", [(5, 7), (5, 9), (8,), (5, 8, 1)], ids=["narrow", "wide", "1d", "3d"])
    def test_batch_of_the_wrong_width_rejected(self, shape):
        # unchecked, np.dot raises a bare ValueError, and a 1-D batch gives 1-D logits
        net = s.TinyNet.init([8, 8, 4], seed=1)
        x = np.zeros(shape)
        for call in (net.logits, net.predict, lambda x: net.accuracy(x, np.zeros(len(x), dtype=np.int64))):
            with pytest.raises(s.ShapeError, match="the net takes") as exc:
                call(x)
            assert exc.value.code == "shape"


def reference_loss_and_grads(net, x, y):
    """Plain forward and backward pass of its own: the oracle for
    ``TinyNet.loss_and_grads``."""
    ins = [x]  # each layer's input: x, then the ReLU outputs
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        ins.append(np.maximum(ins[-1] @ w.T + b, 0.0))
    logits = ins[-1] @ net.weights[-1].T + net.biases[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    n = len(x)
    loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))
    grad_z = probs.copy()
    grad_z[np.arange(n), y] -= 1.0
    grad_z /= n
    gw, gb = [None] * len(net.weights), [None] * len(net.weights)
    for i in reversed(range(len(net.weights))):
        gw[i] = grad_z.T @ ins[i]
        gb[i] = grad_z.sum(axis=0)
        if i > 0:
            grad_z = (grad_z @ net.weights[i]) * (ins[i] > 0)
    return loss, gw, gb


def reference_train(net, data, schedule, masks=None):
    """SGD with one update per layer and array: the oracle that ``train``'s
    flat-buffer step must match byte for byte."""
    net = net.clone()
    if masks:
        for i, mask in masks.items():
            net.weights[i] *= mask.bits
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    rng = np.random.default_rng(schedule.seed)
    history = {"loss": []}
    for epoch in range(schedule.epochs):
        lr = schedule.lr_at(epoch)
        order = rng.permutation(len(data.x))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), schedule.batch_size):
            idx = order[start : start + schedule.batch_size]
            with np.errstate(all="ignore"):
                loss, gw, gb = reference_loss_and_grads(net, data.x[idx], data.y[idx])
            if not np.isfinite(loss):
                raise s.DivergenceError(f"loss diverged at epoch {epoch}")
            epoch_loss += loss
            batches += 1
            for i in range(len(net.weights)):
                g = gw[i] + schedule.weight_decay * net.weights[i]
                vel_w[i] = schedule.momentum * vel_w[i] - lr * g
                net.weights[i] += vel_w[i]
                vel_b[i] = schedule.momentum * vel_b[i] - lr * gb[i]
                net.biases[i] += vel_b[i]
                if masks and i in masks:
                    net.weights[i] *= masks[i].bits
        history["loss"].append(epoch_loss / max(batches, 1))
    return net, history


def mask_24(w):
    return s.prune_magnitude(s.DenseMatrix(w.astype(np.float32), s.FP32), s.PATTERN_24).mask


class TestTrainMatchesPerLayerLoop:
    @pytest.mark.parametrize(
        "sizes, samples, sched, masked",
        [
            ([16, 16, 3], 256, s.Schedule(epochs=4, lr=0.05, seed=2), ()),
            ([16, 16, 3], 256, s.Schedule(epochs=4, lr=0.05, seed=2), (0, 1)),
            ([16, 16, 3], 256, s.Schedule(epochs=4, lr=0.05, seed=2), (0,)),
            (
                [16, 16, 3],
                256,
                s.Schedule(epochs=5, lr=0.05, weight_decay=1e-3, lr_decay_epochs=(2, 4), lr_decay_factor=0.5),
                (0, 1),
            ),
            ([16, 16, 3], 250, s.Schedule(epochs=3, lr=0.05, batch_size=32, seed=4), ()),
            ([16, 16, 3], 256, s.Schedule(epochs=0, lr=0.05), (0, 1)),
            ([16, 12, 8, 3], 256, s.Schedule(epochs=4, lr=0.05, seed=5), (0, 1)),
            # shapes where a BLAS may pick another kernel: a one-row product,
            # a one-column head, and the shapes of the benchmark's deploy net
            ([16, 16, 3], 33, s.Schedule(epochs=3, lr=0.05, batch_size=32, seed=4), ()),
            ([16, 16, 3], 40, s.Schedule(epochs=2, lr=0.05, batch_size=1, seed=6), ()),
            ([8, 8, 1], 64, s.Schedule(epochs=3, lr=0.05, weight_decay=1e-2, seed=2), ()),
            ([32, 32, 4], 512, s.Schedule(epochs=8, lr=0.01, seed=3), (0, 1)),
        ],
        ids=[
            "dense",
            "masks_24",
            "one_layer_mask",
            "decay_and_milestones",
            "ragged_batch",
            "zero_epochs",
            "three_layers",
            "one_sample_last_batch",
            "batch_of_one",
            "one_unit_head",
            "deploy_shape",
        ],
    )
    def test_byte_identical(self, sizes, samples, sched, masked):
        data = s.make_blobs(samples=samples, features=sizes[0], classes=sizes[-1], seed=7)
        net = s.TinyNet.init(sizes, seed=7)
        if masked:  # prune a trained net, so masked weights are set to both +0.0 and -0.0
            net, _ = s.train(net, data, s.Schedule(epochs=2, lr=0.05, seed=1))
        masks = {i: mask_24(net.weights[i]) for i in masked}
        want, want_hist = reference_train(net, data, sched, masks)
        got, got_hist = s.train(net, data, sched, masks)
        for a, b in zip(want.weights + want.biases, got.weights + got.biases):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert b.base is None  # the returned net owns its arrays
        assert np.array(want_hist["loss"]).tobytes() == np.array(got_hist["loss"]).tobytes()
        if masked and sched.epochs:
            assert any(np.signbit(want.weights[i][~masks[i].bits]).any() for i in masked)

    def test_divergence_at_the_same_epoch(self, net, blobs):
        sched = s.Schedule(epochs=20, lr=1e3)
        with pytest.raises(s.DivergenceError) as want:
            reference_train(net, blobs, sched)
        with pytest.raises(s.DivergenceError) as got:
            s.train(net, blobs, sched)
        assert str(got.value) == str(want.value) == "loss diverged at epoch 7"

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.uint64])
    def test_label_dtype_matches_int64(self, dtype):
        data = s.make_blobs(samples=100, features=16, classes=3, seed=7)
        assert data.y.dtype == np.int64
        cast = s.Dataset(data.x, data.y.astype(dtype))
        net = s.TinyNet.init([16, 16, 3], seed=7)
        sched = s.Schedule(epochs=3, lr=0.05, seed=2)
        (want, want_hist), (got, got_hist) = (s.train(net, d, sched) for d in (data, cast))
        for a, b in zip(want.weights + want.biases, got.weights + got.biases):
            assert a.tobytes() == b.tobytes()
        assert want_hist == got_hist
        want_lg, got_lg = (net.loss_and_grads(data.x, y) for y in (data.y, cast.y))
        assert want_lg[0] == got_lg[0]
        for a, b in zip(want_lg[1] + want_lg[2], got_lg[1] + got_lg[2]):
            assert a.tobytes() == b.tobytes()

    def test_loss_and_grads_byte_identical(self, rng):
        for sizes in ([4, 4, 2], [9, 7, 5, 3]):
            net = s.TinyNet.init(sizes, seed=3)
            x = rng.standard_normal((11, sizes[0]))
            y = rng.integers(0, sizes[-1], 11)
            want = reference_loss_and_grads(net, x, y)
            got = net.loss_and_grads(x, y)
            assert want[0] == got[0]
            for a, b in zip(want[1] + want[2], got[1] + got[2]):
                assert a.tobytes() == b.tobytes()


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            net = s.TinyNet.init([4, 4, 2], seed=trial)  # 4*4 + 4*2 = 24 weights
            x = rng.standard_normal((6, 4))
            y = rng.integers(0, 2, 6)
            _, gw, gb = net.loss_and_grads(x, y)
            h = 1e-3
            for li in range(len(net.weights)):
                for idx in np.ndindex(net.weights[li].shape):
                    orig = net.weights[li][idx]
                    net.weights[li][idx] = orig + h
                    lp, _, _ = net.loss_and_grads(x, y)
                    net.weights[li][idx] = orig - h
                    lm, _, _ = net.loss_and_grads(x, y)
                    net.weights[li][idx] = orig
                    fd = (lp - lm) / (2 * h)
                    scale = max(abs(fd), abs(gw[li][idx]), 1e-8)
                    assert abs(fd - gw[li][idx]) / scale <= 1e-4


class TestMaskedRetraining:
    def test_all_true_masks_match_plain_training(self, net, blobs):
        sched = s.Schedule(epochs=4, lr=0.05, seed=2)
        masks = {i: s.Mask(np.ones_like(w, dtype=bool)) for i, w in enumerate(net.weights)}
        plain, _ = s.train(net, blobs, sched)
        masked, _ = s.train(net, blobs, sched, masks=masks)
        for wa, wb in zip(plain.weights, masked.weights):
            assert np.array_equal(wa, wb)

    def test_masked_positions_stay_zero_under_momentum_and_decay(self, net, blobs):
        sched = s.Schedule(epochs=5, lr=0.05, momentum=0.9, weight_decay=1e-3, seed=2)
        masks = {
            i: s.prune_magnitude(s.DenseMatrix(w.astype(np.float32), s.FP32), s.PATTERN_24).mask
            for i, w in enumerate(net.weights)
        }
        out, _ = s.train(net, blobs, sched, masks=masks)
        for i, mask in masks.items():
            assert np.all(out.weights[i][~mask.bits] == 0.0)

    @pytest.mark.parametrize("bad", ["transposed", "key_not_a_layer"])
    def test_misfit_mask_rejected(self, net, blobs, bad):
        w = net.weights[1]  # (3, 16)
        masks = {1: s.Mask(np.ones(w.shape[::-1], dtype=bool))} if bad == "transposed" else {5: mask_24(w)}
        with pytest.raises(s.ShapeError):
            s.train(net, blobs, s.Schedule(epochs=1, lr=0.05), masks=masks)

    def test_schedule_descriptor_byte_identity(self):
        a = s.Schedule(epochs=10, lr=0.05, seed=3)
        b = s.Schedule(epochs=10, lr=0.05, seed=3)
        assert a == b
        assert a != s.Schedule(epochs=10, lr=0.051, seed=3)


RECIPE_BASIC = """
[phase.train]
kind = train_dense
epochs = 10
lr = 0.05
seed = 3
[phase.prune]
kind = prune
pattern = 2:4
[phase.retrain]
kind = retrain_sparse
repeats = train
"""

RECIPE_TWO_PHASE = """
[phase.pretrain]
kind = train_dense
epochs = 6
lr = 0.05
[phase.finetune_dense]
kind = train_dense
epochs = 4
lr = 0.01
[phase.prune]
kind = prune
[phase.refinetune]
kind = retrain_sparse
repeats = finetune_dense
"""

RECIPE_BAD_ORDER = """
[phase.train]
kind = train_dense
epochs = 4
lr = 0.05
[phase.retrain]
kind = retrain_sparse
[phase.prune]
kind = prune
"""

RECIPE_FINETUNE = """
[phase.train]
kind = train_dense
epochs = 6
lr = 0.05
seed = 3
[phase.prune]
kind = prune
[phase.retrain]
kind = retrain_sparse
[phase.finetune]
kind = finetune_sparse
epochs = 2
lr = 0.005
seed = 4
"""


# per Schedule field type: recipe text and the value it parses to, unlike every default
NON_DEFAULT = {int: ("7", 7), float: ("0.375", 0.375), tuple[int, ...]: ("2, 5", (2, 5))}


def schedule_recipe(section, key, text):
    """A train, prune, retrain, finetune recipe whose ``section`` phase sets ``key``."""
    phases = {
        "train": ["kind = train_dense", "epochs = 10", "lr = 0.05"],
        "prune": ["kind = prune"],
        "retrain": ["kind = retrain_sparse"],
        "finetune": ["kind = finetune_sparse", "epochs = 2", "lr = 0.005"],
    }
    kept = [line for line in phases[section] if not line.startswith(f"{key} =")]
    phases[section] = kept + [f"{key} = {text}"]
    return "".join(f"[phase.{name}]\n" + "\n".join(lines) + "\n" for name, lines in phases.items())


class TestScheduleKeys:
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(s.Schedule)])
    @pytest.mark.parametrize("section, base", [("train", (10, 0.05)), ("finetune", (2, 0.005))])
    def test_every_field_round_trips(self, key, section, base):
        text, value = NON_DEFAULT[typing.get_type_hints(s.Schedule)[key]]
        phases = {p.name: p for p in s.parse_recipe(schedule_recipe(section, key, text)).phases}
        expected = dataclasses.replace(s.Schedule(*base), **{key: value})
        assert phases[section].schedule == expected != s.Schedule(*base)

    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(s.Schedule)])
    def test_retrain_rejects_every_field(self, key):
        text, _ = NON_DEFAULT[typing.get_type_hints(s.Schedule)[key]]
        with pytest.raises(s.RecipeError, match=repr(key)):
            s.parse_recipe(schedule_recipe("retrain", key, text))


class TestScheduleRejectsNonIntegers:
    @pytest.mark.parametrize(
        "key, bad",
        [("epochs", 1.5), ("batch_size", 2.0), ("seed", 1.5), ("lr_decay_epochs", 3), ("lr_decay_epochs", ("2",))],
        ids=["epochs", "batch_size", "seed", "lr_decay_epochs_int", "lr_decay_epochs_str"],
    )
    def test_schedule(self, key, bad):
        with pytest.raises(s.RecipeError, match=key) as exc:
            s.Schedule(**{"epochs": 1, "lr": 0.1, key: bad})
        assert exc.value.code == "recipe"

    def test_numpy_integers_accepted(self, net, blobs):
        sched = s.Schedule(
            epochs=np.int64(2), lr=0.05, batch_size=np.int32(16), seed=np.uint8(3), lr_decay_epochs=(np.int64(1),)
        )
        plain = s.Schedule(epochs=2, lr=0.05, batch_size=16, seed=3, lr_decay_epochs=(1,))
        (a, _), (b, _) = (s.train(net, blobs, sch) for sch in (sched, plain))
        for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
            assert wa.tobytes() == wb.tobytes()


NON_FINITE_KEYS = ("lr", "momentum", "weight_decay", "lr_decay_factor")


class TestScheduleRejectsNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "neg_inf"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_schedule(self, key, bad):
        with pytest.raises(s.RecipeError, match=f"finite {key},"):
            s.Schedule(**{"epochs": 1, "lr": 0.1, key: bad})

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NON_FINITE_KEYS)
    def test_recipe_text(self, key, text):
        with pytest.raises(s.RecipeError, match=f"finite {key},"):
            s.parse_recipe(schedule_recipe("train", key, text))


class TestRecipes:
    def test_basic_recipe_accepted(self):
        recipe = s.parse_recipe(RECIPE_BASIC)
        assert [p.kind for p in recipe.phases] == [
            PhaseKind.TRAIN_DENSE,
            PhaseKind.PRUNE,
            PhaseKind.RETRAIN_SPARSE,
        ]
        assert recipe.phases[2].schedule == recipe.phases[0].schedule

    def test_two_phase_repeat_second_only(self):
        recipe = s.parse_recipe(RECIPE_TWO_PHASE)
        retrain = recipe.phases[-1]
        assert retrain.schedule == recipe.phases[1].schedule

    def test_retrain_repeats_named_dense_phase_not_the_last(self):
        recipe = s.parse_recipe(RECIPE_TWO_PHASE.replace("repeats = finetune_dense", "repeats = pretrain"))
        assert recipe.phases[-1].schedule == recipe.phases[0].schedule != recipe.phases[1].schedule

    def test_retrain_before_prune_rejected(self):
        with pytest.raises(s.RecipeError):
            s.parse_recipe(RECIPE_BAD_ORDER)

    def test_two_prunes_rejected(self):
        phases = (
            Phase("a", PhaseKind.TRAIN_DENSE, s.Schedule(1, 0.1)),
            Phase("p1", PhaseKind.PRUNE),
            Phase("p2", PhaseKind.PRUNE),
            Phase("r", PhaseKind.RETRAIN_SPARSE, s.Schedule(1, 0.1)),
        )
        with pytest.raises(s.RecipeError):
            s.validate_recipe(s.Recipe(phases))

    def test_schedule_mismatch_rejected(self):
        phases = (
            Phase("a", PhaseKind.TRAIN_DENSE, s.Schedule(4, 0.1)),
            Phase("p", PhaseKind.PRUNE),
            Phase("r", PhaseKind.RETRAIN_SPARSE, s.Schedule(4, 0.2)),
        )
        with pytest.raises(s.RecipeError):
            s.validate_recipe(s.Recipe(phases))

    def test_override_in_repeat_rejected(self):
        text = RECIPE_BASIC + "epochs = 99\n"
        with pytest.raises(s.RecipeError):
            s.parse_recipe(text)

    @pytest.mark.parametrize(
        "text",
        [
            "kind = prune\n",
            RECIPE_BASIC + "[phase.prune]\nkind = prune\n",
            RECIPE_BASIC.replace("epochs = 10\n", "epochs = 10\nepochs = 11\n"),
            RECIPE_BASIC.replace("epochs = 10", "epochs = abc"),
            RECIPE_BASIC.replace("epochs = 10\n", "epochs = 10\nbatch_size = 0\n"),
            RECIPE_BASIC.replace("epochs = 10", "epochs = -1"),
            RECIPE_BASIC.replace("lr = 0.05\n", "lr = 0.05\nmomentm = 0.5\n"),
            "[recipe]\nseed = 7\n" + RECIPE_BASIC,
            RECIPE_BASIC.replace("[phase.prune]", "[phases.prune]"),
            RECIPE_BASIC.replace("repeats = train", "repeats = prune"),
            RECIPE_BASIC.replace("seed = 3", "seed = -1"),
            RECIPE_BASIC.replace("kind = train_dense\n", ""),
            RECIPE_BASIC.replace("lr = 0.05\n", ""),
        ],
        ids=[
            "not_ini",
            "repeated_section",
            "repeated_key",
            "epochs_not_int",
            "batch_size_zero",
            "epochs_negative",
            "misspelt_phase_key",
            "recipe_section",
            "misspelt_section",
            "repeats_not_a_dense_phase",
            "seed_negative",
            "section_without_kind",
            "dense_without_lr",
        ],
    )
    def test_malformed_recipe_raises_recipe_error(self, text):
        with pytest.raises(s.RecipeError):
            s.parse_recipe(text)

    @pytest.mark.parametrize("text", [b"[phase.a]\nkind = prune\n", None, 7], ids=["bytes", "none", "int"])
    def test_recipe_that_is_not_text_rejected(self, text):
        # unchecked, io.StringIO raised a bare TypeError
        with pytest.raises(s.RecipeError, match="a recipe is text") as exc:
            s.parse_recipe(text)
        assert exc.value.code == "recipe"

    @pytest.mark.parametrize(
        "section, key, line",
        [
            ("prune", "epochs", "epochs = 10"),
            ("prune", "lr", "lr = 0.05"),
            ("train", "pattern", "pattern = 1:4"),
            ("train", "repeats", "repeats = train"),
            ("retrain", "epochs", "epochs = 10"),
            ("retrain", "seed", "seed = 3"),
            ("retrain", "pattern", "pattern = 2:4"),
            ("calibrate", "pattern", "pattern = 2:4"),
            ("calibrate", "lr", "lr = 0.05"),
        ],
    )
    def test_key_its_kind_does_not_take_rejected(self, section, key, line):
        text = RECIPE_BASIC + "[phase.calibrate]\nkind = calibrate\n"
        header = f"[phase.{section}]\n"
        kind = text.split(header, 1)[1].split("\n", 1)[0]  # "kind = <kind>"
        text = text.replace(header + kind, f"{header}{kind}\n{line}")
        with pytest.raises(s.RecipeError) as exc:
            s.parse_recipe(text)
        message = str(exc.value)
        assert repr(section) in message and kind.split(" = ")[1] in message and repr(key) in message

    def test_retrain_runs_last_dense_schedule_without_repeats(self):
        recipe = s.parse_recipe(RECIPE_TWO_PHASE.replace("repeats = finetune_dense\n", ""))
        assert recipe.phases[-1].schedule == recipe.phases[1].schedule
        assert recipe.phases[-1].repeats is None

    @pytest.mark.parametrize(
        "phase",
        [
            Phase("a", PhaseKind.TRAIN_DENSE),
            Phase("a", PhaseKind.TRAIN_DENSE, s.Schedule(4, 0.1), pattern=s.PATTERN_24),
            Phase("a", PhaseKind.TRAIN_DENSE, s.Schedule(4, 0.1), repeats="a"),
            Phase("p", PhaseKind.PRUNE, s.Schedule(4, 0.1)),
            Phase("r", PhaseKind.RETRAIN_SPARSE, s.Schedule(4, 0.1), pattern=s.PATTERN_24),
            Phase("f", PhaseKind.FINETUNE_SPARSE),
            Phase("f", PhaseKind.FINETUNE_SPARSE, s.Schedule(1, 0.1), pattern=s.PATTERN_24),
            Phase("f", PhaseKind.FINETUNE_SPARSE, s.Schedule(1, 0.1), repeats="a"),
            Phase("c", PhaseKind.CALIBRATE, s.Schedule(4, 0.1)),
            Phase("c", PhaseKind.CALIBRATE, pattern=s.PATTERN_24),
            Phase("c", PhaseKind.CALIBRATE, repeats="a"),
        ],
        ids=[
            "dense_without_schedule",
            "pattern_on_dense",
            "repeats_on_dense",
            "schedule_on_prune",
            "pattern_on_retrain",
            "finetune_without_schedule",
            "pattern_on_finetune",
            "repeats_on_finetune",
            "schedule_on_calibrate",
            "pattern_on_calibrate",
            "repeats_on_calibrate",
        ],
    )
    def test_validate_rejects_field_its_kind_does_not_read(self, phase):
        phases = {
            "a": Phase("a", PhaseKind.TRAIN_DENSE, s.Schedule(4, 0.1)),
            "p": Phase("p", PhaseKind.PRUNE, pattern=s.PATTERN_24),
            "r": Phase("r", PhaseKind.RETRAIN_SPARSE, s.Schedule(4, 0.1), repeats="a"),
        }
        s.validate_recipe(s.Recipe(tuple(phases.values())))
        phases[phase.name] = phase  # replaces a, p or r; f and c follow r
        with pytest.raises(s.RecipeError, match=repr(phase.name)):
            s.validate_recipe(s.Recipe(tuple(phases.values())))

    @pytest.mark.parametrize(
        "kinds, message",
        [
            ("TPRT", "dense training phases must come before prune"),
            ("TP", "prune must be followed by a retrain phase"),
        ],
    )
    def test_ordering_rule_rejected(self, kinds, message):
        make = {
            "T": lambda i: Phase(f"t{i}", PhaseKind.TRAIN_DENSE, s.Schedule(4, 0.1)),
            "P": lambda i: Phase(f"p{i}", PhaseKind.PRUNE),
            "R": lambda i: Phase(f"r{i}", PhaseKind.RETRAIN_SPARSE, s.Schedule(4, 0.1)),
        }
        with pytest.raises(s.RecipeError, match=message):
            s.validate_recipe(s.Recipe(tuple(make[k](i) for i, k in enumerate(kinds))))

    def test_retrain_built_without_schedule_runs_the_repeated_one(self):
        sched = s.Schedule(epochs=3, lr=0.05, seed=3)

        def recipe(retrain_schedule):
            return s.Recipe(
                (
                    Phase("train", PhaseKind.TRAIN_DENSE, sched),
                    Phase("prune", PhaseKind.PRUNE, pattern=s.PATTERN_24),
                    Phase("retrain", PhaseKind.RETRAIN_SPARSE, retrain_schedule, repeats="train"),
                )
            )

        assert s.validate_recipe(recipe(None)) == recipe(sched)
        data = s.make_blobs(samples=128, features=16, classes=4, seed=5)
        bare, full = (s.run_recipe(recipe(x), s.TinyNet.init([16, 16, 4], seed=5), data) for x in (None, sched))
        assert bare["phases"] == full["phases"] and bare["final_accuracy"] == full["final_accuracy"]
        assert all(np.array_equal(bare["masks"][i].bits, full["masks"][i].bits) for i in full["masks"])
        for got, want in zip(bare["net"].weights + bare["net"].biases, full["net"].weights + full["net"].biases):
            assert got.tobytes() == want.tobytes()

    def test_finetune_after_retrain_keeps_mask(self):
        recipe = s.parse_recipe(RECIPE_FINETUNE)
        finetune = recipe.phases[-1]
        assert finetune.kind is PhaseKind.FINETUNE_SPARSE
        assert finetune.schedule == s.Schedule(epochs=2, lr=0.005, seed=4)
        assert recipe.phases[2].schedule == recipe.phases[0].schedule
        data = s.make_blobs(samples=256, features=32, classes=4, seed=7)
        report = s.run_recipe(recipe, s.TinyNet.init([32, 32, 4], seed=7), data)
        assert [p["name"] for p in report["phases"]] == ["train", "prune", "retrain", "finetune"]
        assert report["final_accuracy"] == report["phases"][-1]["train_accuracy"]
        assert sorted(report["masks"]) == [0, 1]
        for i, mask in report["masks"].items():
            assert np.all(report["net"].weights[i][~mask.bits] == 0.0)

    def test_finetune_before_prune_rejected(self):
        head, train, prune, retrain, finetune = RECIPE_FINETUNE.split("\n[")
        text = "\n[".join([head, train, finetune, prune, retrain])
        with pytest.raises(s.RecipeError, match="after prune"):
            s.parse_recipe(text)

    def test_run_recipe_recovers_accuracy(self):
        recipe = s.parse_recipe(RECIPE_BASIC)
        data = s.make_blobs(samples=512, features=64, classes=4, seed=7)
        net = s.TinyNet.init([64, 64, 4], seed=7)
        report = s.run_recipe(recipe, net, data)
        dense_acc = report["phases"][0]["train_accuracy"]
        assert report["final_accuracy"] >= dense_acc - 0.01
        for i, mask in report["masks"].items():
            assert np.all(report["net"].weights[i][~mask.bits] == 0.0)
