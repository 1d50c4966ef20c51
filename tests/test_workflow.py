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
        ok, reason = s.eligible(manifest(kind=LayerKind.EMBEDDING))
        assert not ok and "not GEMM-like" in reason

    def test_training_only_head_ineligible(self):
        ok, _ = s.eligible(manifest(kind=LayerKind.HEAD_TRAINING_ONLY))
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

    def test_schedule_descriptor_byte_identity(self):
        a = s.Schedule(epochs=10, lr=0.05, seed=3)
        b = s.Schedule(epochs=10, lr=0.05, seed=3)
        assert a == b
        assert a != s.Schedule(epochs=10, lr=0.051, seed=3)


RECIPE_BASIC = """
[recipe]
seed = 7
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
epochs = 4
lr = 0.05
[phase.prune]
kind = prune
"""


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
            RECIPE_BASIC.replace("seed = 7", "sed = 7"),
            RECIPE_BASIC.replace("[recipe]", "[recipes]"),
        ],
        ids=[
            "not_ini",
            "repeated_section",
            "repeated_key",
            "epochs_not_int",
            "batch_size_zero",
            "epochs_negative",
            "misspelt_phase_key",
            "misspelt_recipe_key",
            "misspelt_section",
        ],
    )
    def test_malformed_recipe_raises_recipe_error(self, text):
        with pytest.raises(s.RecipeError):
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
