"""Desk-scale train -> prune -> retrain pipeline.

A tiny fully-connected network (ReLU, softmax cross-entropy, SGD with
momentum) demonstrates accuracy recovery after one-shot N:M pruning when the
dense training schedule is repeated with the mask held fixed. Also houses the
layer-eligibility policy and the declarative multi-phase recipe format.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .calibration import CalibMethod, Granularity, calibrate
from .codec import Mask
from .formats import FP32, DenseMatrix, NMPattern, NumericFormat
from .pruning import prune_magnitude


# --- layer eligibility policy ---


class LayerKind(Enum):
    CONV = "conv"
    FULLY_CONNECTED = "fully_connected"
    RECURRENT = "recurrent"
    EMBEDDING = "embedding"
    HEAD_TRAINING_ONLY = "head_training_only"
    OTHER = "other"


_GEMM_KINDS = {LayerKind.CONV, LayerKind.FULLY_CONNECTED, LayerKind.RECURRENT}


@dataclass(frozen=True)
class LayerManifest:
    name: str
    kind: LayerKind
    gemm_k: int
    in_channels: int
    dtype: NumericFormat
    phase: int = 1
    is_first: bool = False


def eligible(layer: LayerManifest) -> tuple[bool, str]:
    """Decide whether a layer should be pruned, with a reason string."""
    if layer.kind not in _GEMM_KINDS:
        return False, f"{layer.kind.value} layers are not GEMM-like"
    if layer.kind is LayerKind.CONV and layer.is_first and layer.in_channels == 3:
        return False, "first convolution on 3-channel input"
    if not layer.dtype.sparse_capable:
        return False, f"format {layer.dtype} has no sparse mode"
    mult = layer.dtype.sparse_k_multiple
    if layer.gemm_k <= 0 or layer.gemm_k % mult != 0:
        return False, f"GEMM-K {layer.gemm_k} is not a multiple of {mult}"
    return True, "prunable GEMM layer"


# --- schedule and trainer ---


@dataclass(frozen=True)
class Schedule:
    """Fixed training schedule; retraining must reuse it field for field."""

    epochs: int
    lr: float
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    seed: int = 0

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for milestone in self.lr_decay_epochs:
            if epoch >= milestone:
                lr *= self.lr_decay_factor
        return lr


class DivergenceError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class TinyNet:
    """Fully-connected ReLU classifier with deterministic seeded init."""

    weights: list[np.ndarray]  # each (out, in), float64
    biases: list[np.ndarray]
    seed: int

    @classmethod
    def init(cls, layer_sizes: list[int], seed: int) -> "TinyNet":
        rng = np.random.default_rng(seed)
        ws, bs = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = np.sqrt(2.0 / fan_in)
            ws.append(rng.standard_normal((fan_out, fan_in)) * limit)
            bs.append(np.zeros(fan_out))
        return cls(ws, bs, seed)

    def clone(self) -> "TinyNet":
        return TinyNet([w.copy() for w in self.weights], [b.copy() for b in self.biases], self.seed)

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Return pre-activation outputs of every layer (ReLU between)."""
        acts = []
        h = x
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            acts.append(z)
            if i < len(self.weights) - 1:
                h = np.maximum(z, 0.0)
        return acts

    def logits(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.mean(self.predict(x) == y))

    def loss_and_grads(self, x, y):
        """Softmax cross-entropy loss and analytic parameter gradients."""
        # divergence surfaces as a non-finite loss, not as numpy warnings
        with np.errstate(all="ignore"):
            return self._loss_and_grads(x, y)

    def _loss_and_grads(self, x, y):
        acts = self.forward(x)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        n = len(x)
        loss = float(-np.mean(np.log(probs[np.arange(n), y] + 1e-300)))

        grad_z = probs.copy()
        grad_z[np.arange(n), y] -= 1.0
        grad_z /= n
        gw, gb = [None] * len(self.weights), [None] * len(self.weights)
        for i in reversed(range(len(self.weights))):
            inp = x if i == 0 else np.maximum(acts[i - 1], 0.0)
            gw[i] = grad_z.T @ inp
            gb[i] = grad_z.sum(axis=0)
            if i > 0:
                grad_z = (grad_z @ self.weights[i]) * (acts[i - 1] > 0)
        return loss, gw, gb


def train(
    net: TinyNet,
    data: "Dataset",
    schedule: Schedule,
    masks: dict[int, Mask] | None = None,
) -> tuple[TinyNet, dict]:
    """SGD with momentum; optimizer state always starts fresh.

    With ``masks``, masked weights are re-zeroed after every optimizer step so
    the sparsity pattern survives momentum and weight decay. Returns the
    trained net and ``{"loss": [mean batch loss per epoch]}``. Accuracy is
    left to the caller: it reads the weights without changing them, so
    measuring it here would cost a forward pass per epoch for nothing.
    """
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
            loss, gw, gb = net.loss_and_grads(data.x[idx], data.y[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"loss diverged at epoch {epoch}")
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


# --- synthetic dataset ---


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray


def make_blobs(
    samples: int = 512, features: int = 64, classes: int = 4, spread: float = 1.0, seed: int = 0
) -> Dataset:
    """Seeded Gaussian-blob classification task, self-contained and fast."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features)) * 3.0
    y = rng.integers(0, classes, size=samples)
    x = centers[y] + rng.standard_normal((samples, features)) * spread
    return Dataset(x=x, y=y)


# --- recipes ---


class PhaseKind(Enum):
    TRAIN_DENSE = "train_dense"
    PRUNE = "prune"
    RETRAIN_SPARSE = "retrain_sparse"
    FINETUNE_SPARSE = "finetune_sparse"
    CALIBRATE = "calibrate"


_TRAIN_KINDS = {PhaseKind.TRAIN_DENSE, PhaseKind.RETRAIN_SPARSE, PhaseKind.FINETUNE_SPARSE}


@dataclass(frozen=True)
class Phase:
    name: str
    kind: PhaseKind
    schedule: Schedule | None = None
    pattern: NMPattern | None = None
    repeats: str | None = None  # dense phase whose schedule a retrain repeats


@dataclass(frozen=True)
class Recipe:
    phases: tuple[Phase, ...]
    seed: int = 0


class RecipeError(ValueError):
    pass


def validate_recipe(recipe: Recipe) -> None:
    """Enforce phase-ordering rules: exactly one prune, dense phases before
    it, sparse phases after it, and every retrain repeating a dense phase's
    schedule field for field."""
    kinds = [p.kind for p in recipe.phases]
    if kinds.count(PhaseKind.PRUNE) != 1:
        raise RecipeError("recipe must contain exactly one prune phase")
    prune_at = kinds.index(PhaseKind.PRUNE)
    if not any(k is PhaseKind.TRAIN_DENSE for k in kinds[:prune_at]):
        raise RecipeError("prune must follow at least one dense training phase")
    sparse_kinds = {PhaseKind.RETRAIN_SPARSE, PhaseKind.FINETUNE_SPARSE}
    if any(k in sparse_kinds for k in kinds[:prune_at]):
        raise RecipeError("sparse training phases must come after prune")
    if any(k is PhaseKind.TRAIN_DENSE for k in kinds[prune_at:]):
        raise RecipeError("dense training phases must come before prune")
    if not any(k is PhaseKind.RETRAIN_SPARSE for k in kinds[prune_at:]):
        raise RecipeError("prune must be followed by a retrain phase")

    dense = {p.name: p for p in recipe.phases if p.kind is PhaseKind.TRAIN_DENSE}
    last_dense = [p for p in recipe.phases[:prune_at] if p.kind is PhaseKind.TRAIN_DENSE][-1]
    for p in recipe.phases:
        if p.kind is not PhaseKind.RETRAIN_SPARSE:
            continue
        target = dense.get(p.repeats) if p.repeats else last_dense
        if target is None:
            raise RecipeError(f"retrain phase {p.name!r} repeats unknown phase {p.repeats!r}")
        if p.schedule is None or target.schedule is None:
            raise RecipeError("retrain and its paired dense phase need schedules")
        if p.schedule != target.schedule:
            raise RecipeError(
                f"retrain phase {p.name!r} must repeat the schedule of {target.name!r} exactly"
            )


def run_recipe(recipe: Recipe, net: TinyNet, data: Dataset) -> dict:
    """Execute a validated recipe on a tiny net; returns per-phase metrics."""
    validate_recipe(recipe)
    masks: dict[int, Mask] = {}
    report: dict = {"phases": []}
    for phase in recipe.phases:
        entry: dict = {"name": phase.name, "kind": phase.kind.value}
        if phase.kind in _TRAIN_KINDS:
            # masks stays empty until the prune phase, so dense phases train dense
            net, hist = train(net, data, phase.schedule, masks=masks)
            entry["final_loss"] = hist["loss"][-1] if hist["loss"] else None
            entry["train_accuracy"] = net.accuracy(data.x, data.y)
        elif phase.kind is PhaseKind.PRUNE:
            pattern = phase.pattern or NMPattern(2, 4)
            retained = lost = 0.0
            for i, w in enumerate(net.weights):
                res = prune_magnitude(DenseMatrix(w.astype(np.float32), FP32), pattern)
                masks[i] = res.mask
                net.weights[i] = net.weights[i] * res.mask.bits
                retained += res.retained_magnitude
                lost += res.lost_magnitude
            entry["retained_magnitude"] = retained
            entry["lost_magnitude"] = lost
            entry["train_accuracy"] = net.accuracy(data.x, data.y)
        elif phase.kind is PhaseKind.CALIBRATE:
            scales = [
                calibrate(
                    [DenseMatrix(w.astype(np.float32), FP32)],
                    CalibMethod("max"),
                    Granularity.PER_ROW,
                )
                for w in net.weights
            ]
            entry["weight_scales"] = [s.scales.tolist() for s in scales]
        report["phases"].append(entry)
    report["final_accuracy"] = net.accuracy(data.x, data.y)
    report["net"] = net
    report["masks"] = masks
    return report


# --- recipe text format ---
#
#   [recipe]
#   seed = 7
#   [phase.pretrain]
#   kind = train_dense
#   epochs = 12
#   lr = 0.05
#   [phase.prune]
#   kind = prune
#   pattern = 2:4
#   [phase.retrain]
#   kind = retrain_sparse
#   repeats = pretrain
#
# Retrain phases inherit the repeated phase's schedule; any schedule keys they
# declare must agree with it (validate_recipe compares the two schedules).

_SCHEDULE_KEYS = {
    "epochs": int,
    "lr": float,
    "batch_size": int,
    "momentum": float,
    "weight_decay": float,
    "lr_decay_factor": float,
    "seed": int,
}


def parse_recipe(text: str) -> Recipe:
    cp = configparser.ConfigParser()
    cp.read_file(io.StringIO(text))
    seed = cp.getint("recipe", "seed", fallback=0) if cp.has_section("recipe") else 0
    phases: list[Phase] = []
    schedules: dict[str, Schedule] = {}
    for section in cp.sections():
        if not section.startswith("phase."):
            continue
        name = section[len("phase.") :]
        sec = cp[section]
        try:
            kind = PhaseKind(sec.get("kind", ""))
        except ValueError:
            raise RecipeError(f"phase {name!r}: unknown kind {sec.get('kind')!r}")
        pattern = NMPattern.parse(sec["pattern"]) if "pattern" in sec else None
        repeats = sec.get("repeats")
        schedule = None
        declared = {k: conv(sec[k]) for k, conv in _SCHEDULE_KEYS.items() if k in sec}
        if "lr_decay_epochs" in sec:
            declared["lr_decay_epochs"] = tuple(
                int(v) for v in sec["lr_decay_epochs"].split(",") if v.strip()
            )
        if kind is PhaseKind.RETRAIN_SPARSE and repeats:
            base = schedules.get(repeats)  # unknown: validate_recipe rejects the phase
            schedule = None if base is None else replace(base, **declared)
        elif kind in _TRAIN_KINDS:
            if "epochs" not in declared or "lr" not in declared:
                raise RecipeError(f"phase {name!r} needs explicit epochs and lr")
            schedule = Schedule(**declared)
        if schedule is not None:
            schedules[name] = schedule
        phases.append(Phase(name=name, kind=kind, schedule=schedule, pattern=pattern, repeats=repeats))
    recipe = Recipe(phases=tuple(phases), seed=seed)
    validate_recipe(recipe)
    return recipe
