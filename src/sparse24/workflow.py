"""Desk-scale train -> prune -> retrain pipeline.

A tiny fully-connected network (ReLU, softmax cross-entropy, SGD with
momentum) demonstrates accuracy recovery after one-shot N:M pruning when the
dense training schedule is repeated with the mask held fixed. Also houses the
layer-eligibility policy and the declarative multi-phase recipe format.
"""

from __future__ import annotations

import configparser
import io
import itertools
import math
import numbers
import typing
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .codec import Mask
from .formats import FP32, PATTERN_24, DenseMatrix, FormatError, NMPattern, NumericFormat, ShapeError
from .pruning import prune_magnitude


# --- layer eligibility policy ---


class LayerKind(Enum):
    """The kinds :func:`eligible` tells apart. ``FULLY_CONNECTED`` covers a recurrent
    layer's gate GEMMs too; ``OTHER`` (embeddings, training-only heads) is not GEMM-like."""

    CONV = "conv"
    FULLY_CONNECTED = "fully_connected"
    OTHER = "other"


@dataclass(frozen=True)
class LayerManifest:
    name: str
    kind: LayerKind
    gemm_k: int
    in_channels: int
    dtype: NumericFormat
    is_first: bool = False


def eligible(layer: LayerManifest) -> tuple[bool, str]:
    """Decide whether a layer should be pruned, with a reason string."""
    if layer.kind is LayerKind.OTHER:
        return False, f"{layer.kind.value} layers are not GEMM-like"
    if layer.kind is LayerKind.CONV and layer.is_first and layer.in_channels == 3:
        return False, "first convolution on 3-channel input"
    try:
        layer.dtype.check_sparse(layer.gemm_k)
    except (FormatError, ShapeError) as exc:
        return False, str(exc)
    return True, "prunable GEMM layer"


# --- schedule and trainer ---


@dataclass(frozen=True)
class Schedule:
    """Fixed training schedule; retraining must reuse it field for field.

    ``epochs`` and ``seed`` are integers >= 0 and ``batch_size`` one >= 1,
    ``lr_decay_epochs`` is a tuple of integers and the float fields are
    finite; anything else raises :class:`RecipeError`. numpy integers count
    as integers."""

    epochs: int
    lr: float
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 0.0
    lr_decay_epochs: tuple[int, ...] = ()
    lr_decay_factor: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for key, least in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, key)
            if not isinstance(value, numbers.Integral) or value < least:
                raise RecipeError(f"need an integer {key} >= {least}, got {value!r}")
        milestones = self.lr_decay_epochs
        if not isinstance(milestones, tuple) or not all(isinstance(e, numbers.Integral) for e in milestones):
            raise RecipeError(f"need lr_decay_epochs as a tuple of integers, got {milestones!r}")
        for key in ("lr", "momentum", "weight_decay", "lr_decay_factor"):
            value = getattr(self, key)
            if not isinstance(value, numbers.Real) or not math.isfinite(value):
                raise RecipeError(f"need a finite {key}, got {value!r}")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for milestone in self.lr_decay_epochs:
            if epoch >= milestone:
                lr *= self.lr_decay_factor
        return lr


class DivergenceError(RuntimeError):
    """Loss became non-finite during training."""

    code = "divergence"


@dataclass
class TinyNet:
    """Fully-connected ReLU classifier with deterministic seeded init."""

    weights: list[np.ndarray]  # each (out, in), float64
    biases: list[np.ndarray]

    @classmethod
    def init(cls, layer_sizes: list[int], seed: int) -> "TinyNet":
        if len(layer_sizes) < 2 or not all(isinstance(n, numbers.Integral) and n >= 1 for n in layer_sizes):
            raise ShapeError(f"need at least two layer sizes, each an integer >= 1, got {list(layer_sizes)}")
        rng = np.random.default_rng(seed)
        ws, bs = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            limit = np.sqrt(2.0 / fan_in)
            ws.append(rng.standard_normal((fan_out, fan_in)) * limit)
            bs.append(np.zeros(fan_out))
        return cls(ws, bs)

    def clone(self) -> "TinyNet":
        return TinyNet([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Return each hidden layer's ReLU output, then the logits: the one
        forward pass behind training (:meth:`loss_and_grads`) and
        :meth:`accuracy`. Each layer's bias add and ReLU run in place on its
        product, which equals ``max(h @ w.T + b, 0)`` byte for byte."""
        outs = []
        h = x
        last = len(self.weights) - 1
        for i, w in enumerate(self.weights):
            h = np.dot(h, w.T)
            h += self.biases[i]
            if i < last:
                np.maximum(h, 0.0, out=h)
            outs.append(h)
        return outs

    def logits(self, x: np.ndarray) -> np.ndarray:
        """The last layer's outputs; :class:`ShapeError` unless ``x`` is
        (samples, inputs), as in :func:`train`. :meth:`predict` and
        :meth:`accuracy` go through here."""
        inputs = self.weights[0].shape[1]
        if x.ndim != 2 or x.shape[1] != inputs:
            raise ShapeError(f"x has shape {x.shape}, the net takes (samples, {inputs})")
        return self.forward(x)[-1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.logits(x), axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        """Share of samples whose argmax is their label; :class:`ShapeError`
        unless ``y`` is 1-D with one label per sample, as in :func:`train`,
        and on no samples, where the share is undefined."""
        predicted, y = self.predict(x), np.asarray(y)
        if y.shape != predicted.shape:
            raise ShapeError(f"y has shape {y.shape}, need one label per sample, {predicted.shape}")
        hits = predicted == y
        if not hits.size:
            raise ShapeError("accuracy needs at least one sample, got none")
        return float(np.mean(hits))

    def loss_and_grads(self, x, y):
        """Softmax cross-entropy loss and analytic parameter gradients.

        Runs :meth:`forward` once and backpropagates through its outputs.
        ``y`` holds one integer label in [0, outputs) per row of ``x``, of
        any integer dtype; :func:`train` checks that before its first step,
        this method does not.

        It runs under its caller's numpy error state: weights that diverge
        give overflow and invalid-value warnings (errors, if the caller made
        them so) on the way to a non-finite loss. :func:`train` calls it
        under ``np.errstate(all="ignore")`` and checks the loss instead."""
        ins = self.forward(x)
        probs = ins.pop()  # the logits; ins becomes each layer's input, kept for backward
        ins.insert(0, x)
        probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
        n = len(x)
        at = np.arange(0, probs.size, probs.shape[1])  # flat index of each row's label
        at += y.astype(np.intp, copy=False)
        picked = probs.take(at)
        loss = -float(np.add.reduce(np.log(picked + 1e-300))) / n

        picked -= 1.0
        probs.put(at, picked)
        grad_z = probs  # softmax minus one-hot, over n
        grad_z /= n
        gw, gb = [None] * len(self.weights), [None] * len(self.weights)
        for i in reversed(range(len(self.weights))):
            gw[i] = np.dot(grad_z.T, ins[i])
            gb[i] = np.add.reduce(grad_z, axis=0)
            if i > 0:
                grad_z = np.dot(grad_z, self.weights[i])
                grad_z *= ins[i] > 0
        return loss, gw, gb


def train(
    net: TinyNet,
    data: "Dataset",
    schedule: Schedule,
    masks: dict[int, Mask] | None = None,
) -> tuple[TinyNet, dict]:
    """SGD with momentum; optimizer state always starts fresh.

    All parameters live in one float64 vector, every layer's weights first,
    then every bias, and each batch takes one optimizer step over the whole
    vector. Weight decay applies to the weights only. Its term is added even
    at zero decay, as in a per-layer loop: ``grad + 0 * w`` sets the sign of
    a zero gradient (and so of a zero velocity) and is NaN where w is inf.
    With ``masks`` (layer index to a mask of that layer's weight shape, else
    :class:`ShapeError`), masked weights are re-zeroed after every step so
    the sparsity pattern survives momentum and weight decay. Returns a new
    net that owns its arrays and ``{"loss": [mean batch loss per epoch]}``.
    A dataset that does not fit the net (``x`` not (samples, inputs), or
    ``y`` not one integer label in [0, outputs) per sample) raises
    :class:`ShapeError` before the first step. The labels are cast to intp
    once, and the epoch loop runs under one ``np.errstate(all="ignore")``:
    divergence raises :class:`DivergenceError` from a non-finite loss, and
    the caller's error state is back in force when this returns or raises.
    Accuracy is left to the caller: it reads the weights without changing
    them, so measuring it here would cost a forward pass per epoch for
    nothing.
    """
    inputs, outputs = net.weights[0].shape[1], net.weights[-1].shape[0]
    x, y = data.x, data.y
    if x.ndim != 2 or x.shape[1] != inputs:
        raise ShapeError(f"x has shape {x.shape}, the net takes (samples, {inputs})")
    if y.shape != x.shape[:1] or y.dtype.kind not in "iu" or (y.size and not 0 <= y.min() <= y.max() < outputs):
        raise ShapeError(f"y ({y.dtype}, shape {y.shape}) must hold one integer label in [0, {outputs}) per sample")
    masks = masks or {}
    layers = len(net.weights)
    bad = [key for key in masks if key not in range(layers)]
    if bad:
        raise ShapeError(f"mask keys {bad} are not layer indices of a {layers}-layer net")
    for i, w in enumerate(net.weights):
        if i in masks and masks[i].bits.shape != w.shape:
            raise ShapeError(f"mask for layer {i} has shape {masks[i].bits.shape}, its weight {w.shape}")

    arrays = net.weights + net.biases
    params = np.concatenate(arrays, axis=None, dtype=np.float64)
    ends = np.cumsum([a.size for a in arrays])
    views = [part.reshape(a.shape) for part, a in zip(np.split(params, ends[:-1]), arrays)]
    trained = TinyNet(views[:layers], views[layers:])
    nw = sum(w.size for w in net.weights)
    weights = params[:nw]
    if masks:  # 0/1 per weight, 1 on unmasked layers (w * 1.0 == w)
        keep = np.concatenate(
            [masks[i].bits if i in masks else np.ones(w.shape) for i, w in enumerate(net.weights)],
            axis=None,
            dtype=np.float64,
        )
        weights *= keep
    vel = np.zeros_like(params)
    grad = np.empty_like(params)
    grad_w = grad[:nw]
    decay = np.empty_like(weights)
    rng = np.random.default_rng(schedule.seed)
    bs = schedule.batch_size
    labels = y.astype(np.intp, copy=False)  # loss_and_grads indexes with them
    history = {"loss": []}
    # divergence surfaces as a non-finite loss, not as numpy warnings
    with np.errstate(all="ignore"):
        for epoch in range(schedule.epochs):
            lr = schedule.lr_at(epoch)
            order = rng.permutation(len(x))
            xs, ys = x[order], labels[order]
            starts = range(0, len(order), bs)
            epoch_loss = 0.0
            for start in starts:
                loss, gw, gb = trained.loss_and_grads(xs[start : start + bs], ys[start : start + bs])
                if not math.isfinite(loss):
                    raise DivergenceError(f"loss diverged at epoch {epoch}")
                epoch_loss += loss
                np.concatenate(gw + gb, axis=None, out=grad)
                np.multiply(weights, schedule.weight_decay, out=decay)
                grad_w += decay
                vel *= schedule.momentum
                grad *= lr
                vel -= grad
                params += vel
                if masks:
                    weights *= keep
            history["loss"].append(epoch_loss / max(len(starts), 1))
    return trained.clone(), history


# --- synthetic dataset ---


@dataclass(frozen=True)
class Dataset:
    x: np.ndarray
    y: np.ndarray


def make_blobs(
    samples: int = 512, features: int = 64, classes: int = 4, spread: float = 1.0, seed: int = 0
) -> Dataset:
    """Seeded Gaussian-blob classification task, self-contained and fast.
    ``samples`` is an integer >= 0, ``features`` and ``classes`` integers
    >= 1, and ``spread`` a finite real number; anything else raises
    :class:`ShapeError`."""
    for key, value, least in (("samples", samples, 0), ("features", features, 1), ("classes", classes, 1)):
        if not isinstance(value, numbers.Integral) or value < least:
            raise ShapeError(f"need an integer {key} >= {least}, got {value!r}")
    if not (isinstance(spread, numbers.Real) and math.isfinite(spread)):
        raise ShapeError(f"need a finite real spread, got {spread!r}")
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
# the kinds that read each optional Phase field; validate_recipe rejects it elsewhere
_READ_BY = {"schedule": _TRAIN_KINDS, "pattern": {PhaseKind.PRUNE}, "repeats": {PhaseKind.RETRAIN_SPARSE}}


@dataclass(frozen=True)
class Phase:
    """One recipe step. A retrain may leave ``schedule`` out: it runs the
    schedule of the phase it repeats, which :func:`validate_recipe` sets."""

    name: str
    kind: PhaseKind
    schedule: Schedule | None = None
    pattern: NMPattern | None = None
    repeats: str | None = None  # dense phase whose schedule a retrain repeats


@dataclass(frozen=True)
class Recipe:
    phases: tuple[Phase, ...]
    seed: int = 0  # read by nothing; to be removed once no caller passes it


class RecipeError(ValueError):
    code = "recipe"


def _repeated_phase(phases, retrain: str, repeats: str | None) -> Phase:
    """The dense phase whose schedule a retrain repeats: among the dense
    phases before the prune, the one named ``repeats``, or else the last."""
    before_prune = itertools.takewhile(lambda p: p.kind is not PhaseKind.PRUNE, phases)
    named = [p for p in before_prune if p.kind is PhaseKind.TRAIN_DENSE and repeats in (None, p.name)]
    if not named:
        what = "no dense phase" if repeats is None else f"{repeats!r}, not a dense phase"
        raise RecipeError(f"retrain phase {retrain!r} repeats {what} before prune")
    return named[-1]


def validate_recipe(recipe: Recipe) -> Recipe:
    """Enforce the phase rules: each phase sets only the fields its kind reads
    (dense and finetune phases need a schedule), exactly one prune, dense phases
    before it, sparse phases after it. A retrain's schedule is None or equal to
    that of the phase it repeats; returns the recipe with every one set to it."""
    for p in recipe.phases:
        if p.kind in (PhaseKind.TRAIN_DENSE, PhaseKind.FINETUNE_SPARSE) and p.schedule is None:
            raise RecipeError(f"phase {p.name!r} ({p.kind.value}) needs a schedule")
        unread = [f for f, kinds in _READ_BY.items() if p.kind not in kinds and getattr(p, f) is not None]
        if unread:
            raise RecipeError(f"phase {p.name!r} ({p.kind.value}) does not read {', '.join(unread)}")
    kinds = [p.kind for p in recipe.phases]
    if kinds.count(PhaseKind.PRUNE) != 1:
        raise RecipeError("recipe must contain exactly one prune phase")
    prune_at = kinds.index(PhaseKind.PRUNE)
    before, after = set(kinds[:prune_at]), set(kinds[prune_at:])
    if PhaseKind.TRAIN_DENSE not in before:
        raise RecipeError("prune must follow at least one dense training phase")
    if before & {PhaseKind.RETRAIN_SPARSE, PhaseKind.FINETUNE_SPARSE}:
        raise RecipeError("sparse training phases must come after prune")
    if PhaseKind.TRAIN_DENSE in after:
        raise RecipeError("dense training phases must come before prune")
    if PhaseKind.RETRAIN_SPARSE not in after:
        raise RecipeError("prune must be followed by a retrain phase")

    phases = []
    for p in recipe.phases:
        if p.kind is PhaseKind.RETRAIN_SPARSE:
            target = _repeated_phase(recipe.phases, p.name, p.repeats)
            if p.schedule not in (None, target.schedule):
                raise RecipeError(f"retrain phase {p.name!r} must repeat the schedule of {target.name!r} exactly")
            p = replace(p, schedule=target.schedule)
        phases.append(p)
    return replace(recipe, phases=tuple(phases))


def run_recipe(recipe: Recipe, net: TinyNet, data: Dataset) -> dict:
    """Execute a validated recipe on a tiny net; returns per-phase metrics.
    A calibrate phase records nothing: no export reads scales yet.
    ``final_accuracy`` is the last training phase's ``train_accuracy``. An
    empty dataset trains, but its accuracy raises :class:`ShapeError`."""
    recipe = validate_recipe(recipe)
    masks: dict[int, Mask] = {}
    report: dict = {"phases": []}
    for phase in recipe.phases:
        entry: dict = {"name": phase.name, "kind": phase.kind.value}
        if phase.kind in _TRAIN_KINDS:
            # masks stays empty until the prune phase, so dense phases train dense
            net, hist = train(net, data, phase.schedule, masks=masks)
            entry["final_loss"] = hist["loss"][-1] if hist["loss"] else None
            entry["train_accuracy"] = accuracy = net.accuracy(data.x, data.y)
        elif phase.kind is PhaseKind.PRUNE:
            pattern = phase.pattern or PATTERN_24
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
        report["phases"].append(entry)
    report["final_accuracy"] = accuracy  # only calibrate phases, which leave the net alone, follow it
    report["net"] = net
    report["masks"] = masks
    return report


# --- recipe text format ---
#
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
# Every section is a [phase.<name>] whose keys are `kind` plus the keys that
# kind takes (_KIND_KEYS); anything else is rejected. A retrain declares no
# schedule: it runs the schedule of the dense phase it repeats, by default
# the last dense phase before the prune.

# every Schedule field is a key, parsed by its type; a type missing here fails at import
_TYPE_PARSERS = {
    int: int,
    float: float,
    tuple[int, ...]: lambda text: tuple(int(v) for v in text.split(",") if v.strip()),
}
_SCHEDULE_KEYS = {key: _TYPE_PARSERS[hint] for key, hint in typing.get_type_hints(Schedule).items()}
_KIND_KEYS = {
    PhaseKind.TRAIN_DENSE: _SCHEDULE_KEYS,
    PhaseKind.FINETUNE_SPARSE: _SCHEDULE_KEYS,
    PhaseKind.RETRAIN_SPARSE: {"repeats": str},
    PhaseKind.PRUNE: {"pattern": NMPattern.parse},
    PhaseKind.CALIBRATE: {},
}


def _convert(name: str, key: str, text: str, parse):
    try:
        return parse(text)
    except ValueError as exc:
        raise RecipeError(f"phase {name!r} {key}: {exc}") from exc


def parse_recipe(text: str) -> Recipe:
    """Parse and validate a recipe; any malformed recipe raises :class:`RecipeError`,
    and so does text that is not a ``str`` (bytes, say)."""
    if not isinstance(text, str):
        raise RecipeError(f"a recipe is text, got {type(text).__name__}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_file(io.StringIO(text))
    except configparser.Error as exc:
        raise RecipeError(f"not a recipe: {exc}") from exc
    phases: list[Phase] = []
    for section in cp.sections():
        if not section.startswith("phase."):
            raise RecipeError(f"unknown section [{section}]")
        name = section[len("phase.") :]
        items = dict(cp[section])
        if "kind" not in items:
            raise RecipeError(f"phase {name!r} needs a kind")
        kind = _convert(name, "kind", items.pop("kind"), PhaseKind)
        declared = {}
        for key, value in items.items():
            if key not in _KIND_KEYS[kind]:
                raise RecipeError(f"phase {name!r} ({kind.value}) does not take key {key!r}")
            declared[key] = _convert(name, key, value, _KIND_KEYS[kind][key])
        schedule = None
        if _KIND_KEYS[kind] is _SCHEDULE_KEYS:
            if "epochs" not in declared or "lr" not in declared:
                raise RecipeError(f"phase {name!r} needs explicit epochs and lr")
            schedule = Schedule(**declared)
        phases.append(Phase(name, kind, schedule, declared.get("pattern"), declared.get("repeats")))
    return validate_recipe(Recipe(phases=tuple(phases)))
