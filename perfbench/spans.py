"""In-memory span recorder for the traced benchmark run.

The library has no trace interface yet, so spans are taken from outside it:
while installed, the tracer replaces the public functions of each sparse24
layer module with wrappers that record a span per call. A function is wrapped
under every module-level name that refers to it, so a call that crosses
layers through an imported name (``calibration.spmm``, ``workflow.train``,
``archive.pack_bit_fields``) is attributed to the layer that defines the
function. Nothing under ``src/`` is modified; ``uninstall`` restores every
replaced attribute.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span or -1, ``op`` the id of the operation (or set-up) that was
running. Spans are recorded only while an op is open, so the benchmark's
correctness checks, which run between ops, are never attributed to a layer.
The recorder assumes one thread, which holds for every workload:
``SpmmPlan.threads`` defaults to 1 and the benchmark never raises it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("formats", "codec", "kernels", "pruning", "calibration", "workflow", "archive")

# Methods that carry a layer's work but are reached through an object, not a
# module-level name.
METHODS = {
    "formats": {"DenseMatrix": ("from_values",)},
    "codec": {"SparseNM": ("column_indices", "validate")},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, op]
        self.facts: defaultdict[str, float] = defaultdict(float)
        self.errors: Counter[str] = Counter()
        self.spmm_calls: Counter[tuple] = Counter()
        self.spmm_operands: dict[tuple, tuple] = {}
        self._name_ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._op = None
        self._restore: list[tuple] = []

    # --- op scope -------------------------------------------------------

    def begin(self, op) -> None:
        self._op = op

    def end(self) -> None:
        self._op = None

    # --- recording ------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            bound = state = None
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                state = hook.before(self, bound)
                args, kwargs = bound.args, bound.kwargs
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # count an exception once per call into the layer, not once
                # per span of that layer it passes through
                parent = self.spans[idx][3]
                if parent < 0 or not self.names[self.spans[parent][0]].startswith(layer + "."):
                    self.errors[layer] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook.after(self, bound, result, state)
            return result

        return wrapper

    # --- install / uninstall --------------------------------------------

    def install(self) -> None:
        mods = {layer: importlib.import_module(f"sparse24.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                package, _, owner = value.__module__.rpartition(".")
                if package != "sparse24" or owner not in mods:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(f"{owner}.{value.__name__}", value)
                self._restore.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    self._restore.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(f"{layer}.{meth}", raw.__func__))
                    else:
                        wrapped = self._wrap(f"{layer}.{meth}", raw)
                    setattr(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- derived quantities ---------------------------------------------

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time covered by its direct children."""
        if not self.spans:
            return np.zeros(0)
        arr = np.array([(s[1], s[2], s[3]) for s in self.spans], dtype=np.float64)
        dur = arr[:, 1] - arr[:, 0]
        parents = arr[:, 2].astype(np.int64)
        child = parents >= 0
        covered = np.zeros(len(dur))
        np.add.at(covered, parents[child], dur[child])
        return dur - covered

    def dump(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op"],
                    "spans": [[self.names[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                f,
            )


# --- counts taken at layer boundaries ------------------------------------


class _Hook:
    def before(self, tracer: Tracer, bound):
        """May complete the call's arguments; returns state for ``after``."""
        return None

    def after(self, tracer: Tracer, bound, result, state) -> None:
        pass


class _Compress(_Hook):
    def after(self, tracer, bound, result, state):
        a = bound.arguments["a"]
        tracer.facts["codec.elements"] += a.rows * a.cols


class _Decompress(_Hook):
    def after(self, tracer, bound, result, state):
        tracer.facts["codec.elements"] += result.rows * result.cols


class _WriteArchive(_Hook):
    def after(self, tracer, bound, result, state):
        tracer.facts["archive.bytes_written"] += os.path.getsize(bound.arguments["path"])


class _ReadArchive(_Hook):
    def after(self, tracer, bound, result, state):
        tracer.facts["archive.bytes_read"] += os.path.getsize(bound.arguments["path"])


class _Prune(_Hook):
    def after(self, tracer, bound, result, state):
        tracer.facts["pruning.retained"] += result.retained_magnitude
        tracer.facts["pruning.total"] += result.retained_magnitude + result.lost_magnitude


class _Permutation(_Hook):
    def after(self, tracer, bound, result, state):
        budget = bound.arguments["budget"]
        if budget is not None:
            tracer.facts["pruning.swaps_used"] += budget.stats.get("swaps_used", 0)


class _Spmm(_Hook):
    """Counts multiply-adds with the kernel's own MultiplyAddCounter, next to
    the closed-form ``spmm_flops`` count that the traced run asserts against."""

    def before(self, tracer, bound):
        from sparse24.kernels import MultiplyAddCounter

        if bound.arguments["counter"] is None:
            bound.arguments["counter"] = MultiplyAddCounter()
        return bound.arguments["counter"].count

    def after(self, tracer, bound, result, state):
        from sparse24 import kernels
        from sparse24.formats import GemmShape

        spmm_flops = inspect.unwrap(kernels.spmm_flops)  # untraced: not the kernel's work
        a, b = bound.arguments["a"], bound.arguments["b"]
        counter = bound.arguments["counter"]
        tracer.facts["kernels.madds"] += counter.count - state
        tracer.facts["kernels.flops_closed_form"] += spmm_flops(
            GemmShape(a.rows, b.cols, a.cols_orig), a.pattern
        )
        tracer.facts["kernels.bytes_computed"] += (
            a.values.nbytes + a.meta.nbytes + b.data.nbytes + result.data.nbytes
        )
        key = (a.rows, a.cols_orig, b.cols, str(b.fmt))
        tracer.spmm_calls[key] += 1
        tracer.spmm_operands.setdefault(key, (a, b))


class _Train(_Hook):
    def after(self, tracer, bound, result, state):
        epochs = bound.arguments["schedule"].epochs
        tracer.facts["workflow.epochs"] += epochs
        tracer.facts["workflow.samples"] += epochs * len(bound.arguments["data"].x)


_HOOKS = {
    "codec.compress": _Compress(),
    "codec.decompress": _Decompress(),
    "archive.write_archive": _WriteArchive(),
    "archive.read_archive": _ReadArchive(),
    "pruning.prune_magnitude": _Prune(),
    "pruning.find_transposable_mask": _Prune(),
    "pruning.find_permutation": _Permutation(),
    "kernels.spmm": _Spmm(),
    "workflow.train": _Train(),
}


# --- per-layer metrics ----------------------------------------------------


def layer_metrics(tracer: Tracer, n_ops: int, op_wall_s: float) -> dict[str, float]:
    """Per-layer figures of a traced phase of ``n_ops`` ops.

    Times are self time in seconds per op; counts are per op; rates divide a
    count by the total (not self) time of the spans that did the work, and
    are left out when no span did that work.
    ``unattributed_s`` is op wall time that no layer span covers: the
    benchmark's own glue between calls into the library.
    """
    self_t = tracer.self_times()
    by_fn: defaultdict[str, float] = defaultdict(float)
    total: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    for span, st in zip(tracer.spans, self_t):
        name = tracer.names[span[0]]
        by_fn[name] += st
        total[name] += span[2] - span[1]
        calls[name] += 1
    f = tracer.facts

    def per_op(x: float) -> float:
        return x / n_ops

    def fn_s(*names: str) -> float:
        return per_op(sum(by_fn[n] for n in names))

    def ratio(num: float, den: float) -> float | None:
        return num / den if den else None  # no work to divide by

    m = {
        "archive.write_s": fn_s("archive.write_archive"),
        "archive.read_s": fn_s("archive.read_archive"),
        "archive.pack_bit_fields_s": fn_s("archive.pack_bit_fields"),
        "archive.unpack_bit_fields_s": fn_s("archive.unpack_bit_fields"),
        "archive.bytes_written": per_op(f["archive.bytes_written"]),
        "archive.bytes_read": per_op(f["archive.bytes_read"]),
        "codec.compress_s": fn_s("codec.compress"),
        "codec.decompress_s": fn_s("codec.decompress"),
        "codec.elements": per_op(f["codec.elements"]),
        "codec.calls": per_op(sum(c for n, c in calls.items() if n.startswith("codec."))),
        "pruning.magnitude_s": fn_s("pruning.prune_magnitude"),
        "pruning.transposable_s": fn_s("pruning.find_transposable_mask"),
        "pruning.permutation_s": fn_s("pruning.find_permutation"),
        "pruning.swaps_used": per_op(f["pruning.swaps_used"]),
        "pruning.permutation_gain_per_s": ratio(
            f["pruning.permutation_gain"], total["pruning.find_permutation"]
        ),
        "pruning.retained_frac": ratio(f["pruning.retained"], f["pruning.total"]),
        "kernels.spmm_s": fn_s("kernels.spmm"),
        "kernels.spmm_calls": per_op(calls["kernels.spmm"]),
        "kernels.madds": per_op(f["kernels.madds"]),
        "kernels.mmacs_per_s": ratio(f["kernels.madds"] / 1e6, total["kernels.spmm"]),
        "kernels.bytes_computed": per_op(f["kernels.bytes_computed"]),
        "kernels.madds_per_byte": ratio(f["kernels.madds"], f["kernels.bytes_computed"]),
        "calibration.calibrate_s": fn_s("calibration.calibrate"),
        "calibration.entropy_threshold_s": fn_s("calibration.entropy_threshold"),
        "calibration.entropy_calls": per_op(calls["calibration.entropy_threshold"]),
        "calibration.quantize_s": fn_s("calibration.quantize", "calibration.sparse_quantize"),
        "calibration.qgemm_s": fn_s("calibration.quantized_sparse_gemm"),
        "workflow.run_recipe_s": fn_s("workflow.run_recipe"),
        "workflow.train_s": fn_s("workflow.train"),
        "workflow.epochs": per_op(f["workflow.epochs"]),
        "workflow.samples_per_s": ratio(f["workflow.samples"], total["workflow.train"]),
        "formats.from_values_s": fn_s("formats.from_values"),
        "formats.gemm_dense_s": fn_s("formats.gemm_dense"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = fn_s(*(n for n in by_fn if n.startswith(layer + ".")))
        m[f"{layer}.errors"] = float(tracer.errors[layer])
    m["unattributed_s"] = per_op(op_wall_s - float(self_t.sum()))
    return {k: v for k, v in m.items() if v is not None}


def layer_self_times(tracer: Tracer) -> dict[str, float]:
    """Total self time of each layer over everything the tracer recorded."""
    out = dict.fromkeys(LAYERS, 0.0)
    for span, st in zip(tracer.spans, tracer.self_times()):
        out[tracer.names[span[0]].split(".", 1)[0]] += st
    return out


FLOOR_REPEATS = 5  # timings per shape; the floor is their median


def kernel_floors(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """CPU floors for every spmm shape the traced ops ran, weighted by calls.

    ``floor_matmul_s`` times numpy ``matmul`` on the pruned dense matrix and
    ``floor_decompress_matmul_s`` times decompress-then-``matmul``, both in
    float32 (exact for the INT8 path's sizes). These are figures for the
    emulated kernel on this CPU, not a claim about sparse hardware. Call
    after ``uninstall`` so the floors' own decompress is not traced.
    ``spmm_over_floor`` is left out when the ops ran no ``spmm``.
    """
    from sparse24.codec import decompress

    def median_s(fn) -> float:
        times = []
        for _ in range(FLOOR_REPEATS):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    floor_mm = floor_dm = 0.0
    for key, n in tracer.spmm_calls.items():
        a, b = tracer.spmm_operands[key]
        bm = np.asarray(b.data, dtype=np.float32)
        dense = decompress(a).data.astype(np.float32)
        floor_mm += n * median_s(lambda: np.matmul(dense, bm))
        floor_dm += n * median_s(lambda: np.matmul(decompress(a).data.astype(np.float32), bm))
    spmm_total = sum(s[2] - s[1] for s in tracer.spans if tracer.names[s[0]] == "kernels.spmm")
    floors = {
        "kernels.floor_matmul_s": floor_mm / n_ops,
        "kernels.floor_decompress_matmul_s": floor_dm / n_ops,
    }
    if floor_mm:
        floors["kernels.spmm_over_floor"] = spmm_total / floor_mm
    return floors
