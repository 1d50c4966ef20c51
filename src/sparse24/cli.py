"""Command-line surface. Data/CSV goes to stdout, diagnostics to stderr;
usage errors exit 2, data errors exit 1."""

from __future__ import annotations

import sys

import click
import numpy as np

from . import archive as ar
from .calibration import CalibMethod, Granularity, calibrate
from .codec import SparseNM, apply_mask, check_conformance, compress, decompress
from .formats import ALL_FORMATS, FP32, PATTERN_24, DenseMatrix, FormatError, GemmShape, NMPattern
from .kernels import bench as run_bench
from .kernels import spmm
from .pruning import (
    SearchBudget,
    find_permutation,
    find_transposable_mask,
    permute_columns,
    prune_magnitude,
)
from .workflow import DivergenceError, TinyNet, make_blobs, parse_recipe, run_recipe

_FORMATS = {str(f): f for f in ALL_FORMATS if f.sparse_capable}
_FORMATS.update({f.elem.value: f for f in _FORMATS.values() if f.acc.value != "fp16"})

# ValueError covers the library's data errors: every error class with a
# `code` derives from it except DivergenceError. An OSError (a file that cannot
# be opened or written) reports the code "io". A usage error is a click
# exception, which click reports itself (exit 2).
DATA_ERRORS = (ValueError, OSError, DivergenceError)


def _fail(exc: BaseException) -> None:
    code = "io" if isinstance(exc, OSError) else getattr(exc, "code", None)
    prefix = f"error[{code}]" if code else "error"
    click.echo(f"{prefix}: {exc}", err=True)
    sys.exit(1)


class _Main(click.Group):
    """Runs a command and reports any data error it raises (exit 1)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DATA_ERRORS as exc:
            _fail(exc)


def _parsed_by(parse):
    """Option callback that parses the text; a ValueError is a usage error."""

    def callback(ctx, param, text):
        try:
            return parse(text)
        except ValueError as exc:
            raise click.BadParameter(str(exc)) from exc

    return callback


def _gemm_shapes(text: str) -> list[GemmShape]:
    shapes = []
    for part in text.split(","):
        dims = part.lower().split("x")
        if len(dims) != 3 or not all(d.strip().isdigit() for d in dims):
            raise ValueError(f"expected MxNxK, got {part!r}")
        shapes.append(GemmShape(*map(int, dims)))
    return shapes


def _hidden_sizes(text: str) -> list[int]:
    sizes = [int(h) for h in text.split(",") if h.strip()]
    if any(h < 1 for h in sizes):
        raise ValueError(f"hidden sizes must be positive, got {text!r}")
    return sizes


_PATTERN = click.option("--pattern", default="2:4", show_default=True, callback=_parsed_by(NMPattern.parse))


class EntryError(ValueError):
    """No archive entry, or more than one, fits what a command asked for."""

    code = "entry"


def _load_entry(path: str, name: str | None, want):
    arch = ar.read_archive(path)
    if name is None:
        matching = [k for k, v in arch.entries.items() if isinstance(v, want)]
        if len(matching) != 1:
            raise EntryError(
                f"{path}: need exactly one {want.__name__} entry or an explicit --entry "
                f"(found {len(matching)})"
            )
        name = matching[0]
    if name not in arch.entries:
        raise EntryError(f"{path}: no entry named {name!r} (--entry)")
    entry = arch.entries[name]
    if not isinstance(entry, want):
        raise EntryError(f"{path}:{name} is {type(entry).__name__}, expected {want.__name__}")
    return name, entry


@click.group(cls=_Main)
def main():
    """Tools for N:M structured sparsity: compression, sparse GEMM, pruning,
    calibration, benchmarking, and a train/prune/retrain demo."""


@main.command("compress")
@click.argument("src", type=click.Path(exists=True, dir_okay=False))
@click.argument("dst", type=click.Path(dir_okay=False))
@_PATTERN
@click.option("--entry", default=None, help="Entry name (defaults to the only dense entry).")
def cmd_compress(src, dst, pattern, entry):
    """Compress a conforming dense entry into value+metadata form."""
    name, dense = _load_entry(src, entry, DenseMatrix)
    ar.write_archive(ar.TensorArchive().add(name, compress(dense, pattern)), dst)
    click.echo(f"compressed {name} -> {dst}", err=True)


@main.command("decompress")
@click.argument("src", type=click.Path(exists=True, dir_okay=False))
@click.argument("dst", type=click.Path(dir_okay=False))
@click.option("--entry", default=None)
def cmd_decompress(src, dst, entry):
    """Expand a compressed entry back to its dense form."""
    name, sp = _load_entry(src, entry, SparseNM)
    ar.write_archive(ar.TensorArchive().add(name, decompress(sp)), dst)
    click.echo(f"decompressed {name} -> {dst}", err=True)


@main.command("check")
@click.argument("src", type=click.Path(exists=True, dir_okay=False))
@_PATTERN
@click.option("--entry", default=None)
def cmd_check(src, pattern, entry):
    """Verify that a dense entry satisfies the N:M constraint."""
    name, dense = _load_entry(src, entry, DenseMatrix)
    check_conformance(dense, pattern)
    click.echo(f"{name}: conforms to {pattern}")


@main.command("prune")
@click.argument("src", type=click.Path(exists=True, dir_okay=False))
@click.argument("dst", type=click.Path(dir_okay=False))
@_PATTERN
@click.option("--mask", default="magnitude", show_default=True, help="How to find the mask.",
              type=click.Choice(["magnitude", "permute-greedy", "permute-exhaustive", "transposable"]))
@click.option("--entry", default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True,
              help="Seed of the greedy permutation search.")
def cmd_prune(src, dst, pattern, mask, entry, seed):
    """Magnitude-prune a dense entry; optionally permute columns first or
    enforce the constraint along both rows and columns."""
    if mask == "transposable" and pattern != PATTERN_24:
        raise click.UsageError("--mask transposable supports the 2:4 pattern only")
    name, dense = _load_entry(src, entry, DenseMatrix)
    out = ar.TensorArchive()
    if mask == "transposable":
        result = find_transposable_mask(dense)
    elif mask.startswith("permute-"):
        budget = SearchBudget(mode=mask.removeprefix("permute-"), seed=seed)
        perm, result = find_permutation(dense, pattern, budget)
        dense = permute_columns(dense, perm)
        out.add(f"{name}.permutation", DenseMatrix(perm.perm.astype(np.float32)[None, :], FP32))
    else:
        result = prune_magnitude(dense, pattern)
    out.add(name, apply_mask(dense, result.mask))
    out.add(f"{name}.mask", result.mask)
    ar.write_archive(out, dst)
    click.echo(
        f"pruned {name}: retained |w| = {result.retained_magnitude:.4f}, "
        f"lost |w| = {result.lost_magnitude:.4f}",
        err=True,
    )


@main.command("spmm")
@click.argument("a_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("b_path", type=click.Path(exists=True, dir_okay=False))
@click.argument("c_path", type=click.Path(dir_okay=False))
@click.option("--a-entry", default=None)
@click.option("--b-entry", default=None)
def cmd_spmm(a_path, b_path, c_path, a_entry, b_entry):
    """Multiply a compressed operand with a dense one."""
    name_a, sp = _load_entry(a_path, a_entry, SparseNM)
    _, dense = _load_entry(b_path, b_entry, DenseMatrix)
    result = spmm(sp, dense)
    # accumulator values can exceed the input element range, so the
    # on-disk result is always FP32, which holds integers exactly only to 2**24
    out = DenseMatrix(result.data.astype(np.float32), FP32)
    if not np.array_equal(out.data, result.data, equal_nan=True):
        raise FormatError(f"spmm {name_a}: the {result.fmt.acc.value} result holds values fp32 cannot hold exactly")
    ar.write_archive(ar.TensorArchive().add("c", out), c_path)
    click.echo(f"spmm {name_a}: wrote {c_path}", err=True)


@main.command("calibrate")
@click.argument("src", type=click.Path(exists=True, dir_okay=False))
@click.argument("dst", type=click.Path(dir_okay=False))
@click.option("--method", default="max", show_default=True, help="max | entropy | percentile=P",
              callback=_parsed_by(CalibMethod.parse))
@click.option(
    "--granularity",
    type=click.Choice([g.value for g in Granularity]),
    default="per_tensor",
    show_default=True,
)
def cmd_calibrate(src, dst, method, granularity):
    """Compute quantization scales from every dense entry in an archive."""
    arch = ar.read_archive(src)
    samples = [v for v in arch.entries.values() if isinstance(v, DenseMatrix)]
    scales = calibrate(samples, method, Granularity(granularity))
    ar.write_archive(ar.TensorArchive().add("scales", scales), dst)
    for s in scales.scales.tolist():
        click.echo(repr(s))


@main.command("bench")
@click.option("--sizes", default="128x128x64,128x128x256,128x128x1024", show_default=True,
              help="Comma-separated MxNxK triples.", callback=_parsed_by(_gemm_shapes))
@click.option("--format", "fmt_name", type=click.Choice(list(_FORMATS)), default="int8", show_default=True)
@_PATTERN
@click.option("--repeats", type=click.IntRange(min=1), default=5, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_bench(sizes, fmt_name, pattern, repeats, seed):
    """Wall-clock sparse-vs-dense comparison; CSV on stdout.

    The speedup column is measured against the gemm_dense emulation oracle on
    this CPU, not against real sparse hardware. The honest floors: floor_ns
    times numpy matmul on the pruned dense matrix, decompress_ns decompress
    then matmul.
    """
    report = run_bench(sizes, _FORMATS[fmt_name], repeats=repeats, pattern=pattern, seed=seed)
    click.echo(report.to_csv(), nl=False)


@main.command("demo-workflow")
@click.option("--recipe", "recipe_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--features", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--classes", type=click.IntRange(min=1), default=4, show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=512, show_default=True)
@click.option("--hidden", default="64", show_default=True, help="Comma-separated hidden sizes.",
              callback=_parsed_by(_hidden_sizes))
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def cmd_demo_workflow(recipe_path, features, classes, samples, hidden, seed):
    """Run a recipe end to end on the synthetic classification task."""
    with open(recipe_path) as f:
        recipe = parse_recipe(f.read())
    data = make_blobs(samples=samples, features=features, classes=classes, seed=seed)
    report = run_recipe(recipe, TinyNet.init([features, *hidden, classes], seed=seed), data)
    for phase in report["phases"]:
        metrics = {k: v for k, v in phase.items() if k not in ("name", "kind")}
        rendered = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}" for k, v in metrics.items())
        click.echo(f"{phase['name']} ({phase['kind']}): {rendered}")
    click.echo(f"final_accuracy={report['final_accuracy']:.4f}")


if __name__ == "__main__":
    main()
