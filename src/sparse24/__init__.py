"""N:M structured sparsity toolkit: compressed storage, sparse GEMM,
mask-finding, INT8 calibration, and a train/prune/retrain workflow."""

from .formats import (
    ALL_FORMATS,
    BF16,
    FP16,
    FP16_FP16,
    FP32,
    INT8,
    PATTERN_12,
    PATTERN_24,
    TF32,
    AccType,
    DenseMatrix,
    ElemType,
    FormatError,
    GemmShape,
    NMPattern,
    NonFiniteError,
    NumericFormat,
    ShapeError,
    gemm_dense,
)
from .codec import (
    ConformanceError,
    Mask,
    MetadataError,
    SparseNM,
    apply_mask,
    check_conformance,
    compress,
    decompress,
    dense_storage_bits,
    storage_bits,
)
from .kernels import (
    BenchReport,
    MultiplyAddCounter,
    bench,
    float_tolerance,
    spmm,
    spmm_flops,
)
from .pruning import (
    Permutation,
    PruneResult,
    SearchBudget,
    enumerate_group_partitions,
    find_permutation,
    find_transposable_mask,
    permute_columns,
    propagate_permutation,
    prune_magnitude,
)
from .calibration import (
    CalibMethod,
    Granularity,
    ScaleSet,
    calibrate,
    dequantize,
    quantize,
    quantized_sparse_gemm,
    sparse_quantize,
)
from .workflow import (
    Dataset,
    LayerKind,
    LayerManifest,
    Phase,
    PhaseKind,
    Recipe,
    RecipeError,
    Schedule,
    TinyNet,
    eligible,
    make_blobs,
    parse_recipe,
    run_recipe,
    train,
    validate_recipe,
)
from .archive import (
    ArchiveError,
    BadMagicError,
    InvariantError,
    TensorArchive,
    TruncatedError,
    VersionMismatchError,
    read_archive,
    write_archive,
)

__version__ = "0.1.0"
