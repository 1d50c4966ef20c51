import numpy as np
import pytest
from click.testing import CliRunner

import sparse24 as s
from sparse24.cli import main
from conftest import random_conforming, random_dense


@pytest.fixture
def runner():
    return CliRunner()


def write_dense(path, mat):
    s.write_archive(s.TensorArchive().add("w", mat), path)


class TestCheck:
    def test_nonconforming_names_row_and_group(self, runner, tmp_path, rng):
        path = tmp_path / "bad.s24t"
        data = np.zeros((3, 8), dtype=np.float32)
        data[2, 4:8] = 1.0  # row 2, group 1 has 4 nonzeros
        write_dense(path, s.DenseMatrix(data, s.FP32))
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 1
        assert "row 2, group 1" in result.stderr

    def test_conforming_exits_zero(self, runner, tmp_path, rng):
        path = tmp_path / "ok.s24t"
        write_dense(path, random_conforming(rng, 4, 8, s.FP32))
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 0


class TestPruneCheckPipeline:
    def test_prune_then_check(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, random_dense(rng, 8, 16, s.FP16))
        assert runner.invoke(main, ["prune", str(src), str(dst), "--pattern", "2:4"]).exit_code == 0
        result = runner.invoke(main, ["check", str(dst), "--entry", "w"])
        assert result.exit_code == 0

    def test_prune_with_permutation_stores_permutation(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, random_dense(rng, 8, 8, s.FP16))
        res = runner.invoke(main, ["prune", str(src), str(dst), "--mask", "permute-exhaustive"])
        assert res.exit_code == 0
        arch = s.read_archive(dst)
        assert "w.permutation" in arch.entries

    def test_exhaustive_over_budget_is_a_data_error(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, random_dense(rng, 4, 32, s.FP16))
        result = runner.invoke(main, ["prune", str(src), str(dst), "--mask", "permute-exhaustive"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[search_mode]:")
        assert not dst.exists()

    @pytest.mark.parametrize("mask", ["permute-greedy", "permute-exhaustive"])
    def test_permute_zero_columns(self, runner, tmp_path, mask):
        src = tmp_path / "z.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, s.DenseMatrix(np.zeros((4, 0), dtype=np.float32), s.FP32))
        res = runner.invoke(main, ["prune", str(src), str(dst), "--mask", mask])
        assert res.exit_code == 0, res.output
        arch = s.read_archive(dst)
        assert arch["w.permutation"].data.shape == (1, 0)
        assert arch["w.mask"].bits.shape == (4, 0)

    def test_transposable_prune(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, random_dense(rng, 8, 8, s.FP16))
        res = runner.invoke(main, ["prune", str(src), str(dst), "--mask", "transposable"])
        assert res.exit_code == 0
        mask = s.read_archive(dst)["w.mask"]
        s.Mask(np.ascontiguousarray(mask.bits.T)).check(s.PATTERN_24)

    def test_transposable_other_than_2_4_is_usage_error(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "p.s24t"
        write_dense(src, random_dense(rng, 8, 8, s.FP16))
        args = ["prune", str(src), str(dst), "--mask", "transposable", "--pattern", "1:2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "--mask transposable" in result.stderr
        assert not dst.exists()


class TestDataErrors:
    def test_prune_non_finite_weight(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        data = random_dense(rng, 4, 8, s.FP32).data.copy()
        data[1, 6] = np.nan
        write_dense(src, s.DenseMatrix(data, s.FP32))
        result = runner.invoke(main, ["prune", str(src), str(tmp_path / "p.s24t")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[non_finite]:")
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "defect, code",
        [
            ("truncated", "truncated"),
            ("empty", "truncated"),
            ("bad_magic", "bad_magic"),
            ("trailing_byte", "invariant_violation"),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "compress", "prune"])
    def test_corrupt_archive(self, runner, tmp_path, rng, command, defect, code):
        path = tmp_path / "w.s24t"
        write_dense(path, random_conforming(rng, 4, 8, s.FP16))
        raw = path.read_bytes()
        path.write_bytes(
            {
                "truncated": raw[:-3],
                "empty": b"",
                "bad_magic": b"XXXX" + raw[4:],
                "trailing_byte": raw + b"\0",
            }[defect]
        )
        args = [command, str(path)] + ([] if command == "check" else [str(tmp_path / "out.s24t")])
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error[{code}]:")
        assert isinstance(result.exception, SystemExit)

    def test_missing_entry_named(self, runner, tmp_path, rng):
        path = tmp_path / "w.s24t"
        write_dense(path, random_conforming(rng, 4, 8, s.FP16))
        result = runner.invoke(main, ["check", str(path), "--entry", "nope"])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[entry]:")
        assert "no entry named 'nope'" in result.stderr
        assert isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("entry_args, message", [([], "(found 0)"), (["--entry", "m"], "is Mask")])
    def test_mask_only_archive(self, runner, tmp_path, entry_args, message):
        path = tmp_path / "m.s24t"
        s.write_archive(s.TensorArchive().add("m", s.Mask(np.ones((1, 4), dtype=bool))), path)
        result = runner.invoke(main, ["check", str(path), *entry_args])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[entry]:") and message in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_calibrate_without_dense_entry(self, runner, tmp_path):
        src = tmp_path / "m.s24t"
        s.write_archive(s.TensorArchive().add("m", s.Mask(np.ones((1, 4), dtype=bool))), src)
        result = runner.invoke(main, ["calibrate", str(src), str(tmp_path / "s.s24t")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[shape]: empty calibration stream")
        assert isinstance(result.exception, SystemExit)

    def test_unwritable_destination_is_io_error(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        write_dense(src, random_conforming(rng, 4, 8, s.FP16))
        result = runner.invoke(main, ["compress", str(src), str(tmp_path / "missing_dir" / "out.s24t")])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[io]:") and "missing_dir" in result.stderr
        assert isinstance(result.exception, SystemExit)

    def test_recipe_not_ini(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text("kind = prune\n")
        result = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[recipe]:")
        assert isinstance(result.exception, SystemExit)

    def test_recipe_negative_seed(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text(RECIPE.replace("lr = 0.05\n", "lr = 0.05\nseed = -1\n"))
        result = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[recipe]:") and "seed" in result.stderr
        assert isinstance(result.exception, SystemExit)


class TestUsageErrors:
    """Malformed arguments are usage errors (exit 2) that name the option,
    never a data error or a traceback."""

    @pytest.mark.parametrize(
        "args, option",
        [
            (["calibrate", "{src}", "{dst}", "--method", "foo"], "--method"),
            (["calibrate", "{src}", "{dst}", "--method", "percentile=abc"], "--method"),
            (["calibrate", "{src}", "{dst}", "--granularity", "per_channel"], "--granularity"),
            (["bench", "--format", "xyz"], "--format"),
            (["bench", "--format", "fp32"], "--format"),
            (["bench", "--sizes", "16x16"], "--sizes"),
            (["bench", "--sizes", "16x16x0"], "--sizes"),
            (["bench", "--repeats", "0"], "--repeats"),
            (["check", "{src}", "--pattern", "3"], "--pattern"),
            (["check", "{src}", "--pattern", "1:512"], "--pattern"),
            (["demo-workflow", "--recipe", "{recipe}", "--hidden", "0"], "--hidden"),
            (["demo-workflow", "--recipe", "{recipe}", "--features", "0"], "--features"),
            (["demo-workflow", "--recipe", "{recipe}", "--classes", "0"], "--classes"),
            (["demo-workflow", "--recipe", "{recipe}", "--samples", "0"], "--samples"),
            (["demo-workflow", "--recipe", "{recipe}", "--seed", "-1"], "--seed"),
            (["prune", "{src}", "{dst}", "--mask", "permute-greedy", "--seed", "-1"], "--seed"),
            (["bench", "--seed", "-1"], "--seed"),
        ],
        ids=[
            "method_unknown",
            "method_percentile_not_a_number",
            "granularity_retired",
            "format_unknown",
            "format_without_sparse_mode",
            "sizes_not_a_triple",
            "sizes_zero_dim",
            "repeats_zero",
            "pattern_not_n_m",
            "pattern_m_above_255",
            "hidden_zero",
            "features_zero",
            "classes_zero",
            "samples_zero",
            "demo_seed_negative",
            "prune_seed_negative",
            "bench_seed_negative",
        ],
    )
    def test_exit_2(self, runner, tmp_path, rng, args, option):
        paths = {"src": tmp_path / "w.s24t", "dst": tmp_path / "out.s24t", "recipe": tmp_path / "r.recipe"}
        write_dense(paths["src"], random_dense(rng, 8, 8, s.FP32))
        paths["recipe"].write_text(RECIPE)
        result = runner.invoke(main, [a.format(**paths) for a in args])
        assert result.exit_code == 2, result.output
        assert option in result.stderr
        assert isinstance(result.exception, SystemExit)
        assert not paths["dst"].exists()


class TestCompressDecompress:
    def test_roundtrip_via_cli(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        comp = tmp_path / "c.s24t"
        back = tmp_path / "d.s24t"
        original = random_conforming(rng, 8, 16, s.FP16)
        write_dense(src, original)
        assert runner.invoke(main, ["compress", str(src), str(comp)]).exit_code == 0
        assert runner.invoke(main, ["decompress", str(comp), str(back)]).exit_code == 0
        assert np.array_equal(s.read_archive(back)["w"].data, original.data)

    def test_compress_nonconforming_fails(self, runner, tmp_path):
        src = tmp_path / "w.s24t"
        write_dense(src, s.DenseMatrix(np.ones((2, 4), dtype=np.float32), s.FP32))
        result = runner.invoke(main, ["compress", str(src), str(tmp_path / "c.s24t")])
        assert result.exit_code == 1


class TestSpmmCommand:
    def test_end_to_end(self, runner, tmp_path, rng):
        a = random_conforming(rng, 8, 32, s.INT8)
        sp = s.compress(a, s.PATTERN_24)
        b = random_dense(rng, 32, 8, s.INT8)
        ap, bp, cp = (tmp_path / n for n in ("a.s24t", "b.s24t", "c.s24t"))
        s.write_archive(s.TensorArchive().add("a", sp), ap)
        write_dense(bp, b)
        assert runner.invoke(main, ["spmm", str(ap), str(bp), str(cp)]).exit_code == 0
        got = s.read_archive(cp)["c"].data
        assert np.array_equal(got, s.gemm_dense(a, b).data.astype(np.float32))

    @staticmethod
    def _int8_row_times_127s(tmp_path, k):
        # A = [126, 127, 0, 0, 127, 127, 0, 0, ...] (1 x k, 2:4), B = all 127 (k x 1)
        row = np.tile([127, 127, 0, 0], k // 4)
        row[0] = 126
        a = s.DenseMatrix.from_values(row[None, :], s.INT8)
        paths = [tmp_path / n for n in ("a.s24t", "b.s24t", "c.s24t")]
        s.write_archive(s.TensorArchive().add("a", s.compress(a, s.PATTERN_24)), paths[0])
        write_dense(paths[1], s.DenseMatrix.from_values(np.full((k, 1), 127), s.INT8))
        return int(row.sum()) * 127, paths

    def test_int8_result_exact_in_fp32_is_written(self, runner, tmp_path):
        exact, (ap, bp, cp) = self._int8_row_times_127s(tmp_path, 64)
        result = runner.invoke(main, ["spmm", str(ap), str(bp), str(cp)])
        assert result.exit_code == 0, result.output
        assert s.read_archive(cp)["c"].data.tolist() == [[exact]]

    def test_int8_result_fp32_cannot_hold_rejected(self, runner, tmp_path):
        exact, (ap, bp, cp) = self._int8_row_times_127s(tmp_path, 4096)
        assert exact == 33_032_065 and float(np.float32(exact)) != exact
        result = runner.invoke(main, ["spmm", str(ap), str(bp), str(cp)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[format]:")
        assert not cp.exists()


class TestCalibrateCommand:
    def test_scales_on_stdout(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        dst = tmp_path / "s.s24t"
        write_dense(src, random_dense(rng, 8, 8, s.FP32))
        result = runner.invoke(main, ["calibrate", str(src), str(dst), "--method", "max"])
        assert result.exit_code == 0
        assert len(result.stdout.strip().splitlines()) == 1
        assert isinstance(s.read_archive(dst)["scales"], s.ScaleSet)

    def test_percentile_method_parse(self, runner, tmp_path, rng):
        src = tmp_path / "w.s24t"
        write_dense(src, random_dense(rng, 8, 8, s.FP32))
        result = runner.invoke(
            main,
            ["calibrate", str(src), str(tmp_path / "s.s24t"), "--method", "percentile=99.9"],
        )
        assert result.exit_code == 0

    def test_zero_percentile_falls_back_to_max(self, runner, tmp_path):
        src = tmp_path / "w.s24t"
        write_dense(src, s.DenseMatrix.from_values([[0, 0, 0, 0, 0, 3]], s.FP32))
        result = runner.invoke(
            main, ["calibrate", str(src), str(tmp_path / "s.s24t"), "--method", "percentile=50"]
        )
        assert result.exit_code == 0, result.output
        assert float(result.stdout) == 3 / 127.0


class TestBenchCommand:
    def test_csv_header_exact(self, runner):
        result = runner.invoke(main, ["bench", "--sizes", "16x16x32", "--repeats", "1"])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == "M,N,K,dense_ns,sparse_ns,speedup,flops_ratio,floor_ns,decompress_ns"

    def test_usage_error_exit_2(self, runner):
        assert runner.invoke(main, ["bench", "--format"]).exit_code == 2


RECIPE = """
[phase.train]
kind = train_dense
epochs = 6
lr = 0.05
[phase.prune]
kind = prune
pattern = 2:4
[phase.retrain]
kind = retrain_sparse
repeats = train
"""


class TestDemoWorkflow:
    def test_runs_and_reports(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text(RECIPE)
        result = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe), "--seed", "5"])
        assert result.exit_code == 0
        assert "final_accuracy=" in result.stdout

    def test_deterministic_under_seed(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text(RECIPE)
        out1 = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe), "--seed", "5"]).stdout
        out2 = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe), "--seed", "5"]).stdout
        assert out1 == out2

    def test_diverging_recipe_exit_1(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text(RECIPE.replace("lr = 0.05", "lr = 1e6"))
        result = runner.invoke(main, ["demo-workflow", "--recipe", str(recipe)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error[divergence]: loss diverged")
        assert isinstance(result.exception, SystemExit)

    def test_invalid_recipe_exit_1(self, runner, tmp_path):
        recipe = tmp_path / "r.recipe"
        recipe.write_text("[phase.p]\nkind = prune\n")
        assert runner.invoke(main, ["demo-workflow", "--recipe", str(recipe)]).exit_code == 1

    def test_missing_subcommand_usage_error(self, runner):
        assert runner.invoke(main, ["no-such-command"]).exit_code == 2
