import errno
import os
import re
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparse24 as s
from conftest import random_conforming, random_dense
from sparse24.archive import pack_bit_fields, unpack_bit_fields

FORMAT_DOC = Path(__file__).resolve().parents[1] / "docs" / "format.md"


def roundtrip(tmp_path, archive):
    path = tmp_path / "t.s24t"
    s.write_archive(archive, path)
    return path, s.read_archive(path)


class TestRoundtrip:
    def test_empty_archive(self, tmp_path):
        _, back = roundtrip(tmp_path, s.TensorArchive())
        assert back.entries == {}

    def test_dense_all_formats(self, tmp_path, rng):
        arch = s.TensorArchive()
        originals = {}
        for fmt in s.ALL_FORMATS:
            m = random_dense(rng, 5, 8, fmt)
            originals[str(fmt)] = m
            arch.add(str(fmt), m)
        _, back = roundtrip(tmp_path, arch)
        for name, m in originals.items():
            assert np.array_equal(back[name].data, m.data), name
            assert back[name].fmt == m.fmt

    @pytest.mark.parametrize("fmt", [f for f in s.ALL_FORMATS if not f.is_integer], ids=str)
    def test_nan_stays_nan(self, tmp_path, fmt):
        # every mantissa bit set, or a payload only in bits bf16 and tf32 drop:
        # the rounding once carried these into the sign, or cut them to ±inf
        words = np.array([[0x7FFFFFFF, 0xFFFFFFFF, 0x7F800001, 0xFF800001]], dtype=np.uint32)
        m = s.DenseMatrix.from_values(words.view(np.float32), fmt)
        _, back = roundtrip(tmp_path, s.TensorArchive().add("w", m))
        for got in (m.data, back["w"].data):
            assert np.isnan(got).all() and np.signbit(got).tolist() == [[False, True, False, True]]

    def test_sparse_fp16_16x32_bit_exact(self, tmp_path, rng):
        sp = s.compress(random_conforming(rng, 16, 32, s.FP16), s.PATTERN_24)
        _, back = roundtrip(tmp_path, s.TensorArchive().add("w", sp))
        got = back["w"]
        assert np.array_equal(got.values, sp.values)
        assert np.array_equal(got.meta, sp.meta)
        assert got.pattern == sp.pattern and got.cols_orig == sp.cols_orig

    def test_write_read_write_is_byte_identical(self, tmp_path, rng):
        arch = s.TensorArchive()
        arch.add("d", random_dense(rng, 4, 8, s.BF16))
        arch.add("sp", s.compress(random_conforming(rng, 4, 8, s.INT8), s.PATTERN_24))
        arch.add("m", s.Mask(rng.random((4, 9)) < 0.5))
        arch.add("s", s.ScaleSet(s.Granularity.PER_ROW, rng.random(4) + 0.1))
        arch.add("t", s.ScaleSet(s.Granularity.PER_TENSOR, rng.random(1) + 0.1))
        p1 = tmp_path / "a.s24t"
        p2 = tmp_path / "b.s24t"
        s.write_archive(arch, p1)
        s.write_archive(s.read_archive(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_mask_and_scales(self, tmp_path, rng):
        bits = rng.random((7, 13)) < 0.4
        scales = rng.random(7) + 0.01
        arch = s.TensorArchive().add("m", s.Mask(bits)).add("s", s.ScaleSet(s.Granularity.PER_ROW, scales))
        _, back = roundtrip(tmp_path, arch)
        assert np.array_equal(back["m"].bits, bits)
        assert np.array_equal(back["s"].scales, scales)
        assert back["s"].granularity is s.Granularity.PER_ROW


class TestRewrite:
    """write_archive rewrites an existing file in place and then cuts it to
    length, where ``open(path, "wb")`` truncated it on open."""

    def _pair(self, rng):
        short = s.TensorArchive().add("w", random_dense(rng, 2, 2, s.FP32))
        long = four_entry_archive(rng)
        return short, long

    @pytest.mark.parametrize("order", ["short_over_long", "long_over_short"])
    def test_rewrite_leaves_the_bytes_of_a_fresh_path(self, tmp_path, rng, order):
        short, long = self._pair(rng)
        first, second = (long, short) if order == "short_over_long" else (short, long)
        path, fresh = tmp_path / "a.s24t", tmp_path / "fresh.s24t"
        s.write_archive(first, path)
        s.write_archive(second, path)
        s.write_archive(second, fresh)
        assert path.read_bytes() == fresh.read_bytes()
        assert path.stat().st_size == fresh.stat().st_size

    @pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
    def test_new_file_mode_is_0o666_less_the_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            s.write_archive(s.TensorArchive(), tmp_path / "m.s24t")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "m.s24t").stat().st_mode) == 0o640

    def test_devnull_is_written_without_a_cut(self, rng):
        # a character device cannot be ftruncate'd (EINVAL), so it is not tried
        s.write_archive(self._pair(rng)[1], os.devnull)

    @pytest.mark.parametrize(
        "where, error",
        [(lambda d: d / "missing" / "a.s24t", FileNotFoundError), (lambda d: d, IsADirectoryError)],
        ids=["missing_parent", "directory"],
    )
    def test_unopenable_path_raises_what_open_wb_raises(self, tmp_path, where, error):
        path = where(tmp_path)
        with pytest.raises(OSError) as before:
            open(path, "wb")
        with pytest.raises(OSError) as now:
            s.write_archive(s.TensorArchive(), path)
        assert type(now.value) is type(before.value) is error

    def test_path_is_not_opened_with_o_trunc(self, tmp_path, monkeypatch):
        flags, real_open = [], os.open
        monkeypatch.setattr(os, "open", lambda path, f, *a, **k: flags.append(f) or real_open(path, f, *a, **k))
        s.write_archive(s.TensorArchive(), tmp_path / "t.s24t")
        assert len(flags) == 1 and not flags[0] & os.O_TRUNC
        assert flags[0] & os.O_CREAT and flags[0] & os.O_WRONLY

    @pytest.mark.parametrize(
        "write_fails, cut_to_0_fails, first_error",
        [(True, False, errno.ENOSPC), (False, False, errno.EIO), (True, True, errno.ENOSPC)],
        ids=["write", "cut", "write_and_cut_to_0"],
    )
    def test_failed_write_leaves_no_old_tail(
        self, tmp_path, rng, monkeypatch, write_fails, cut_to_0_fails, first_error
    ):
        # a short archive over a long one: without the cut to 0, its bytes
        # would be followed by the long one's tail
        short, long = self._pair(rng)
        path = tmp_path / "a.s24t"
        s.write_archive(long, path)
        real_write, real_ftruncate, writes = os.write, os.ftruncate, []

        def write(fd, data):  # with write_fails: half of the bytes, then the disk is full
            writes.append(len(data))
            if not write_fails:
                return real_write(fd, data)
            if len(writes) > 1:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_write(fd, data[: len(data) // 2])

        def ftruncate(fd, length):  # the cut to length always fails
            if length:
                raise OSError(errno.EIO, "cut failed")
            if cut_to_0_fails:
                raise OSError(errno.EROFS, "cut to 0 failed")
            real_ftruncate(fd, 0)

        monkeypatch.setattr(os, "write", write)
        monkeypatch.setattr(os, "ftruncate", ftruncate)
        with pytest.raises(OSError) as exc:
            s.write_archive(short, path)
        monkeypatch.undo()
        assert exc.value.errno == first_error
        if not cut_to_0_fails:
            assert path.stat().st_size == 0
            with pytest.raises(s.ArchiveError):
                s.read_archive(path)


def pack_bit_fields_loop(rows, bits_per_field):
    """Scalar oracle: one Python integer per row, fields OR-ed in LSB first."""
    out = bytearray()
    for row in rows:
        acc = pos = 0
        for v in row:
            acc |= int(v) << pos
            pos += bits_per_field
        out += acc.to_bytes((pos + 7) // 8, "little")
    return bytes(out)


def unpack_bit_fields_loop(raw, n_rows, per_row, bits_per_field):
    row_bytes = (per_row * bits_per_field + 7) // 8
    out = np.empty((n_rows, per_row), dtype=np.uint8)
    for r in range(n_rows):
        acc = int.from_bytes(raw[r * row_bytes : (r + 1) * row_bytes], "little")
        for j in range(per_row):
            out[r, j] = (acc >> (j * bits_per_field)) & ((1 << bits_per_field) - 1)
    return out


class TestBitFields:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 7), (3, 0), (1, 1), (2, 7), (5, 39)])
    def test_matches_scalar_loops(self, rng, bits, shape):
        fields = rng.integers(0, 1 << bits, size=shape).astype(np.uint8)
        raw = pack_bit_fields(fields, bits)
        assert raw == pack_bit_fields_loop(fields, bits)
        back = unpack_bit_fields(raw, *shape, bits)
        expected = unpack_bit_fields_loop(raw, *shape, bits)
        assert back.dtype == expected.dtype and np.array_equal(back, expected)
        assert np.array_equal(back, fields)

    @pytest.mark.parametrize("bad", [4, 256, -1])
    def test_field_wider_than_its_bits_rejected(self, bad):
        with pytest.raises(s.InvariantError):
            pack_bit_fields(np.array([[0, bad]]), 2)

    def test_format_doc_hex_dump(self, tmp_path):
        doc = FORMAT_DOC.read_text()
        dump = doc.split("## Worked hex dump", 1)[1].split("```", 2)[1]
        expected = bytes.fromhex(
            "".join(re.findall(r"^[0-9a-f]{8}  ([0-9a-f ]+?)  \|", dump, flags=re.M))
        )
        assert len(expected) == 43
        m = s.DenseMatrix.from_values(np.array([[5, 0, 0, -6, 0, 1, 2, 0]], dtype=np.float32), s.FP16)
        path = tmp_path / "demo.s24t"
        s.write_archive(s.TensorArchive().add("w", s.compress(m, s.PATTERN_24)), path)
        assert path.read_bytes() == expected


def four_entry_archive(rng):
    arch = s.TensorArchive()
    arch.add("d", random_dense(rng, 4, 8, s.BF16))
    arch.add("sp", s.compress(random_conforming(rng, 4, 8, s.FP16), s.PATTERN_24))
    arch.add("m", s.Mask(rng.random((4, 9)) < 0.5))
    arch.add("s", s.ScaleSet(s.Granularity.PER_ROW, rng.random(4) + 0.1))
    return arch


class TestErrors:
    def _base(self, tmp_path, rng):
        path = tmp_path / "x.s24t"
        s.write_archive(s.TensorArchive().add("w", random_dense(rng, 4, 8, s.FP16)), path)
        return path, bytearray(path.read_bytes())

    def test_bad_magic(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        raw[:4] = b"NOPE"
        path.write_bytes(raw)
        with pytest.raises(s.BadMagicError):
            s.read_archive(path)

    def test_version_mismatch(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(raw)
        with pytest.raises(s.VersionMismatchError):
            s.read_archive(path)

    def test_truncation(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        path.write_bytes(raw[:-5])
        with pytest.raises(s.TruncatedError):
            s.read_archive(path)

    def test_invariant_violation_bad_meta(self, tmp_path, rng):
        sp = s.compress(random_conforming(rng, 1, 4, s.INT8), s.PATTERN_24)
        path = tmp_path / "bad.s24t"
        s.write_archive(s.TensorArchive().add("w", sp), path)
        # the write validates, so the bad metadata goes into the file's last
        # byte, the entry's one metadata row
        raw = path.read_bytes()[:-1] + pack_bit_fields(np.array([[3, 1]]), 2)  # not increasing
        path.write_bytes(raw)
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    @pytest.mark.parametrize(
        "meta",
        [np.array([[0.0, 1.5]]), np.array([[0, 1, 2]], dtype=np.uint8)],
        ids=["float_meta", "meta_wider_than_values"],
    )
    def test_malformed_metadata_rejected_on_write(self, tmp_path, meta):
        entry = s.SparseNM(4, s.PATTERN_24, np.array([[1.0, 2.0]], dtype=np.float32), meta, s.FP32)
        path = tmp_path / "m.s24t"
        with pytest.raises(s.MetadataError):
            s.write_archive(s.TensorArchive().add("w", entry), path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.inf, 0.0, np.nan], ids=["inf", "zero", "nan"])
    def test_invariant_violation_bad_scale(self, tmp_path, bad):
        path = tmp_path / "scales.s24t"
        scales = s.ScaleSet(s.Granularity.PER_ROW, np.array([0.25, 0.5]))
        s.write_archive(s.TensorArchive().add("s", scales), path)
        raw = path.read_bytes()
        assert raw.count(struct.pack("<d", 0.5)) == 1
        path.write_bytes(raw.replace(struct.pack("<d", 0.5), struct.pack("<d", bad)))
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    def test_nonzero_meta_padding_rejected(self, tmp_path, rng):
        # one row of 2:4 over 4 columns: two 2-bit fields, then 4 padding bits
        sp = s.compress(random_conforming(rng, 1, 4, s.FP16), s.PATTERN_24)
        path = tmp_path / "pad.s24t"
        s.write_archive(s.TensorArchive().add("w", sp), path)
        raw = bytearray(path.read_bytes())
        raw[-1] |= 0x80
        path.write_bytes(raw)
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    def test_nonzero_mask_padding_rejected(self, tmp_path):
        path = tmp_path / "pad.s24t"
        s.write_archive(s.TensorArchive().add("m", s.Mask(np.ones((1, 3), dtype=bool))), path)
        raw = bytearray(path.read_bytes())
        assert raw[-1] == 0b111
        raw[-1] |= 0b1000
        path.write_bytes(raw)
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        path.write_bytes(raw + b"\x00")
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    def test_invalid_utf8_name(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        assert raw[12:13] == b"w"
        raw[12] = 0xFF
        path.write_bytes(raw)
        with pytest.raises(s.InvariantError):
            s.read_archive(path)

    @pytest.mark.parametrize(
        "entry, width",
        [
            (s.ScaleSet(s.Granularity.PER_TENSOR, np.array([0.5])), 8),
            (s.DenseMatrix.from_values(np.array([[1.0]], dtype=np.float32), s.FP16), 2),
        ],
    )
    def test_payload_not_whole_elements(self, tmp_path, entry, width):
        # shorten the one-element payload by a byte and say so in payload_len
        path = tmp_path / "short.s24t"
        s.write_archive(s.TensorArchive().add("x", entry), path)
        raw = path.read_bytes()
        head = raw[: -width - 8]
        path.write_bytes(head + struct.pack("<Q", width - 1) + raw[-width:-1])
        with pytest.raises(s.TruncatedError):
            s.read_archive(path)

    @pytest.mark.parametrize(
        "entry, offset, value, error",
        [
            ("dense", 13, b"\x09", s.InvariantError),
            ("dense", 14, b"\x09", s.InvariantError),
            ("dense", 15, b"\x09", s.InvariantError),
            ("scales", 14, b"\x09", s.InvariantError),
            ("scales", 14, b"\x01", s.InvariantError),
            ("scales", 14, b"\x00", s.InvariantError),
            ("dense", 14, b"\x04\x00", s.InvariantError),
            ("sparse", 24, b"\x04", s.InvariantError),
            ("sparse", 20, struct.pack("<I", 6), s.InvariantError),
            ("scales", 15, struct.pack("<I", 3), s.TruncatedError),
        ],
        ids=[
            "unknown_kind",
            "unknown_elem",
            "unknown_acc",
            "unknown_granularity",
            "retired_granularity",
            "per_tensor_count_2",
            "int8_with_fp32_acc",
            "n_not_below_m",
            "m_not_dividing_cols",
            "scale_count_disagrees",
        ],
    )
    def test_corrupt_header_field(self, tmp_path, entry, offset, value, error):
        # entry "w" has its kind byte at offset 13 and its header fields from 14
        conforming = s.DenseMatrix.from_values(np.tile([1.0, 0.0, 2.0, 0.0], (2, 2)), s.FP16)
        entries = {
            "dense": conforming,
            "sparse": s.compress(conforming, s.PATTERN_24),
            "scales": s.ScaleSet(s.Granularity.PER_ROW, np.array([0.25, 0.5])),
        }
        path = tmp_path / "h.s24t"
        s.write_archive(s.TensorArchive().add("w", entries[entry]), path)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(value)] = value
        path.write_bytes(raw)
        with pytest.raises(error):
            s.read_archive(path)

    def test_name_too_long_for_u16(self, tmp_path, rng):
        arch = s.TensorArchive().add("x" * 65_536, random_dense(rng, 1, 1, s.FP32))
        with pytest.raises(s.InvariantError):
            s.write_archive(arch, tmp_path / "long.s24t")

    @pytest.mark.parametrize(
        "name, entry",
        [
            ("x" * 70_000, s.DenseMatrix.from_values(np.zeros((1, 1)), s.FP32)),
            ("odd", object()),
        ],
        ids=["name_too_long", "unsupported_type"],
    )
    def test_rejected_entry_leaves_existing_file_intact(self, tmp_path, rng, name, entry):
        path, raw = self._base(tmp_path, rng)
        arch = s.TensorArchive().add("w", random_dense(rng, 2, 2, s.FP32)).add(name, entry)
        with pytest.raises(s.InvariantError):
            s.write_archive(arch, path)
        assert path.read_bytes() == raw

    def test_name_not_encodable_as_utf8(self, tmp_path, rng):
        path, raw = self._base(tmp_path, rng)
        arch = s.TensorArchive().add("\ud800", random_dense(rng, 1, 1, s.FP32))
        with pytest.raises(s.InvariantError):
            s.write_archive(arch, path)
        assert path.read_bytes() == raw

    def test_duplicate_entry_name_rejected(self, tmp_path, rng):
        # two one-entry archives named "w", joined under one 2-entry header
        path, first = self._base(tmp_path, rng)
        _, second = self._base(tmp_path, rng)
        path.write_bytes(first[:6] + struct.pack("<I", 2) + first[10:] + second[10:])
        with pytest.raises(s.InvariantError, match="duplicate"):
            s.read_archive(path)

    @pytest.mark.parametrize(
        "values, fmt",
        [
            (np.array([[200, -300]], dtype=np.int32), s.INT8),
            (np.array([[1.0, 1 + 2.0**-20]], dtype=np.float32), s.BF16),
            (np.array([[1.0, 1 + 2.0**-20]], dtype=np.float32), s.FP16),
            (np.array([[1.0, 1 + 2.0**-12]], dtype=np.float32), s.FP16),
            (np.array([[1.0, 2.0**-26]], dtype=np.float32), s.FP16),  # below half the least subnormal
            (np.array([[1.0, 70000.0]], dtype=np.float32), s.FP16),  # beyond 65 504
            # a NaN whose payload lies only in the bits the type drops
            (np.array([[0x3F800000, 0x7F800001]], dtype=np.uint32).view(np.float32), s.BF16),
            (np.array([[0x3F800000, 0x7F800001]], dtype=np.uint32).view(np.float32), s.TF32),
        ],
        ids=["int8", "bf16", "fp16", "fp16-1+2^-12", "fp16-2^-26", "fp16-70000", "bf16-nan", "tf32-nan"],
    )
    def test_value_its_type_cannot_hold_rejected_on_write(self, tmp_path, values, fmt):
        # built directly, not through from_values, so nothing rounded them
        path = tmp_path / "v.s24t"
        sparse = s.SparseNM(4, s.PATTERN_24, values, np.array([[0, 1]], np.uint8), fmt)
        for entry in (s.DenseMatrix(values, fmt), sparse):
            with pytest.raises(s.InvariantError, match="would not read back"):
                s.write_archive(s.TensorArchive().add("w", entry), path)
            assert not path.exists()

    def test_tf32_value_below_its_mantissa_rejected(self, tmp_path, rng):
        path = tmp_path / "t.s24t"
        good = random_dense(rng, 2, 4, s.TF32)
        s.write_archive(s.TensorArchive().add("w", good), path)
        raw = bytearray(path.read_bytes())
        raw[-4] |= 1  # lowest mantissa bit of the last fp32 word
        path.write_bytes(raw)
        with pytest.raises(s.InvariantError, match="TF32"):
            s.read_archive(path)
        bad = good.data.copy()
        bad.view(np.uint32)[0, 0] |= 1
        with pytest.raises(s.InvariantError, match="would not read back"):
            s.write_archive(s.TensorArchive().add("w", s.DenseMatrix(bad, s.TF32)), path)
        assert path.read_bytes() == raw

    def test_error_codes_distinct(self):
        codes = {
            s.BadMagicError.code,
            s.VersionMismatchError.code,
            s.TruncatedError.code,
            s.InvariantError.code,
        }
        assert len(codes) == 4


@pytest.fixture(scope="module")
def valid_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "a.s24t"
    s.write_archive(four_entry_archive(np.random.default_rng(5)), path)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_archive_reads_or_raises_archive_error(valid_archive, data):
    path, valid = valid_archive
    raw = bytearray(valid)
    kind = data.draw(st.sampled_from(["flip", "cut", "extend"]))
    if kind == "flip":
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
    elif kind == "cut":
        del raw[data.draw(st.integers(0, len(raw) - 1)) :]
    else:
        raw += data.draw(st.binary(min_size=1, max_size=16))
    path.write_bytes(raw)
    try:
        s.read_archive(path)
    except s.ArchiveError:
        pass
