import gzip
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from conftest import build_nifti1_bytes, hostile_nifti_bytes, make_mask
from volkit.volgrid import (
    BinaryMask,
    NiftiError,
    VolumeGrid,
    binarize,
    is_binary,
    load_nifti,
    write_nifti,
)

DTYPES = ["uint8", "int16", "float32", "float64", "int8", "uint16", "int32", "uint32", "int64", "uint64"]


def random_grid(rng, dtype, dims=None, spacing=None):
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
    if spacing is None:
        # header pixdim is float32: keep spacings representable for bit-exact trips
        spacing = tuple(float(np.float32(s)) for s in rng.uniform(0.3, 4.0, size=3))
    if np.dtype(dtype).kind in "iu":
        info = np.iinfo(dtype)
        data = rng.integers(info.min, info.max, size=dims, dtype=dtype, endpoint=True)
    else:
        data = rng.standard_normal(dims).astype(dtype)
    return VolumeGrid(data=data, spacing=spacing)


class TestVolumeGrid:
    def test_invariants(self):
        with pytest.raises(ValueError):
            VolumeGrid(data=np.zeros((2, 2), dtype=np.uint8), spacing=(1, 1, 1))
        with pytest.raises(ValueError):
            VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1, 0, 1))
        with pytest.raises(ValueError):
            VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1, np.inf, 1))
        with pytest.raises(ValueError):
            VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.complex64), spacing=(1, 1, 1))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 2), (2, 2, 0)])
    def test_zero_length_axis_rejected(self, shape):
        with pytest.raises(ValueError, match="non-positive dims"):
            VolumeGrid(data=np.zeros(shape, dtype=np.uint8), spacing=(1, 1, 1))

    def test_equality_with_a_non_grid_is_false(self):
        grid = VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.uint8), spacing=(1, 1, 1))
        assert grid.__eq__(3) is NotImplemented
        assert not grid == 3
        assert grid != 3

    def test_binary_mask_rejects_other_values(self):
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            BinaryMask(np.full((2, 2, 2), 2, dtype=np.uint8), (1, 1, 1))

    def test_binary_mask_rejects_negative_and_nan(self):
        for data in (np.array([[[0, -1]]], dtype=np.int16), np.array([[[0.0, np.nan]]])):
            with pytest.raises(ValueError):
                BinaryMask(data, (1, 1, 1))

    def test_binary_mask_is_a_volume_grid(self):
        assert issubclass(BinaryMask, VolumeGrid)
        mask = make_mask([[[0, 1]]], spacing=(0.5, 1, 2))
        assert mask == VolumeGrid(data=np.array([[[0, 1]]], dtype=np.uint8), spacing=(0.5, 1.0, 2.0))

    @pytest.mark.parametrize("data,spacing,match", [
        (np.zeros((2, 2), dtype=np.uint8), (1, 1, 1), "3D"),
        (np.zeros((2, 2, 2), dtype=np.uint8), (1, 0, 1), "spacing"),
        (np.zeros((2, 2, 2), dtype=np.bool_), (1, 1, 1), "dtype"),
    ])
    def test_binary_mask_keeps_volume_grid_checks(self, data, spacing, match):
        with pytest.raises(ValueError, match=match):
            BinaryMask(data, spacing)

    def test_binary_mask_round_trips_bit_for_bit(self, tmp_path):
        mask = make_mask(np.random.default_rng(3).random((5, 4, 3)) < 0.5, spacing=(0.75, 1.25, 2.5))
        path = tmp_path / "mask.nii"
        write_nifti(mask, path)
        loaded = load_nifti(path)
        assert loaded == mask
        assert loaded.data.tobytes() == mask.data.tobytes()
        write_nifti(loaded, tmp_path / "again.nii")
        assert (tmp_path / "again.nii").read_bytes() == path.read_bytes()


class TestNiftiRoundTrip:
    def test_zero_volume(self, tmp_path):
        raw = build_nifti1_bytes(np.zeros((3, 3, 3), dtype=np.uint8), (1.0, 1.0, 1.0))
        path = tmp_path / "zeros.nii"
        path.write_bytes(raw)
        g = load_nifti(path)
        assert g.dims == (3, 3, 3)
        assert g.spacing == (1.0, 1.0, 1.0)
        assert (g.data == 0).all()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_round_trip_identity(self, tmp_path, dtype):
        rng = np.random.default_rng(zlib.crc32(dtype.encode()))  # str hash() is salted per process
        for i in range(10):
            g = random_grid(rng, dtype)
            path = tmp_path / f"{dtype}_{i}.nii"
            write_nifti(g, path)
            assert load_nifti(path) == g

    def test_single_voxel_file_length(self, tmp_path):
        g = VolumeGrid(data=np.array([[[0.5]]], dtype=np.float32), spacing=(1, 1, 1))
        path = tmp_path / "one.nii"
        write_nifti(g, path)
        assert path.stat().st_size == 352 + 4

    def test_write_holds_one_payload_copy(self, tmp_path):
        # a C-ordered grid: tobytes(order="F") lays it out x-fastest with no Fortran copy first
        g = VolumeGrid(data=np.arange(128 * 128 * 72, dtype=np.uint8).reshape(128, 128, 72), spacing=(1, 1, 1))
        path = tmp_path / "big.nii"
        tracemalloc.start()
        try:
            write_nifti(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * g.data.nbytes
        assert load_nifti(path) == g

    def test_uint8_header_constants(self, tmp_path):
        g = VolumeGrid(data=np.ones((2, 2, 2), dtype=np.uint8), spacing=(1, 1, 1))
        path = tmp_path / "mask.nii"
        write_nifti(g, path)
        raw = path.read_bytes()
        datatype, bitpix = struct.unpack_from("<2h", raw, 70)
        assert (datatype, bitpix) == (2, 8)
        assert raw[123] == 0  # xyzt_units: unknown, read back as mm
        assert raw[344:348] == b"n+1\x00"

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bitpix_is_the_dtype_width(self, tmp_path, dtype):
        path = tmp_path / "v.nii"
        write_nifti(VolumeGrid(data=np.zeros((1, 1, 1), dtype=dtype), spacing=(1, 1, 1)), path)
        assert struct.unpack_from("<h", path.read_bytes(), 72)[0] == np.dtype(dtype).itemsize * 8

    def test_gzip_read(self, tmp_path):
        rng = np.random.default_rng(7)
        g = random_grid(rng, "int16")
        raw = build_nifti1_bytes(g.data, g.spacing)
        path = tmp_path / "vol.nii.gz"
        path.write_bytes(gzip.compress(raw))
        loaded = load_nifti(path)
        assert np.array_equal(loaded.data, g.data)


class TestThirdPartyFixture:
    """Checkerboard 4x4x2 int16 file assembled byte-by-byte from the format
    layout, written big-endian to exercise endianness detection."""

    def checkerboard(self):
        x, y, z = np.indices((4, 4, 2))
        return (((x + y + z) % 2) * 1000 - 500).astype(np.int16)

    def test_exact_voxels(self, tmp_path):
        expected = self.checkerboard()
        raw = build_nifti1_bytes(expected, (0.5, 2.0, 3.0), byte_order=">")
        path = tmp_path / "checker_be.nii"
        path.write_bytes(raw)
        g = load_nifti(path)
        assert g.dims == (4, 4, 2)
        assert g.spacing == (0.5, 2.0, 3.0)
        assert g.data.dtype.name == "int16"
        assert np.array_equal(g.data, expected)

    def test_negative_pixdim_taken_absolute(self, tmp_path):
        raw = build_nifti1_bytes(self.checkerboard(), (-0.5, 2.0, -3.0))
        path = tmp_path / "negpix.nii"
        path.write_bytes(raw)
        assert load_nifti(path).spacing == (0.5, 2.0, 3.0)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("byte_order", ["<", ">"])
    @pytest.mark.parametrize("vox_offset", [352, 353, 358])
    def test_payload_read_equal_and_read_only(self, tmp_path, dtype, byte_order, vox_offset):
        data = random_grid(np.random.default_rng(8), dtype, dims=(5, 4, 3)).data
        raw = build_nifti1_bytes(data, (1, 1, 1), byte_order=byte_order)
        header = bytearray(raw[:348])
        struct.pack_into(byte_order + "f", header, 108, float(vox_offset))
        path = tmp_path / "v.nii"
        path.write_bytes(bytes(header) + b"\x00" * (vox_offset - 348) + raw[352:])
        got = load_nifti(path).data
        assert got.dtype == data.dtype and got.dtype.isnative
        assert np.array_equal(got, data)
        assert got.flags.aligned and not got.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0, 0] = 0
        if np.dtype(byte_order + data.dtype.str[1:]).isnative and vox_offset % data.dtype.itemsize == 0:
            assert not got.flags.owndata  # a view of the file's bytes, not a copy


class TestSpatialUnits:
    """pixdim 1-3 are read in the unit that xyzt_units' spatial bits name, and returned in mm."""

    @staticmethod
    def load(tmp_path, pixdim, units, byte_order):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), pixdim, byte_order=byte_order))
        raw[123] = units  # one byte: no byte order
        path = tmp_path / "units.nii"
        path.write_bytes(bytes(raw))
        return load_nifti(path)

    @pytest.mark.parametrize("byte_order", ["<", ">"])
    @pytest.mark.parametrize("units,pixdim,spacing", [
        (0, (0.5, 2.0, 3.0), (0.5, 2.0, 3.0)),  # unknown: read as mm
        (2, (0.5, 2.0, 3.0), (0.5, 2.0, 3.0)),  # mm
        (3, (500.0, 2000.0, 3000.0), (0.5, 2.0, 3.0)),  # micron
        (1, (0.5, 2.0, 3.0), (500.0, 2000.0, 3000.0)),  # meter
        (3 | 16, (500.0, 2000.0, 3000.0), (0.5, 2.0, 3.0)),  # micron, time in ms: time bits ignored
        (2 | 8, (0.5, 2.0, 3.0), (0.5, 2.0, 3.0)),  # mm, time in s
    ])
    def test_spacing_is_in_mm(self, tmp_path, byte_order, units, pixdim, spacing):
        assert self.load(tmp_path, pixdim, units, byte_order).spacing == spacing

    @pytest.mark.parametrize("byte_order", ["<", ">"])
    @pytest.mark.parametrize("units", [4, 5, 6, 7, 5 | 8])
    def test_unknown_spatial_code_is_nifti_error(self, tmp_path, byte_order, units):
        with pytest.raises(NiftiError, match=f"spatial units code {units & 7}"):
            self.load(tmp_path, (1.0, 1.0, 1.0), units, byte_order)


class TestNiftiErrors:
    def test_nifti_error_is_a_value_error(self):
        # a malformed file is bad input data, as json.JSONDecodeError is
        assert issubclass(NiftiError, ValueError)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.nii"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(NiftiError):
            load_nifti(path)

    def test_truncated_payload(self, tmp_path):
        raw = build_nifti1_bytes(np.zeros((4, 4, 4), dtype=np.float64), (1, 1, 1))
        path = tmp_path / "trunc.nii"
        path.write_bytes(raw[:-16])
        with pytest.raises(NiftiError, match="truncated"):
            load_nifti(path)

    def test_bad_magic(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        raw[344:348] = b"ni1\x00"
        path = tmp_path / "badmagic.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="magic"):
            load_nifti(path)

    @pytest.mark.parametrize("dim0", [0, 8, -1, 0x0808])
    def test_dim0_outside_1_to_7_in_both_byte_orders(self, tmp_path, dim0):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<h", raw, 40, dim0)
        path = tmp_path / "order.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="cannot determine byte order"):
            load_nifti(path)

    def test_unsupported_datatype(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<h", raw, 70, 32)  # complex64: not supported
        path = tmp_path / "baddt.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="datatype"):
            load_nifti(path)

    @pytest.mark.parametrize("dim4", [5, 0, -1])  # NIfTI-1 needs dim[1..dim[0]] positive
    def test_nonsingleton_4d_rejected(self, tmp_path, dim4):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, dim4, 1, 1, 1)
        path = tmp_path / "4d.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match=rf"dim\[4\]={dim4};"):
            load_nifti(path)

    @pytest.mark.parametrize("vox_offset", [0.0, 348.0, 351.0])
    def test_vox_offset_inside_header_rejected(self, tmp_path, vox_offset):
        # with vox_offset 0 the header bytes would be read as voxels (first voxel = 92)
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<f", raw, 108, vox_offset)
        path = tmp_path / "offset.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="vox_offset"):
            load_nifti(path)

    def test_2d_image_rejected(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 1), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<h", raw, 40, 2)
        path = tmp_path / "2d.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="only 3D"):
            load_nifti(path)

    def test_singleton_4d_accepted(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 1, 1, 1, 1)
        path = tmp_path / "4d1.nii"
        path.write_bytes(bytes(raw))
        assert load_nifti(path).dims == (2, 2, 2)

    def test_scl_slope_applied(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.array([[[2]], [[4]]], dtype=np.int16), (1, 1, 1)))
        struct.pack_into("<2f", raw, 112, 0.5, 10.0)
        path = tmp_path / "scl.nii"
        path.write_bytes(bytes(raw))
        g = load_nifti(path)
        assert g.data.dtype.name == "float64"
        assert np.allclose(g.data.ravel(), [11.0, 12.0])

    @pytest.mark.parametrize("slope,inter,scale", [
        (np.nan, 0.0, None), (np.inf, 0.0, None), (-np.inf, 3.0, None), (np.nan, np.nan, None),
        (2.0, np.nan, 2.0), (2.0, -np.inf, 2.0),
    ])
    def test_non_finite_scl_field_reads_as_zero(self, tmp_path, slope, inter, scale):
        # as nifti1_io.c's FIXED_FLOAT; a slope of 0 means no scaling
        mask = np.zeros((4, 3, 2), dtype=np.uint8)
        mask[1:3, 1, :] = 1
        raw = bytearray(build_nifti1_bytes(mask, (1, 1, 1)))
        struct.pack_into("<2f", raw, 112, slope, inter)
        path = tmp_path / "scl.nii"
        path.write_bytes(bytes(raw))
        g = load_nifti(path)
        if scale is None:
            assert g == VolumeGrid(data=mask, spacing=(1, 1, 1))
        else:
            assert g.data.dtype.name == "float64"
            assert np.array_equal(g.data, mask * scale)


class TestHostileStreams:
    """Cut-off, corrupt and nonsensical files raise NiftiError; a valid stream that
    zlib has too little memory for raises MemoryError. The fuzzer over such files
    is test_cli.py's TestHostileInputsProperty: it reads each as a case of eval and agree."""

    @pytest.mark.parametrize("kind,match", [
        ("cut-gzip", "gzip"), ("corrupt-deflate", "gzip"),
        ("inf-vox-offset", "vox_offset"), ("nan-vox-offset", "vox_offset"),
    ])
    def test_hostile_file_is_nifti_error(self, tmp_path, kind, match):
        path = tmp_path / "hostile.nii.gz"
        path.write_bytes(hostile_nifti_bytes(kind, np.zeros((4, 3, 2), dtype=np.uint8)))
        with pytest.raises(NiftiError, match=match):
            load_nifti(path)

    def test_zlib_out_of_memory_is_memory_error(self, tmp_path, monkeypatch):
        path = tmp_path / "valid.nii.gz"
        path.write_bytes(gzip.compress(build_nifti1_bytes(np.ones((4, 3, 2), dtype=np.uint8), (1, 1, 1))))

        def out_of_memory(raw):
            raise zlib.error("Error -4 while decompressing data")

        monkeypatch.setattr(gzip, "decompress", out_of_memory)
        with pytest.raises(MemoryError, match="Error -4"):
            load_nifti(path)

    def test_huge_dims_fail_before_the_data_is_allocated(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.float64), (1, 1, 1)))
        struct.pack_into("<8h", raw, 40, 3, 32767, 32767, 32767, 1, 1, 1, 1)
        path = tmp_path / "huge.nii"
        path.write_bytes(bytes(raw))
        tracemalloc.start()
        try:
            with pytest.raises(NiftiError, match="truncated"):
                load_nifti(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestBinarize:
    def test_all_zero(self):
        g = VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.float32), spacing=(1, 1, 1))
        assert binarize(g, 0.5).foreground_count() == 0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mask_is_uint8_zero_one(self, dtype):
        data = np.arange(24).reshape(2, 3, 4).astype(dtype)
        mask = binarize(VolumeGrid(data=data, spacing=(1, 1, 1)), 11.5)
        assert mask.data.dtype == np.uint8 and not mask.data.flags.writeable
        assert mask.data.tolist() == (data > 11.5).astype(np.uint8).tolist()

    def test_idempotent_on_binary(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 2, size=(4, 4, 4)).astype(np.uint8)
        g = VolumeGrid(data=data, spacing=(1, 1, 1))
        assert np.array_equal(binarize(g, 0.5).data, data)

    def test_strict_greater_than(self):
        g = VolumeGrid(data=np.array([[[0.2, 0.6, 1.0]]], dtype=np.float64), spacing=(1, 1, 1))
        assert binarize(g, 0.5).data.ravel().tolist() == [0, 1, 1]
        assert binarize(g, 0.6).data.ravel().tolist() == [0, 0, 1]

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        g = VolumeGrid(data=rng.random((5, 5, 5)), spacing=(1, 1, 1))
        prev = binarize(g, 0.0).foreground_count()
        for thr in (0.25, 0.5, 0.75, 1.0):
            cur = binarize(g, thr).foreground_count()
            assert cur <= prev
            prev = cur

    def test_float32_compared_in_float64(self):
        # float32(0.1) lies above 0.1; a float32 comparison would drop it
        f32 = np.float32(0.1)
        data = np.random.default_rng(6).random((6, 7, 8)).astype(np.float32)
        data[0, 0, :3] = np.nextafter(f32, np.float32(0)), f32, np.nextafter(f32, np.float32(1))
        got = binarize(VolumeGrid(data=data, spacing=(1, 1, 1)), 0.1).data
        assert got[0, 0, :3].tolist() == [0, 1, 1]
        assert np.array_equal(got, (data.astype(np.float64) > 0.1).astype(np.uint8))


    @pytest.mark.parametrize("threshold", [np.nan, np.inf, -np.inf])
    def test_non_finite_threshold_rejected(self, threshold):
        g = VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.float32), spacing=(1, 1, 1))
        with pytest.raises(ValueError, match="threshold must be finite"):
            binarize(g, threshold)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_nan_voxels_rejected_with_their_count(self, dtype):
        data = np.full((4, 4, 4), 0.7, dtype=dtype)
        data[0, 1, 2] = data[3, 3, 3] = data[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match="3 NaN voxels"):
            binarize(VolumeGrid(data=data, spacing=(1, 1, 1)), 0.5)


class TestIsBinary:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_one_accepted(self, dtype):
        assert is_binary(np.array([[[0, 1, 1, 0]]], dtype=dtype))
        assert is_binary(np.zeros((2, 2, 2), dtype=dtype))
        assert is_binary(np.ones((2, 2, 2), dtype=dtype))

    @pytest.mark.parametrize("value", [-1, 2])
    def test_int16_out_of_range_rejected(self, value):
        assert not is_binary(np.array([[[0, 1, value]]], dtype=np.int16))

    @pytest.mark.parametrize("dtype,value,expected", [
        ("uint8", 1, True), ("uint8", 2, False), ("uint16", 300, False), ("bool", True, True)])
    def test_unsigned_and_bool_take_only_the_maximum(self, dtype, value, expected):
        class MaxOnly(np.ndarray):
            def min(self, *args, **kwargs):
                raise AssertionError("min() of data that cannot be negative")

        assert is_binary(np.array([[[0, 1, value]]], dtype=dtype).view(MaxOnly)) is expected

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("value,expected", [
        (0.5, False), (np.nan, False), (-0.0, True), (np.inf, False), (-np.inf, False)])
    def test_float_values(self, dtype, value, expected):
        assert is_binary(np.array([[[0, 1, value]]], dtype=dtype)) is expected

    @pytest.mark.parametrize("value", [0.0, 0.5])
    def test_float_check_holds_one_boolean_grid_at_a_time(self, value):
        data = np.ones((64, 64, 64), dtype=np.float32)
        data[-1, -1, -1] = value
        tracemalloc.start()
        try:
            assert is_binary(data) is (value == 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one bool per voxel, not the two (or three) that ``(a == 0) | (a == 1)`` holds
        assert peak <= 1.25 * data.size
