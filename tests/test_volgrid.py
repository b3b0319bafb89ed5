import gzip

import numpy as np
import pytest

from conftest import build_nifti1_bytes, make_mask
from volkit.volgrid import (
    BinaryMask,
    NiftiError,
    VolumeGrid,
    binarize,
    is_binary,
    load_nifti,
    mask_volume_ml,
    write_nifti,
)

DTYPES = ["uint8", "int16", "float32", "float64"]


def random_grid(rng, dtype, dims=None, spacing=None):
    if dims is None:
        dims = tuple(int(d) for d in rng.integers(1, 7, size=3))
    if spacing is None:
        # header pixdim is float32: keep spacings representable for bit-exact trips
        spacing = tuple(float(np.float32(s)) for s in rng.uniform(0.3, 4.0, size=3))
    if dtype == "uint8":
        data = rng.integers(0, 256, size=dims).astype(np.uint8)
    elif dtype == "int16":
        data = rng.integers(-30000, 30000, size=dims).astype(np.int16)
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
            VolumeGrid(data=np.zeros((2, 2, 2), dtype=np.int64), spacing=(1, 1, 1))

    def test_binary_mask_rejects_other_values(self):
        with pytest.raises(ValueError):
            BinaryMask(VolumeGrid(data=np.full((2, 2, 2), 2, dtype=np.uint8), spacing=(1, 1, 1)))

    def test_binary_mask_rejects_negative_and_nan(self):
        for data in (np.array([[[0, -1]]], dtype=np.int16), np.array([[[0.0, np.nan]]])):
            with pytest.raises(ValueError):
                BinaryMask(VolumeGrid(data=data, spacing=(1, 1, 1)))


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
        rng = np.random.default_rng(hash(dtype) % 2**32)
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

    def test_uint8_header_constants(self, tmp_path):
        g = VolumeGrid(data=np.ones((2, 2, 2), dtype=np.uint8), spacing=(1, 1, 1))
        path = tmp_path / "mask.nii"
        write_nifti(g, path)
        raw = path.read_bytes()
        import struct

        datatype, bitpix = struct.unpack_from("<2h", raw, 70)
        assert (datatype, bitpix) == (2, 8)
        assert raw[344:348] == b"n+1\x00"

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
        assert g.dtype_tag == "int16"
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
        import struct

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


class TestNiftiErrors:
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

    def test_unsupported_datatype(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        import struct

        struct.pack_into("<h", raw, 70, 8)  # int32: not supported
        path = tmp_path / "baddt.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="datatype"):
            load_nifti(path)

    def test_nonsingleton_4d_rejected(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        import struct

        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 5, 1, 1, 1)
        path = tmp_path / "4d.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="dim"):
            load_nifti(path)

    @pytest.mark.parametrize("vox_offset", [0.0, 348.0, 351.0])
    def test_vox_offset_inside_header_rejected(self, tmp_path, vox_offset):
        # with vox_offset 0 the header bytes would be read as voxels (first voxel = 92)
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        import struct

        struct.pack_into("<f", raw, 108, vox_offset)
        path = tmp_path / "offset.nii"
        path.write_bytes(bytes(raw))
        with pytest.raises(NiftiError, match="vox_offset"):
            load_nifti(path)

    def test_singleton_4d_accepted(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.zeros((2, 2, 2), dtype=np.uint8), (1, 1, 1)))
        import struct

        struct.pack_into("<8h", raw, 40, 4, 2, 2, 2, 1, 1, 1, 1)
        path = tmp_path / "4d1.nii"
        path.write_bytes(bytes(raw))
        assert load_nifti(path).dims == (2, 2, 2)

    def test_scl_slope_applied(self, tmp_path):
        raw = bytearray(build_nifti1_bytes(np.array([[[2]], [[4]]], dtype=np.int16), (1, 1, 1)))
        import struct

        struct.pack_into("<2f", raw, 112, 0.5, 10.0)
        path = tmp_path / "scl.nii"
        path.write_bytes(bytes(raw))
        g = load_nifti(path)
        assert g.dtype_tag == "float64"
        assert np.allclose(g.data.ravel(), [11.0, 12.0])


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


class TestIsBinary:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_zero_one_accepted(self, dtype):
        assert is_binary(np.array([[[0, 1, 1, 0]]], dtype=dtype))
        assert is_binary(np.zeros((2, 2, 2), dtype=dtype))
        assert is_binary(np.ones((2, 2, 2), dtype=dtype))

    @pytest.mark.parametrize("value", [-1, 2])
    def test_int16_out_of_range_rejected(self, value):
        assert not is_binary(np.array([[[0, 1, value]]], dtype=np.int16))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("value,expected", [(0.5, False), (np.nan, False), (-0.0, True)])
    def test_float_values(self, dtype, value, expected):
        assert is_binary(np.array([[[0, 1, value]]], dtype=dtype)) is expected


class TestMaskVolume:
    def test_empty(self):
        assert mask_volume_ml(make_mask(np.zeros((3, 3, 3)))) == 0.0

    def test_unit_conversion(self):
        m = make_mask(np.ones((10, 10, 10)))
        assert mask_volume_ml(m) == pytest.approx(1.0)

    def test_anisotropic(self):
        data = np.zeros((2, 2, 2))
        data[:, :, :] = 1  # 8 voxels
        m = make_mask(data, spacing=(2.0, 2.0, 2.5))
        assert mask_volume_ml(m) == pytest.approx(0.08)

    def test_additive_and_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, size=(4, 4, 4))
        b = rng.integers(0, 2, size=(4, 4, 4)) & ~a
        total = mask_volume_ml(make_mask(a | b))
        assert total == pytest.approx(mask_volume_ml(make_mask(a)) + mask_volume_ml(make_mask(b)))
        assert mask_volume_ml(make_mask(a, spacing=(2, 1, 1))) == pytest.approx(
            2 * mask_volume_ml(make_mask(a))
        )
