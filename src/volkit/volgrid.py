"""Dense 3D volumes, binary masks, and a minimal NIfTI-1 reader/writer.

Geometry is voxel-grid based: every grid carries physical voxel spacing in
millimeters but no orientation matrix. The reader uses the header's dims,
datatype, pixdim 1-3 in the spatial unit of xyzt_units (meter, mm or micron;
unknown reads as mm), vox_offset and scl_slope/scl_inter, and reads neither
qform nor sform. Orientation is not compared yet (ROADMAP item 6): a pair
stored in two orientations is scored voxel by voxel as though aligned.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

# NIfTI-1 datatype codes for the dtypes we support.
_DTYPE_TO_CODE = {
    "uint8": 2,
    "int16": 4,
    "int32": 8,
    "float32": 16,
    "float64": 64,
    "int8": 256,
    "uint16": 512,
    "uint32": 768,
    "int64": 1024,
    "uint64": 1280,
}
_CODE_TO_DTYPE = {code: name for name, code in _DTYPE_TO_CODE.items()}

# (factor, divisor) taking a length in each NIfTI-1 spatial units code
# (xyzt_units & 7) to mm: 0 unknown (read as mm), 1 meter, 2 mm, 3 micron.
_TO_MM = {0: (1, 1), 1: (1000, 1), 2: (1, 1), 3: (1, 1000)}

_HEADER_SIZE = 348
_VOX_OFFSET = 352


class NiftiError(ValueError):
    """Raised for malformed, unsupported, or truncated NIfTI-1 files."""


@dataclass(frozen=True)
class VolumeGrid:
    """A dense scalar field on a regular 3D grid with physical spacing.

    ``data`` is indexed ``[x, y, z]``; the serialized voxel order is
    x-fastest, matching the NIfTI on-disk layout.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        if self.data.ndim != 3:
            raise ValueError(f"expected 3D data, got ndim={self.data.ndim}")
        if self.data.dtype.name not in _DTYPE_TO_CODE:
            raise ValueError(f"unsupported dtype {self.data.dtype.name}")
        if any(d < 1 for d in self.data.shape):
            raise ValueError(f"non-positive dims {self.data.shape}")
        sp = tuple(float(s) for s in self.spacing)
        if len(sp) != 3 or any(not np.isfinite(s) or s <= 0 for s in sp):
            raise ValueError(f"spacing must be three positive finite values, got {self.spacing}")
        object.__setattr__(self, "spacing", sp)
        self.data.setflags(write=False)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, VolumeGrid):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.spacing == other.spacing
            and self.data.dtype == other.data.dtype
            and np.array_equal(self.data, other.data)
        )


def is_binary(data: np.ndarray) -> bool:
    """True iff every voxel is exactly 0 or 1 (-0.0 counts as 0, NaN as neither)."""
    if data.dtype.kind in "biu":  # only signed data can hold a value below 0
        return bool(data.max() <= 1 and (data.dtype.kind != "i" or data.min() >= 0))
    # one full-grid boolean temporary at a time
    return int(np.count_nonzero(data == 0)) + int(np.count_nonzero(data == 1)) == data.size


class BinaryMask(VolumeGrid):
    """A VolumeGrid whose voxels are exactly 0 or 1."""

    def __post_init__(self):
        super().__post_init__()
        if not is_binary(self.data):
            raise ValueError("mask voxels must all be exactly 0 or 1")

    def foreground_count(self) -> int:
        return int(np.count_nonzero(self.data))


def _read_bytes(path) -> bytes:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:2] == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:  # BadGzipFile is an OSError
            if str(exc).startswith("Error -4 "):  # Z_MEM_ERROR: a valid stream, too little memory
                raise MemoryError(str(exc)) from exc
            raise NiftiError(f"corrupt or cut-off gzip stream: {exc}") from exc
    return raw


def load_nifti(path) -> VolumeGrid:
    """Read a single-file NIfTI-1 volume (.nii or .nii.gz).

    Accepts 3D images and 4D images with a singleton 4th dimension; both
    endiannesses are handled (detected via dim[0]). pixdim 1-3 are converted
    to mm from xyzt_units' spatial unit; a code outside 0-3 is a NiftiError.
    scl_slope/scl_inter are applied when they describe a non-identity affine
    rescale, promoting the data to float64. A non-finite scl_slope or
    scl_inter reads as 0, as in the NIfTI-1 reference reader (nifti1_io.c); a
    slope of 0 means no scaling.
    """
    raw = _read_bytes(path)
    if len(raw) < _HEADER_SIZE:
        raise NiftiError(f"file too short for a NIfTI-1 header ({len(raw)} bytes)")

    # Endianness detection: dim[0] must land in [1, 7] under the right byte order.
    for byte_order in "<>":
        dim = struct.unpack_from(byte_order + "8h", raw, 40)
        if 1 <= dim[0] <= 7:
            break
    else:
        raise NiftiError("cannot determine byte order: dim[0] invalid in both orders")

    (sizeof_hdr,) = struct.unpack_from(byte_order + "i", raw, 0)
    if sizeof_hdr != _HEADER_SIZE:
        raise NiftiError(f"sizeof_hdr is {sizeof_hdr}, expected {_HEADER_SIZE}")
    magic = raw[344:348]
    if magic != b"n+1\x00":
        raise NiftiError(f"unsupported magic {magic!r}; only single-file 'n+1' accepted")

    if dim[0] not in (3, 4):
        raise NiftiError(f"dim[0]={dim[0]}; only 3D (or squeezable 4D) images supported")
    if dim[0] == 4 and dim[4] > 1:
        raise NiftiError(f"4D image with dim[4]={dim[4]}; only singleton 4th dimension supported")
    nx, ny, nz = int(dim[1]), int(dim[2]), int(dim[3])
    if min(nx, ny, nz) < 1:
        raise NiftiError(f"non-positive image dims {(nx, ny, nz)}")

    (datatype,) = struct.unpack_from(byte_order + "h", raw, 70)
    if datatype not in _CODE_TO_DTYPE:
        raise NiftiError(f"unsupported datatype code {datatype}")
    dtype = np.dtype(_CODE_TO_DTYPE[datatype]).newbyteorder(byte_order)

    pixdim = struct.unpack_from(byte_order + "8f", raw, 76)
    units = raw[123] & 7  # xyzt_units' spatial bits; the time bits are ignored
    if units not in _TO_MM:
        raise NiftiError(f"unsupported spatial units code {units} in xyzt_units; "
                         "only 0 (unknown, read as mm), 1 (meter), 2 (mm) and 3 (micron) are defined")
    factor, divisor = _TO_MM[units]
    spacing = tuple(abs(float(p)) * factor / divisor for p in pixdim[1:4])
    (vox_offset,) = struct.unpack_from(byte_order + "f", raw, 108)
    slope, inter = (v if math.isfinite(v) else 0.0 for v in struct.unpack_from(byte_order + "2f", raw, 112))

    if not math.isfinite(vox_offset):
        raise NiftiError(f"vox_offset {vox_offset} is not a finite byte offset")
    offset = int(vox_offset)
    if offset < _VOX_OFFSET:
        raise NiftiError(f"vox_offset {vox_offset:g} lies inside the header; must be >= {_VOX_OFFSET}")
    n_voxels = nx * ny * nz
    need = offset + n_voxels * dtype.itemsize
    if len(raw) < need:
        raise NiftiError(f"truncated payload: need {need} bytes, have {len(raw)}")

    flat = np.frombuffer(raw, dtype=dtype, count=n_voxels, offset=offset)
    # A read-only view of the file's bytes, copied only to swap the byte order
    # or to align a payload at an odd vox_offset.
    data = np.require(flat.reshape((nx, ny, nz), order="F"), dtype=dtype.newbyteorder("="), requirements="A")
    if slope != 0.0 and (slope, inter) != (1.0, 0.0):
        data = data.astype(np.float64) * slope + inter
    return VolumeGrid(data=data, spacing=spacing)


def write_nifti(grid: VolumeGrid, path) -> None:
    """Write a single-file uncompressed little-endian NIfTI-1 volume.

    The emitted file round-trips bit-exactly through :func:`load_nifti`
    (scl_slope=1, scl_inter=0, vox_offset=352).
    """
    dtype = grid.data.dtype
    nx, ny, nz = grid.dims

    header = bytearray(_HEADER_SIZE)
    struct.pack_into("<i", header, 0, _HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, _DTYPE_TO_CODE[dtype.name], dtype.itemsize * 8)  # datatype, bitpix
    struct.pack_into("<8f", header, 76, 1.0, *grid.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, float(_VOX_OFFSET))
    struct.pack_into("<2f", header, 112, 1.0, 0.0)  # scl_slope, scl_inter
    header[344:348] = b"n+1\x00"

    payload = np.asfortranarray(grid.data).astype("<" + dtype.str[1:]).tobytes(order="F")
    with open(path, "wb") as f:
        f.write(bytes(header))
        f.write(b"\x00" * (_VOX_OFFSET - _HEADER_SIZE))  # no extensions
        f.write(payload)


def binarize(grid: VolumeGrid, threshold: float) -> BinaryMask:
    """Threshold a grid into a mask: voxel -> 1 iff value > threshold.

    A NaN voxel is undefined, neither above nor below any threshold, so a
    grid holding one is rejected with ValueError rather than read as 0.
    """
    if not np.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if grid.data.dtype.kind == "f" and np.isnan(grid.data.min()):  # min() propagates NaN
        raise ValueError(f"{np.count_nonzero(np.isnan(grid.data))} NaN voxels cannot be thresholded")
    # A float64 scalar keeps the comparison in float64 for every input dtype
    # (a Python float would be cast to float32 against float32 data).
    data = np.greater(grid.data, np.float64(threshold)).view(np.uint8)
    return BinaryMask(data, grid.spacing)


def mask_volume_ml(mask: BinaryMask) -> float:
    """Foreground volume in milliliters (voxel count x voxel volume / 1000)."""
    sx, sy, sz = mask.spacing
    return mask.foreground_count() * sx * sy * sz / 1000.0
