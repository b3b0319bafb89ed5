import gzip
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

import volkit
from volkit.volgrid import BinaryMask

# Every property test draws the same examples on every run and machine: no
# per-example deadline, no example database. A test's @settings adds only
# its example count and any health check it suppresses.
settings.register_profile("volkit", deadline=None, derandomize=True, database=None)
settings.load_profile("volkit")


def run_python(*argv, env=(), **kwargs):
    """Run ``python ARGV`` in a new interpreter with this checkout's ``src`` first on the path.

    ``env`` adds environment variables; ``kwargs`` go to ``subprocess.run``.
    """
    src = str(Path(volkit.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, argv)], env=env, capture_output=True, text=True, **kwargs)


def run_fresh(code, *args, **kwargs):
    """``python -c CODE ARGS`` through :func:`run_python`."""
    return run_python("-c", code, *args, **kwargs)


def make_mask(data, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    arr = np.asarray(data, dtype=np.uint8)
    return BinaryMask(arr, spacing)


def fixture_3x3x1():
    """(pred, gt) as two 3x3x1 uint8 arrays: pred 6 fg, gt 4 fg, overlap 3 -> tp=3, fp=3, fn=1."""
    pred = np.zeros((3, 3, 1), dtype=np.uint8)
    gt = np.zeros((3, 3, 1), dtype=np.uint8)
    pred[0, :, 0] = 1
    pred[1, :, 0] = 1  # 6 voxels
    gt[1, :, 0] = 1
    gt[2, 0, 0] = 1  # 4 voxels, 3 shared
    return pred, gt


def random_mask(rng, dims, spacing=(1.0, 1.0, 1.0), p=None) -> BinaryMask:
    if p is None:
        p = rng.uniform(0.2, 0.8)
    data = (rng.random(dims) < p).astype(np.uint8)
    return make_mask(data, spacing)


def random_nonempty_mask(rng, dims, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    while True:
        m = random_mask(rng, dims, spacing)
        if m.foreground_count() > 0:
            return m


def build_nifti1_bytes(data, spacing, byte_order="<"):
    """Assemble a single-file NIfTI-1 byte stream directly from the format
    layout (348-byte header, 4 pad bytes, voxels x-fastest). Independent of
    the package writer; used as the third-party-file oracle."""
    data = np.asarray(data)
    code, pack_char = {
        "uint8": (2, "B"), "int16": (4, "h"), "int32": (8, "i"), "float32": (16, "f"), "float64": (64, "d"),
        "int8": (256, "b"), "uint16": (512, "H"), "uint32": (768, "I"), "int64": (1024, "q"), "uint64": (1280, "Q"),
    }[data.dtype.name]
    bitpix = data.dtype.itemsize * 8
    nx, ny, nz = data.shape

    header = bytearray(348)
    struct.pack_into(byte_order + "i", header, 0, 348)
    struct.pack_into(byte_order + "8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into(byte_order + "2h", header, 70, code, bitpix)
    struct.pack_into(byte_order + "8f", header, 76, 1.0, *spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into(byte_order + "f", header, 108, 352.0)
    struct.pack_into(byte_order + "2f", header, 112, 1.0, 0.0)
    header[344:348] = b"n+1\x00"

    voxels = bytearray()
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                voxels += struct.pack(byte_order + pack_char, data[x, y, z])
    return bytes(header) + b"\x00" * 4 + bytes(voxels)


def hostile_nifti_bytes(kind: str, data, spacing=(1.0, 1.0, 1.0)) -> bytes:
    """A NIfTI-1 file of ``data`` spoiled in the way ``kind`` names.

    ``cut-gzip`` is a .nii.gz cut off halfway, ``corrupt-deflate`` a .nii.gz
    whose first deflate block has the reserved block type, and
    ``inf-vox-offset`` and ``nan-vox-offset`` are plain files whose
    vox_offset is not finite.
    """
    raw = build_nifti1_bytes(data, spacing)
    if kind == "cut-gzip":
        packed = gzip.compress(raw)
        return packed[: len(packed) // 2]
    if kind == "corrupt-deflate":
        packed = bytearray(gzip.compress(raw))
        packed[10] = 0xFF  # BFINAL=1, BTYPE=11: zlib rejects the block
        return bytes(packed)
    header = bytearray(raw)
    struct.pack_into("<f", header, 108, {"inf-vox-offset": np.inf, "nan-vox-offset": np.nan}[kind])
    return bytes(header)
