import gzip
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

import volkit
from volkit.volgrid import BinaryMask, VolumeGrid


def run_fresh(code, *args, env=(), **kwargs):
    """Run ``code`` in a new interpreter with this checkout's ``src`` first on the path.

    ``env`` adds environment variables; ``kwargs`` go to ``subprocess.run``.
    """
    src = str(Path(volkit.__file__).resolve().parents[1])
    env = {**os.environ, **dict(env), "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, **kwargs)


def make_mask(data, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    arr = np.asarray(data, dtype=np.uint8)
    return BinaryMask(VolumeGrid(data=arr, spacing=spacing))


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


HOSTILE_KINDS = ("cut-gzip", "corrupt-deflate", "inf-vox-offset", "nan-vox-offset")


def hostile_nifti_bytes(kind: str, data, spacing=(1.0, 1.0, 1.0)) -> bytes:
    """A NIfTI-1 file of ``data`` spoiled in one of the ways in ``HOSTILE_KINDS``.

    ``cut-gzip`` is a .nii.gz cut off halfway, ``corrupt-deflate`` a .nii.gz
    whose first deflate block has the reserved block type, and the two
    ``vox-offset`` kinds are plain files whose vox_offset is not finite.
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
