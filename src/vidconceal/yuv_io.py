"""Raw planar YUV 4:2:0 (I420) sequence reading and frame export.

Only the luma plane is processed anywhere in this package; chroma planes are
carried through byte-exact so concealed sequences stay viewable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .core import MB, Frame


@dataclass(frozen=True)
class SequenceHeader:
    width: int
    height: int
    frame_count: int
    source_path: str

    @property
    def frame_bytes(self) -> int:
        return self.width * self.height * 3 // 2

    @property
    def luma_bytes(self) -> int:
        return self.width * self.height

    @property
    def chroma_bytes(self) -> int:
        return (self.width // 2) * (self.height // 2)


@dataclass
class YuvFrameRecord:
    """One decoded I420 frame: luma as a Frame, chroma as opaque bytes."""

    luma: Frame
    chroma_u: bytes
    chroma_v: bytes


def open_sequence(path: str, width: int, height: int) -> SequenceHeader:
    """Probe a raw I420 file and derive its frame count from the file size."""
    if width <= 0 or height <= 0 or width % MB or height % MB:
        raise ValueError(f"dimensions {width}x{height} must be positive multiples of {MB}")
    size = os.path.getsize(path)
    frame_bytes = width * height * 3 // 2
    if size == 0 or size % frame_bytes:
        raise ValueError(
            f"{path}: size {size} is not a positive multiple of the "
            f"{frame_bytes}-byte frame size for {width}x{height} 4:2:0"
        )
    return SequenceHeader(width, height, size // frame_bytes, path)


def read_frame(header: SequenceHeader, index: int) -> YuvFrameRecord:
    """Random-access read of one frame (Y plane, then U, then V)."""
    if not 0 <= index < header.frame_count:
        raise IndexError(f"frame {index} out of range 0..{header.frame_count - 1}")
    with open(header.source_path, "rb") as f:
        f.seek(index * header.frame_bytes)
        raw = f.read(header.frame_bytes)
    if len(raw) != header.frame_bytes:
        raise IOError(f"short read at frame {index} of {header.source_path}")
    ny, nc = header.luma_bytes, header.chroma_bytes
    luma = np.frombuffer(raw, dtype=np.uint8, count=ny).reshape(header.height, header.width)
    return YuvFrameRecord(
        luma=Frame(luma.copy()),
        chroma_u=raw[ny : ny + nc],
        chroma_v=raw[ny + nc :],
    )


def write_yuv_frame(record: YuvFrameRecord, sink: BinaryIO) -> None:
    """Append one I420 frame to an open binary stream."""
    h = record.luma.height
    w = record.luma.width
    if len(record.chroma_u) != (w // 2) * (h // 2) or len(record.chroma_v) != (w // 2) * (h // 2):
        raise ValueError("chroma plane size does not match luma dimensions")
    sink.write(record.luma.luma.tobytes())
    sink.write(record.chroma_u)
    sink.write(record.chroma_v)


def write_pgm(frame: Frame, path: str) -> None:
    """Write the luma plane as a binary PGM (P5) still."""
    with open(path, "wb") as f:
        f.write(f"P5\n{frame.width} {frame.height}\n255\n".encode("ascii"))
        f.write(frame.luma.tobytes())


def gray_chroma(width: int, height: int) -> bytes:
    """Neutral (mid-gray) chroma plane for luma-only synthetic sequences."""
    return bytes([128]) * ((width // 2) * (height // 2))
