"""Little-endian binary readers/writers for the on-disk formats."""

import os
import struct

import numpy as np

from .errors import FormatError


def truncated(source: str, what: str, offset: int, count: int, size: int) -> FormatError:
    """The error for `count` bytes of `what` needed at `offset` of a `size`-byte buffer."""
    return FormatError(
        f"{source}: truncated while reading {what} at offset "
        f"{offset} (need {count} bytes, have {size - offset})"
    )


class Reader:
    """Sequential reader over a byte buffer that reports offsets on failure."""

    def __init__(self, data: bytes | bytearray, source: str = "<bytes>"):
        self.data = data
        self.source = source
        self.offset = 0

    @classmethod
    def of_file(cls, path) -> "Reader":
        """A reader over the whole file, read into a bytearray, so that
        ``array`` gives writable views of it rather than copies."""
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
            data += fh.read()  # a pipe reports no size
        return cls(data, source=str(path))

    def _advance(self, count: int, what: str) -> int:
        """Step over `count` bytes, checked against the buffer; returns where they start."""
        start = self.offset
        if start + count > len(self.data):
            raise truncated(self.source, what, start, count, len(self.data))
        self.offset = start + count
        return start

    def take(self, count: int, what: str) -> bytes:
        start = self._advance(count, what)
        return self.data[start:self.offset]

    def magic(self, expected: bytes) -> None:
        got = bytes(self.take(len(expected), "magic"))  # b'...' in the message over a bytearray too
        if got != expected:
            raise FormatError(
                f"{self.source}: bad magic at offset 0: expected {expected!r}, got {got!r}"
            )

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        """The next ``count`` values of ``dtype``, a view of the buffer
        (read-only over ``bytes``), once the buffer is checked to hold them
        all, so a corrupt count makes no array larger than the buffer."""
        dtype = np.dtype(dtype)
        start = self._advance(dtype.itemsize * count, what)
        return np.frombuffer(self.data, dtype, count, start)

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.source}: {len(self.data) - self.offset} unexpected "
                f"trailing bytes at offset {self.offset}"
            )


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def f32_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()
