"""Little-endian binary readers/writers for the on-disk formats."""

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

    def __init__(self, data: bytes, source: str = "<bytes>"):
        self.data = data
        self.source = source
        self.offset = 0

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
        got = self.take(len(expected), "magic")
        if got != expected:
            raise FormatError(
                f"{self.source}: bad magic at offset 0: expected {expected!r}, got {got!r}"
            )

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack("<Q", self.take(8, what))[0]

    def f32_array(self, count: int, what: str) -> np.ndarray:
        start = self._advance(4 * count, what)
        return np.frombuffer(self.data, "<f4", count, start).astype(np.float32)

    def expect_end(self) -> None:
        if self.offset != len(self.data):
            raise FormatError(
                f"{self.source}: {len(self.data) - self.offset} unexpected "
                f"trailing bytes at offset {self.offset}"
            )


def u8(value: int) -> bytes:
    return struct.pack("<B", value)


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    return struct.pack("<Q", value)


def f32_bytes(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array, dtype="<f4").tobytes()
