"""Little-endian binary reading and atomic writes for the model file."""

from __future__ import annotations

import os
import struct
import tempfile


class FormatError(ValueError):
    pass


class BadMagicError(FormatError):
    pass


class TruncatedFileError(FormatError):
    pass


class Reader:
    def __init__(self, blob: bytes):
        self._blob = blob
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._blob):
            raise TruncatedFileError(
                f"needed {n} bytes at offset {self._pos}, "
                f"file has {len(self._blob)}"
            )
        out = self._blob[self._pos:self._pos + n]
        self._pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def expect_magic(self, magic: bytes) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise BadMagicError(f"bad magic {got!r}, expected {magic!r}")

    def remaining(self) -> int:
        return len(self._blob) - self._pos


def atomic_write(path: str, blob: bytes) -> None:
    """Write via a temp file in the same directory plus rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
