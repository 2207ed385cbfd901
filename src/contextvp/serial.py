"""Little-endian binary IO helpers shared by the model and dataset formats."""

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


class DimOverflowError(FormatError):
    pass


U32_MAX = 2**32 - 1


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

    def u8(self) -> int:
        return self.take(1)[0]

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

    def done(self) -> bool:
        return self.remaining() == 0


class Writer:
    def __init__(self):
        self._parts: list[bytes] = []

    def raw(self, b: bytes) -> None:
        self._parts.append(b)

    def u8(self, v: int) -> None:
        self._parts.append(struct.pack("<B", v))

    def u32(self, v: int) -> None:
        if v > U32_MAX:
            raise DimOverflowError(f"value {v} does not fit in u32")
        self._parts.append(struct.pack("<I", v))

    def u64(self, v: int) -> None:
        self._parts.append(struct.pack("<Q", v))

    def getvalue(self) -> bytes:
        return b"".join(self._parts)


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
