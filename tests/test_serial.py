import os

import pytest

from contextvp import serial
from contextvp.serial import DimOverflowError, Writer, atomic_write


class TestAtomicWrite:
    def test_failed_replace_keeps_old_file_and_leaves_no_temp(self, tmp_path, monkeypatch):
        path = tmp_path / "f.bin"
        path.write_bytes(b"old contents")

        def refuse(src, dst):
            raise OSError("replace refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="replace refused"):
            atomic_write(str(path), b"new contents")
        assert path.read_bytes() == b"old contents"
        assert [p.name for p in tmp_path.iterdir()] == ["f.bin"]


class TestWriter:
    def test_u32_bounds(self):
        w = Writer()
        w.u32(serial.U32_MAX)
        assert w.getvalue() == b"\xff\xff\xff\xff"
        with pytest.raises(DimOverflowError, match=str(2**32)):
            w.u32(2**32)
