import os

import pytest

from contextvp.serial import atomic_write


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
