import os

import pytest

from contextvp import serial
from contextvp.model import ModelSpec, build, load_model, model_bytes
from contextvp.serial import DimOverflowError, NameCollisionError, Writer, atomic_write


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


def test_duplicate_tensor_name_in_model_file(tmp_path):
    # rename layer1.t-.ks to layer1.t-.kx, which the file already holds
    spec = ModelSpec(layers=[(2, 2)], blend_mode="uniform", dws=False)
    blob = model_bytes(build(spec, 0))
    assert blob.count(b"layer1.t-.ks") == 1
    path = tmp_path / "m.cvpm"
    path.write_bytes(blob.replace(b"layer1.t-.ks", b"layer1.t-.kx"))
    with pytest.raises(NameCollisionError, match="'layer1.t-.kx'"):
        load_model(str(path))
