"""Every source module has its own test module."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_each_source_module_has_a_test_module():
    modules = sorted(
        p.stem for p in (ROOT / "src" / "contextvp").glob("*.py") if p.stem != "__init__"
    )
    assert modules, "no source modules found"
    missing = [m for m in modules if not (ROOT / "tests" / f"test_{m}.py").is_file()]
    assert missing == [], f"source modules without tests/test_<module>.py: {missing}"
