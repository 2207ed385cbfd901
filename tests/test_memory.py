"""tests/memory.py is run by hand to compare two trees' traced memory;
this test keeps it runnable against the current package."""

import contextvp.pmd as pmd

import memory


def test_rows_print_held_and_peak_per_configuration(monkeypatch):
    monkeypatch.setattr(pmd, "_THREADS", pmd._THREADS)  # restored after the test
    lines = list(memory.rows(sizes=(6,), threads=(1, 2), n=1, frames=2))
    assert len(lines) == len(memory.SPECS) * 2
    for line, (name, threads) in zip(lines, [(s, t) for s in memory.SPECS for t in (1, 2)]):
        assert line.startswith(f"{name} 6x6 threads={threads} held=")
        held, peak = (float(line.split(f"{k}=")[1].split()[0]) for k in ("held", "peak"))
        assert 0 < held <= peak
