"""tests/fingerprint.py is run by hand to compare two trees bit for bit;
these tests keep it runnable against the current package."""

import pytest

import contextvp.pmd as pmd
from contextvp.model import build, count_from_spec

import fingerprint


@pytest.mark.parametrize("name", list(fingerprint.SPECS))
def test_every_spec_builds(name):
    spec = fingerprint.SPECS[name]()
    assert len(build(spec, 0).parameters) > 0


def test_smallest_spec_digest_is_the_same_at_one_and_two_threads(monkeypatch):
    smallest = min((make() for make in fingerprint.SPECS.values()), key=count_from_spec)
    digests = set()
    for threads in (1, 2):
        monkeypatch.setattr(pmd, "_THREADS", threads)
        digests.add(fingerprint.digest(smallest, 1))
    assert len(digests) == 1
