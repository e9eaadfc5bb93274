"""The benchmark's tracer wraps rsvp functions by name; a rename or a
deletion of one of them breaks the traced benchmark run. These tests find
that in tier-1."""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

from rsvp import autodiff as ad

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def _install_and_uninstall(tracer):
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()


def test_every_traced_name_exists_and_is_restored(tracer):
    _install_and_uninstall(tracer)
    tracer.assert_untraced()


def test_a_deleted_traced_name_fails_install(tracer, monkeypatch):
    monkeypatch.delattr(ad, "sigmoid")
    with pytest.raises(AttributeError, match="sigmoid"):
        _install_and_uninstall(tracer)
    tracer.assert_untraced()
