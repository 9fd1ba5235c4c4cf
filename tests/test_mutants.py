"""The kernel mutants of ``mutants.MUTANTS``: each one's oracle test fails while it stands in."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import types

import pytest

import hyperbck
from hyperbck import FuzzyHyperBCK, HyperBCK
from hyperbck.core import _Kept
from hyperbck.corpus import ModelCorpus, _corpus, _search_tables
from mutants import MUTANTS

PACKAGE = [
    importlib.import_module(f"hyperbck.{m.name}") for m in pkgutil.iter_modules(hyperbck.__path__)
]


def _fresh(value):
    """``value`` rebuilt with new algebras, so no restriction or rank kept on a shared one is read
    under a mutant, and none built under it outlives the test."""
    if isinstance(value, HyperBCK):
        return HyperBCK(value.carrier, value.table)
    if isinstance(value, FuzzyHyperBCK):
        return FuzzyHyperBCK(_fresh(value.alg), value.mu)
    if isinstance(value, ModelCorpus):
        return ModelCorpus(value.size, _fresh(value.models), value.up_to_iso)
    if isinstance(value, dict):
        return {k: _fresh(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(map(_fresh, value))
    return value


def _clear_package_caches() -> None:
    """Empty every cache and store of the package but the model search's, which the killers
    never fill (checked), so no answer a mutant computed is read by a later test."""
    for module in PACKAGE:
        for obj in vars(module).values():
            if obj is _search_tables or obj is _corpus:
                continue
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif isinstance(getattr(obj, "__self__", obj), _Kept):
                getattr(obj, "__self__", obj).clear()


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_kernel_mutant_fails_its_oracle_test(name, request, monkeypatch):
    owner, attribute, make, killer = MUTANTS[name]
    test_file, test_name = killer.split("::")
    test = getattr(importlib.import_module(test_file.removesuffix(".py")), test_name)
    args = {p: _fresh(request.getfixturevalue(p)) for p in inspect.signature(test).parameters}
    original = getattr(owner, attribute)
    mutant = make(original)
    # a module kernel is patched wherever the package binds it; a method on its class
    owners = [m for m in PACKAGE if vars(m).get(attribute) is original]
    for where in owners if isinstance(owner, types.ModuleType) else [owner]:
        monkeypatch.setattr(where, attribute, mutant)
    searched = _search_tables.cache_info(), _corpus.cache_info()
    try:
        with pytest.raises(AssertionError):
            test(**args)
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    assert (_search_tables.cache_info(), _corpus.cache_info()) == searched
