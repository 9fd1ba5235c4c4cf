"""The kernel mutants of ``mutants.MUTANTS``: each one's oracle test fails while it stands in.
And the claims the library can raise: each is raised by a named test."""

from __future__ import annotations

import ast
import importlib
import inspect
import itertools
import pkgutil
import types
from pathlib import Path

import pytest

import hyperbck
from hyperbck import ClaimViolation, FuzzyHyperBCK, HyperBCK
from hyperbck.core import _Kept
from hyperbck.corpus import (
    MAX_EXHAUSTIVE_SIZE,
    ModelCorpus,
    _corpus,
    _search_tables,
    enumerate_hyper_bck,
)
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
    """Empty every cache and store of the package but the model search's, which hold every
    corpus before a mutant stands in and gain none under it (checked), so no answer a mutant
    computed is read by a later test."""
    for module in PACKAGE:
        for obj in vars(module).values():
            if obj is _search_tables or obj is _corpus:
                continue
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
            elif isinstance(getattr(obj, "__self__", obj), _Kept):
                getattr(obj, "__self__", obj).clear()


def _cases(test) -> dict[str, dict]:
    """The arguments of each parametrized case of ``test`` by its id, formed as pytest forms
    ids with none given: per argument the value if plain, else its name and the case's index,
    joined by ``-`` within a ``parametrize`` mark and across marks, the nearest mark first."""
    plain = (str, int, float, bool, type(None))
    cases = {"": {}}
    for mark in getattr(test, "pytestmark", []):
        if mark.name != "parametrize":
            continue
        names = [n.strip() for n in mark.args[0].split(",")]
        parts = {}
        for i, values in enumerate(mark.args[1]):
            values = tuple(values) if len(names) > 1 else (values,)
            ids = (str(v) if isinstance(v, plain) else f"{n}{i}" for n, v in zip(names, values))
            parts["-".join(ids)] = dict(zip(names, values))
        cases = {
            f"{head}-{part}" if head else part: {**args, **more}
            for (head, args), (part, more) in itertools.product(cases.items(), parts.items())
        }
    return cases


def _named_test(name: str, request) -> tuple:
    """The test a ``file::name[id]`` names, its module, and its arguments: the parameters its id
    names, then fixtures for the rest."""
    test_file, test_id = name.split("::")
    test_name, _, case = test_id.removesuffix("]").partition("[")
    module = importlib.import_module(test_file.removesuffix(".py"))
    test = getattr(module, test_name)
    args = dict(_cases(test)[case])
    for p in inspect.signature(test).parameters:
        if p not in args:
            args[p] = request.getfixturevalue(p)
    return test, module, args


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_every_kernel_mutant_fails_its_oracle_test(name, request, monkeypatch):
    owner, attribute, make, killer = MUTANTS[name]
    test, module, args = _named_test(killer, request)
    args = {p: _fresh(value) for p, value in args.items()}
    original = getattr(owner, attribute)
    mutant = make(original)
    for n, up_to_iso in itertools.product(range(1, MAX_EXHAUSTIVE_SIZE + 1), (False, True)):
        enumerate_hyper_bck(n, up_to_iso)  # built unmutated, whatever ran before, and only read
    searched = _search_tables.cache_info().misses, _corpus.cache_info().misses
    # a module kernel is patched wherever the package or the killer binds it; a method on its class
    owners = [m for m in (*PACKAGE, module) if vars(m).get(attribute) is original]
    for where in owners if isinstance(owner, types.ModuleType) else [owner]:
        monkeypatch.setattr(where, attribute, mutant)
    try:
        with pytest.raises(AssertionError):
            test(**args)
    finally:
        monkeypatch.undo()
        _clear_package_caches()
    assert (_search_tables.cache_info().misses, _corpus.cache_info().misses) == searched


# Each claim the library can raise, with a Tier-1 test that raises it.  The other guarantees of
# the constructions hold by construction and are checked by the oracles of
# ``tests/test_construction_oracles.py`` instead.
RAISED_BY = {
    "equalizer-closed": "test_category.py::test_pullback_of_identity_cospan_fails_closure",
    "product-mediator-hom": "test_category.py::test_mediate_product_diagonal_is_a_claim_violation",
    "congruence-meet-regular":
        "test_category.py::test_a_coequalizing_family_without_a_least_member_is_a_claim_violation",
    "coequalizer-factors": "test_category.py::"
        "test_a_map_into_a_table_that_fails_the_axioms_need_not_factor_through_the_coequalizer",
}


def test_every_claim_the_library_raises_is_raised_by_a_named_test(request, monkeypatch):
    raised = set()
    for path in sorted(Path(hyperbck.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            called = isinstance(node, ast.Call) and ast.unparse(node.func)
            if called and called.rsplit(".", 1)[-1] == "ClaimViolation":
                claim = node.args[0]
                assert isinstance(claim, ast.Constant), (path.name, ast.unparse(claim))
                raised.add(claim.value)
    assert raised == RAISED_BY.keys()
    made = []
    init = ClaimViolation.__init__

    def record(self, claim, *rest):
        made.append(claim)
        init(self, claim, *rest)

    monkeypatch.setattr(ClaimViolation, "__init__", record)
    for claim, name in RAISED_BY.items():
        test, _, args = _named_test(name, request)
        made.clear()
        test(**args)
        assert claim in made, name


def test_a_refusal_is_relocated_by_core_located_alone():
    """No ``except InputError`` block rebuilds the refusal as ``InputError(str(exc), exc.code,
    ...)`` at a new location but the one in ``core.located``."""
    relocations = []
    for path in sorted(Path(hyperbck.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        for handler in ast.walk(tree):
            if not (isinstance(handler, ast.ExceptHandler) and handler.name):
                continue
            if "InputError" not in ast.unparse(handler.type):
                continue
            for node in ast.walk(handler):
                call = node.exc if isinstance(node, ast.Raise) else None
                if not (isinstance(call, ast.Call) and ast.unparse(call.func) == "InputError"):
                    continue
                args = [ast.unparse(a) for a in (*call.args, *(k.value for k in call.keywords))]
                if {f"str({handler.name})", f"{handler.name}.code"} <= set(args):
                    inside = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    relocations.append((path.name, max(inside, key=lambda f: f.lineno).name))
    assert relocations == [("core.py", "located")]
