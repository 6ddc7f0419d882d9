"""The public surface of the package, pinned: an export that goes or comes edits this list."""

import copy
import importlib
import pickle
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lorenzlinks
from lorenzlinks import (
    BraidWord,
    CensusEntry,
    LaurentPoly,
    LorenzVector,
    Permutation,
    TmTriple,
    TorusVerdict,
    TParams,
    Unknot,
    invariant_report,
    normal_form,
    report,
)

PUBLIC = [
    "BraidWord", "CensusEntry", "InvariantReport", "LaurentPoly", "LorenzVector",
    "NormalForm", "ParseError", "Permutation", "Report", "TParams", "TmTriple",
    "TorusVerdict", "UNKNOT", "Unknot", "UnsupportedInput", "bracket", "braid_index",
    "burau_alexander", "classify_strands", "cycle_count", "dual_tparams", "dual_vector",
    "flip_word", "format_tparams", "format_vector", "format_word", "invariant_report",
    "is_torus", "load_census", "lorenz_braid_word", "lorenz_permutation", "milestone_words",
    "minimal_braid_word", "morton_alexander", "normal_form", "normalize", "normalize_units",
    "parse_tparams", "parse_vector", "parse_word", "periodic_word", "permutation_braid_word",
    "poly_equal_up_to_units", "power", "report", "report_all", "tbraid_word", "tm_triple",
    "torus_simplify", "tparams_to_vector", "trip_number", "vector_from_triple",
    "vector_to_tparams", "words_equal", "x_word", "y_word", "z_word",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(lorenzlinks).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_readme_caps_are_the_code_caps():
    # Every `module.MAX_NAME` = N that README states names a constant of that
    # module with the value N, so a cap that goes or changes cannot linger in
    # the docs.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"`(\w+)\.(MAX_\w+)`\s*=\s*(\d[\d,]*\d|\d)", readme)
    assert len(stated) >= 8, stated
    for module, name, value in stated:
        caps = vars(importlib.import_module(f"lorenzlinks.{module}"))
        assert caps.get(name) == int(value.replace(",", "")), (module, name, value)


def test_cli_starts_without_dataclasses():
    # A fresh interpreter, as a CLI process starts: no module of the package
    # may pull in dataclasses, whose import and decorators cost its start-up.
    code = ("import sys; sys.path.insert(0, 'src'); import lorenzlinks.cli; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parents[1],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False", proc.stderr


_V = ((2, 3), (5, 4))
# Each value type, built afresh by each call; the flag says whether it hashes
# (an InvariantReport holds dicts, and a Report holds an InvariantReport).
VALUES = {
    "Unknot": (lambda: Unknot(), True),
    "LorenzVector": (lambda: LorenzVector(_V), True),
    "TmTriple": (lambda: TmTriple(3, (1, 0), (0, 2)), True),
    "Permutation": (lambda: Permutation((2, 3, 1)), True),
    "BraidWord": (lambda: BraidWord(3, (1, 2, 1)), True),
    "CensusEntry": (lambda: CensusEntry("k", LorenzVector(_V), ("sorted",)), True),
    "Report": (lambda: report(LorenzVector(_V), "k"), False),
    "NormalForm": (lambda: normal_form(BraidWord(3, (1, 2, 1, 1))), True),
    "InvariantReport": (lambda: invariant_report(LorenzVector(_V)), False),
    "LaurentPoly": (lambda: LaurentPoly(((0, 1), (1, -1), (2, 1))), True),
    "TParams": (lambda: TParams(((2, 3), (3, 1))), True),
    "TorusVerdict": (lambda: TorusVerdict("torus", 2, 3, "tparams"), True),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_type_contract(name):
    make, hashable = VALUES[name]
    value = make()
    assert type(value).__name__ == name
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert twin == value and repr(twin) == repr(value)
    field = next(iter(getattr(type(value), "__slots__", ())), "x")
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    other = make()
    assert other is not value and other == value
    if hashable:
        assert hash(other) == hash(value)
    for other_name, (other_make, _) in VALUES.items():
        if other_name != name:
            assert value != other_make() and not value == other_make()


def test_torus_verdicts_differing_only_in_the_rung_are_equal():
    by_tparams, by_garside = (TorusVerdict("torus", 2, 3, rung) for rung in ("tparams", "garside"))
    assert by_tparams == by_garside and hash(by_tparams) == hash(by_garside)
    assert by_tparams != TorusVerdict("torus", 2, 5, "tparams")
