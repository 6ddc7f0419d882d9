"""The public surface of the package, pinned: an export that goes or comes edits this list."""

import importlib
import re
import types
from pathlib import Path

import lorenzlinks

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
