"""
Checks of the program's outputs.  Each takes an output in its JSON form and
what it must match, and returns the problems found; an empty list passes.
"""

from __future__ import annotations

import oracle

_INVARIANT_KEYS = (
    "vector", "components", "genus", "unknotting_number", "trip", "c_minus_n",
    "crossings", "braid_indices", "min_crossing_number", "degree_prediction",
    "t_braid_crossing_bound", "bound_holds",
)


def invariants(got: dict, exp: dict) -> list[str]:
    """An invariant report against the closed forms of its vector."""
    if not isinstance(got, dict):
        return [f"invariant report is {got!r}"]
    return [f"{exp['vector']}: {key} is {got.get(key)!r}, expected {exp[key]!r}"
            for key in _INVARIANT_KEYS if got.get(key) != exp[key]]


def report(got: dict, name: str, exp: dict) -> list[str]:
    """A census report: a knot (mu = 1) that is not a torus knot."""
    problems = []
    if exp["components"] != 1:
        problems.append(f"{name}: {exp['vector']} closes to {exp['components']} components")
    if 2 * exp["genus"] != exp["c_minus_n"] + 1:
        problems.append(f"{name}: genus is not (c - n + 1) / 2")
    if got.get("name") != name or got.get("error") is not None:
        problems.append(f"{name}: report names {got.get('name')!r}, error {got.get('error')!r}")
    if got.get("vector") != exp["vector"]:
        problems.append(f"{name}: vector {got.get('vector')!r}, expected {exp['vector']!r}")
    if got.get("torus") != "NotTorus":
        problems.append(f"{name}: verdict {got.get('torus')!r}, a census knot is NotTorus")
    return problems + invariants(got.get("invariants"), exp)


def torus(got: str, exp: str) -> list[str]:
    return [] if got == exp else [f"torus verdict {got!r}, expected {exp!r}"]


def alexander(terms, twice_genus: int, morton: list[int] | None) -> list[str]:
    """
    A knot's Alexander polynomial as (exponent, coefficient) pairs: monic at
    both ends, palindromic up to sign, with value +-1 at t = 1 and span 2g;
    for the Morton family, equal up to units to Morton's formula.
    """
    if not terms:
        return ["empty Alexander polynomial"]
    c = oracle.units_normal(oracle.from_terms(terms))
    problems = []
    if abs(c[0]) != 1 or abs(c[-1]) != 1:
        problems.append(f"end coefficients {c[0]}, {c[-1]} are not units")
    if c != c[::-1] and c != [-x for x in c[::-1]]:
        problems.append("not palindromic up to sign")
    if abs(sum(c)) != 1:
        problems.append(f"value {sum(c)} at t = 1")
    if len(c) - 1 != twice_genus:
        problems.append(f"span {len(c) - 1}, expected 2g = {twice_genus}")
    if morton is not None and c != morton:
        problems.append("differs from Morton's formula")
    return problems


def census_cli(rows: list, census: list[tuple[str, str | None]],
               exp: dict[str, dict]) -> list[str]:
    """
    The JSON of `census report`: one row per census line in file order, the
    "?" rows reporting "vector unknown" and each known row a correct report.
    """
    if not isinstance(rows, list):
        return ["census report is not a list"]
    names = [row.get("name") for row in rows]
    if names != [name for name, _ in census]:
        return [f"census rows out of file order or missing: {len(rows)} rows"]
    problems = []
    for row, (name, text) in zip(rows, census):
        if text is None:
            if row.get("error") != "vector unknown" or row.get("vector") is not None:
                problems.append(f"{name}: unknown row reports {row.get('error')!r}")
        else:
            problems += report(row, name, exp[name])
    return problems
