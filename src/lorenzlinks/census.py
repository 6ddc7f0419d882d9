"""
Census ingestion and batch invariant reports.

The bundled census file lists the simplest hyperbolic knots together with a
Lorenz vector where one is known (107 of 112 rows) and "?" where the question
is open.  Reports combine the invariant table with the torus-detection
verdict, which is decided from that same invariant report, so each row
normalizes its vector, counts t and counts its components once.  Batch
reports come back in input order, and a failing entry never aborts the rest
of the batch.
"""

from __future__ import annotations

import warnings
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .errors import ParseError, UnsupportedInput, _Value
from .invariants import InvariantReport, invariant_report
from .lorenz import LorenzVector, format_vector, parse_vector
from .torus import TorusVerdict, _verdict

REPORT_SCHEMA = "lorenzlinks.report/2"


class CensusEntry(_Value):
    __slots__ = ("name", "vector", "warnings")

    def __init__(self, name: str, vector: Optional[LorenzVector],
                 warnings: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vector", vector)  # None for "?" rows
        object.__setattr__(self, "warnings", warnings)

    @property
    def known(self) -> bool:
        return self.vector is not None


def builtin_census_path() -> Path:
    return Path(resources.files("lorenzlinks").joinpath("data/census.txt"))


def builtin_knotscape_names() -> tuple[str, ...]:
    text = resources.files("lorenzlinks").joinpath(
        "data/knotscape_lorenz_16.txt"
    ).read_text()
    return tuple(
        line.strip() for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


def load_census(path: Union[str, Path, None] = None) -> list[CensusEntry]:
    """
    Parse a census file: one "name<ws>vector|?" entry per line, "#" comments.

    Raises ParseError on a file that is not UTF-8 text, and names the line of
    a ParseError or UnsupportedInput from a row; duplicate names are rejected.
    Vectors written out of order are sorted, recording the warning on the entry.
    """
    file = Path(path) if path is not None else builtin_census_path()
    entries: list[CensusEntry] = []
    seen: set[str] = set()
    try:
        text = file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{file.name}: not UTF-8 text ({exc.reason})") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ParseError(f"{file.name}:{lineno}: expected 'name vector'")
        name, body = parts[0], parts[1].strip()
        if name in seen:
            raise ParseError(f"{file.name}:{lineno}: duplicate name {name!r}")
        seen.add(name)
        if body == "?":
            entries.append(CensusEntry(name, None))
            continue
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                vector = parse_vector(body)
        except (ParseError, UnsupportedInput) as exc:
            raise type(exc)(f"{file.name}:{lineno}: {exc}") from exc
        notes = tuple(str(w.message) for w in caught)
        entries.append(CensusEntry(name, vector, notes))
    return entries


class Report(_Value):
    """Everything the toolkit can say about one vector."""

    __slots__ = ("name", "vector", "invariants", "torus", "warnings", "error")

    def __init__(self, name: str, vector: Optional[LorenzVector],
                 invariants: Optional[InvariantReport], torus: Optional[TorusVerdict],
                 warnings: tuple[str, ...] = (), error: Optional[str] = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "vector", vector)
        object.__setattr__(self, "invariants", invariants)
        object.__setattr__(self, "torus", torus)
        object.__setattr__(self, "warnings", warnings)
        object.__setattr__(self, "error", error)

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "vector": None if self.vector is None else format_vector(self.vector),
            "invariants": None if self.invariants is None else self.invariants.to_dict(),
            "torus": None if self.torus is None else str(self.torus),
            "torus_decided_by": None if self.torus is None else self.torus.decided_by,
            "warnings": list(self.warnings),
            "error": self.error,
        }


def report(vector: LorenzVector, name: str = "", notes: Iterable[str] = ()) -> Report:
    rep = invariant_report(vector)
    return Report(name, vector, rep, _verdict(rep), tuple(notes))


def _entry_report(entry: CensusEntry) -> Report:
    if entry.vector is None:
        error = "vector unknown"
    else:
        try:
            return report(entry.vector, entry.name, entry.warnings)
        except Exception as exc:  # reported inline, never aborts the batch
            error = f"{type(exc).__name__}: {exc}"
    return Report(entry.name, entry.vector, None, None, entry.warnings, error)


def report_all(entries: Sequence[CensusEntry]) -> list[Report]:
    """Reports for every entry, in input order."""
    return [_entry_report(entry) for entry in entries]
