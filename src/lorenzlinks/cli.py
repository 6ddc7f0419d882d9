"""
Command-line interface.

Exit codes: 0 on success (verdicts such as NotTorus or "not equal" are
output, not errors), 1 on domain errors (valid syntax, unusable value), 2 on
usage or parse errors.  --json switches every subcommand to a machine
readable payload; --quiet suppresses warnings and secondary output lines.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional

from . import census as census_mod
from .braid import cycle_count, format_word, parse_word, permutation_braid_word
from .errors import ParseError
from .garside import normal_form, words_equal
from .invariants import burau_alexander, invariant_report, morton_alexander
from .lorenz import (
    UNKNOT,
    format_vector,
    lorenz_permutation,
    minimal_braid_word,
    minimal_word_from_triple,
    normalize,
    parse_vector,
    tm_triple,
    trip_number,
)
from .tlink import (
    braid_index,
    dual_tparams,
    format_tparams,
    parse_tparams,
    tbraid_word,
    vector_to_tparams,
)
from .torus import is_torus


def _emit(args, primary: str, details: list[str] | None = None, payload=None):
    if args.json:
        print(json.dumps(payload if payload is not None else {"result": primary}))
        return
    print(primary)
    if details and not args.quiet:
        for line in details:
            print(line)


def _cmd_validate(args) -> int:
    v = parse_vector(args.vector)
    details = [
        f"p={v.p} d_p={v.dp} strands={v.strands} crossings={v.total}",
        f"normalized={'yes' if v.is_normalized else 'no'}",
    ]
    payload = {
        "vector": format_vector(v),
        "p": v.p,
        "d_p": v.dp,
        "strands": v.strands,
        "crossings": v.total,
        "normalized": v.is_normalized,
    }
    if v.is_normalized:
        payload["trip"] = trip_number(v)
        payload["components"] = cycle_count(lorenz_permutation(v))
        details.append(
            f"trip={payload['trip']} components={payload['components']}"
        )
    _emit(args, format_vector(v), details, payload)
    return 0


def _cmd_normalize(args) -> int:
    result = normalize(parse_vector(args.vector))
    if result is UNKNOT:
        _emit(args, "Unknot", payload={"vector": None, "unknot": True})
    else:
        _emit(
            args,
            format_vector(result),
            payload={"vector": format_vector(result), "unknot": False},
        )
    return 0


def _cmd_dual(args) -> int:
    text = args.value.strip()
    if text.startswith("("):
        dual = dual_tparams(parse_tparams(text))
        _emit(args, format_tparams(dual), payload={"tparams": format_tparams(dual)})
    else:
        from .lorenz import dual_vector

        dual = dual_vector(parse_vector(text))
        _emit(args, format_vector(dual), payload={"vector": format_vector(dual)})
    return 0


def _cmd_tbraid(args) -> int:
    word = tbraid_word(vector_to_tparams(parse_vector(args.vector)))
    _emit(
        args,
        format_word(word),
        payload={"word": format_word(word), "strands": word.strands, "length": len(word)},
    )
    return 0


def _cmd_minimal(args) -> int:
    triple = tm_triple(parse_vector(args.vector))
    word = minimal_word_from_triple(triple)
    _emit(
        args,
        format_word(word),
        [f"t={triple.t} n={list(triple.n)} m={list(triple.m)}"],
        payload={
            "word": format_word(word),
            "strands": word.strands,
            "length": len(word),
            "t": triple.t,
            "n": list(triple.n),
            "m": list(triple.m),
        },
    )
    return 0


def _cmd_trip(args) -> int:
    t = trip_number(parse_vector(args.vector))
    _emit(args, str(t), payload={"trip": t})
    return 0


def _cmd_braid_index(args) -> int:
    t = braid_index(parse_tparams(args.tparams))
    _emit(args, str(t), payload={"braid_index": t})
    return 0


def _cmd_invariants(args) -> int:
    rep = invariant_report(parse_vector(args.vector))
    d = rep.to_dict()
    details = [
        f"genus={rep.genus} unknotting={rep.unknotting_number} c-n={rep.c_minus_n}",
        f"crossings={rep.crossings} braid_indices={rep.braid_indices}",
        f"min_crossing_number={rep.min_crossing_number}"
        f" degree_prediction={rep.degree_prediction}",
    ]
    primary = (
        "Unknot"
        if rep.is_unknot
        else f"{format_vector(rep.vector)}: mu={rep.components} g={rep.genus}"
    )
    _emit(args, primary, details, payload=d)
    return 0


def _cmd_alexander(args) -> int:
    if args.morton:
        m, p, q = args.morton
        poly = morton_alexander(m, p, q)
    else:
        v = normalize(parse_vector(args.burau))
        if v is UNKNOT:
            from .laurent import LaurentPoly

            poly = LaurentPoly.one()
        else:
            poly = burau_alexander(minimal_braid_word(v))
    _emit(
        args,
        str(poly),
        payload={"alexander": str(poly), "terms": [list(t) for t in poly.terms]},
    )
    return 0


def _cmd_is_torus(args) -> int:
    verdict = is_torus(parse_vector(args.vector))
    _emit(
        args,
        str(verdict),
        payload={"verdict": str(verdict), "torus": verdict.is_torus},
    )
    return 0


def _cmd_normal_form(args) -> int:
    nf = normal_form(parse_word(args.word))
    factor_words = [list(permutation_braid_word(f).letters) for f in nf.factors]
    human = " | ".join(" ".join(str(i) for i in fw) for fw in factor_words)
    _emit(
        args,
        f"n={nf.strands} factors={len(nf.factors)}: {human}" if factor_words
        else f"n={nf.strands} factors=0 (identity)",
        payload={"strands": nf.strands, "factors": factor_words},
    )
    return 0


def _cmd_word_eq(args) -> int:
    a, b = parse_word(args.word_a), parse_word(args.word_b)
    equal = words_equal(a, b)
    _emit(args, "equal" if equal else "not equal", payload={"equal": equal})
    return 0


def _cmd_census_report(args) -> int:
    entries = census_mod.load_census(args.file)
    reports = census_mod.report_all(entries)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports]))
        return 0
    for r in reports:
        if r.error and r.vector is None:
            print(f"{r.name:8s} ?")
            continue
        inv = r.invariants
        line = (
            f"{r.name:8s} {format_vector(r.vector):18s}"
            f" mu={inv.components} g={inv.genus} t={inv.trip}"
            f" cmin={inv.min_crossing_number} {r.torus}"
        )
        if r.warnings and not args.quiet:
            line += f"  [{'; '.join(r.warnings)}]"
        print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorenzlinks",
        description="Lorenz links, T-links, braid normal forms and invariants.",
    )
    parser.add_argument("--json", action="store_true", help="machine readable output")
    parser.add_argument("--quiet", action="store_true", help="suppress extras")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=func)
        return p

    add("validate", _cmd_validate, "parse a vector and describe it").add_argument("vector")
    add("normalize", _cmd_normalize, "destabilize to normal form or Unknot").add_argument("vector")
    add("dual", _cmd_dual, "dual vector, or dual T-parameters for '(r,s)...' input").add_argument("value")
    add("tbraid", _cmd_tbraid, "twisted-torus braid word of a vector").add_argument("vector")
    add("minimal", _cmd_minimal, "minimal braid-index word of a vector").add_argument("vector")
    add("trip", _cmd_trip, "trip number (= braid index of the closure)").add_argument("vector")
    add("braid-index", _cmd_braid_index, "braid index from T-parameters").add_argument("tparams")
    add("invariants", _cmd_invariants, "full invariant report").add_argument("vector")

    alex = add("alexander", _cmd_alexander, "Alexander polynomial, up to units")
    group = alex.add_mutually_exclusive_group(required=True)
    group.add_argument("--morton", nargs=3, type=int, metavar=("M", "P", "Q"),
                       help="closed formula for <2^2M, P^Q>")
    group.add_argument("--burau", metavar="VECTOR",
                       help="Burau determinant of the vector's minimal word")

    add("is-torus", _cmd_is_torus, "torus-link detection").add_argument("vector")
    add("normal-form", _cmd_normal_form, "left-greedy normal form of a word").add_argument("word")
    weq = add("word-eq", _cmd_word_eq, "decide equality of two positive words")
    weq.add_argument("word_a")
    weq.add_argument("word_b")

    census = sub.add_parser("census", help="census batch operations")
    census_sub = census.add_subparsers(dest="census_command", required=True)
    rep = census_sub.add_parser("report", help="batch report for a census file")
    rep.add_argument("file", nargs="?", default=None,
                     help="census file (bundled table when omitted)")
    rep.set_defaults(func=_cmd_census_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.quiet:
        warnings.simplefilter("ignore")
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
