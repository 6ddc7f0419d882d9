"""
Command-line interface.

Exit codes: 0 on success (verdicts such as NotTorus or "not equal" are
output, not errors), 1 on domain errors (valid syntax, unusable value), 2 on
usage or parse errors, a census file that cannot be read among them.

Each subcommand computes and returns (lines, details, payload); `main` is the
one place that prints.  --json prints the payload as one JSON document;
otherwise the lines are printed, then the details unless --quiet is given.
--quiet also silences warnings and the census rows' warning notes.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional

from . import census as census_mod
from .braid import BraidWord, _image_word, format_word, parse_word
from .errors import ParseError
from .garside import _cut, _product, words_equal
from .invariants import _check_burau_size, burau_alexander, invariant_report, morton_alexander
from .lorenz import (
    UNKNOT,
    dual_vector,
    format_vector,
    minimal_braid_word,
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

# the lines always printed, the detail lines --quiet hides, the --json payload
_Output = tuple[list[str], list[str], object]


def _cmd_validate(args) -> _Output:
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
        rep = invariant_report(v)
        payload["trip"], payload["components"] = rep.trip, rep.components
        details.append(
            f"trip={payload['trip']} components={payload['components']}"
        )
    return [format_vector(v)], details, payload


def _cmd_normalize(args) -> _Output:
    result = normalize(parse_vector(args.vector))
    if result is UNKNOT:
        return ["Unknot"], [], {"vector": None, "unknot": True}
    text = format_vector(result)
    return [text], [], {"vector": text, "unknot": False}


def _cmd_dual(args) -> _Output:
    text = args.value.strip()
    if text.startswith("("):
        dual = format_tparams(dual_tparams(parse_tparams(text)))
        return [dual], [], {"tparams": dual}
    dual = format_vector(dual_vector(parse_vector(text)))
    return [dual], [], {"vector": dual}


def _cmd_tbraid(args) -> _Output:
    word = tbraid_word(vector_to_tparams(parse_vector(args.vector)))
    text = format_word(word)
    return [text], [], {"word": text, "strands": word.strands, "length": len(word)}


def _cmd_minimal(args) -> _Output:
    v = parse_vector(args.vector)
    triple, word = tm_triple(v), minimal_braid_word(v)
    n, m = list(triple.n), list(triple.m)
    payload = {"word": format_word(word), "strands": word.strands, "length": len(word),
               "t": triple.t, "n": n, "m": m}
    return [payload["word"]], [f"t={triple.t} n={n} m={m}"], payload


def _cmd_trip(args) -> _Output:
    t = trip_number(parse_vector(args.vector))
    return [str(t)], [], {"trip": t}


def _cmd_braid_index(args) -> _Output:
    t = braid_index(parse_tparams(args.tparams))
    return [str(t)], [], {"braid_index": t}


def _cmd_invariants(args) -> _Output:
    rep = invariant_report(parse_vector(args.vector))
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
    return [primary], details, rep.to_dict()


def _cmd_alexander(args) -> _Output:
    if args.morton:
        m, p, q = args.morton
        poly = morton_alexander(m, p, q)
    else:
        rep = invariant_report(parse_vector(args.burau))  # t and |M| before any word
        _check_burau_size(rep.trip or 1, rep.min_crossing_number)
        poly = burau_alexander(BraidWord(1) if rep.is_unknot else minimal_braid_word(rep.vector))
    payload = {"alexander": str(poly), "terms": [list(t) for t in poly.terms]}
    return [str(poly)], [], payload


def _cmd_is_torus(args) -> _Output:
    verdict = is_torus(parse_vector(args.vector))
    payload = {"verdict": str(verdict), "torus": verdict.is_torus,
               "decided_by": verdict.decided_by}
    return [str(verdict)], [], payload


def _cmd_normal_form(args) -> _Output:
    # the factors' words read straight off the kernel's image tuples, which
    # normal_form would wrap in validated Permutations
    w = parse_word(args.word)
    factor_words = [_image_word(f) for f in _product(_cut(w.strands, w.letters))]
    human = " | ".join(" ".join(str(i) for i in fw) for fw in factor_words)
    line = (f"n={w.strands} factors={len(factor_words)}: {human}" if factor_words
            else f"n={w.strands} factors=0 (identity)")
    return [line], [], {"strands": w.strands, "factors": factor_words}


def _cmd_word_eq(args) -> _Output:
    a, b = parse_word(args.word_a), parse_word(args.word_b)
    equal = words_equal(a, b)
    return ["equal" if equal else "not equal"], [], {"equal": equal}


def _cmd_census_report(args) -> _Output:
    entries = census_mod.load_census(args.file)
    reports = census_mod.report_all(entries)
    lines = []
    for r in reports:
        if r.error and r.vector is None:
            lines.append(f"{r.name:8s} ?")
            continue
        inv = r.invariants  # None when the row failed
        line = f"{r.name:8s} {format_vector(r.vector):18s}" + (
            f" error: {r.error}" if inv is None
            else f" mu={inv.components} g={inv.genus} t={inv.trip}"
            f" cmin={inv.min_crossing_number} {r.torus}"
        )
        if r.warnings and not args.quiet:
            line += f"  [{'; '.join(r.warnings)}]"
        lines.append(line)
    return lines, [], [r.to_dict() for r in reports]


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
    with warnings.catch_warnings():  # --quiet and the hook must not outlive this call
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        if args.quiet:
            warnings.simplefilter("ignore")
        try:
            lines, details, payload = args.func(args)
            if args.json:
                print(json.dumps(payload))
            else:
                for line in lines + ([] if args.quiet else details):
                    print(line)
            return 0
        except (ParseError, OSError) as exc:  # OSError: the census file cannot be read
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
