import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lorenzlinks import (
    burau_alexander,
    cli,
    cycle_count,
    format_tparams,
    format_vector,
    invariant_report,
    is_torus,
    load_census,
    lorenz_permutation,
    minimal_braid_word,
    normalize,
    parse_vector,
    parse_word,
    report,
    report_all,
    vector_to_tparams,
)
from lorenzlinks import census as census_mod
from lorenzlinks import braid, invariants, lorenz
from lorenzlinks.census import REPORT_SCHEMA, builtin_knotscape_names
from lorenzlinks.errors import ParseError, UnsupportedInput
from lorenzlinks.lorenz import VectorOrderWarning

UNKNOWN_ROWS = {"k7_48", "k7_56", "k7_101", "k7_109", "k7_119"}


def test_census_loads():
    entries = load_census()
    assert len(entries) == 112
    known = [e for e in entries if e.known]
    assert len(known) == 107
    assert {e.name for e in entries if not e.known} == UNKNOWN_ROWS
    assert len({e.name for e in entries}) == 112


def test_census_flagged_rows_sorted_with_warning():
    entries = {e.name: e for e in load_census()}
    # k6_35 is carried corrected (see census.txt), written in order
    assert entries["k6_35"].vector == parse_vector("6^6,8^5")
    assert not entries["k6_35"].warnings
    assert entries["k7_61"].warnings == ("vector '7^10,3^2' is not nondecreasing; sorted",)
    assert entries["k7_61"].vector == parse_vector("3^2,7^10")
    warned = [e.name for e in entries.values() if e.known and e.warnings]
    assert sorted(warned) == ["k7_61"]


def test_census_k6_35_correction_derivation():
    # the evidence behind the corrected row k6_35 = T((6,6),(8,5)); see the
    # notes in census.txt
    entries = {e.name: e for e in load_census()}
    v = entries["k6_35"].vector
    assert format_tparams(vector_to_tparams(v)) == "(6,6)(8,5)"
    rep = invariant_report(v)
    assert (rep.components, rep.trip, rep.genus) == (1, 6, 29)
    assert str(is_torus(v)) == "NotTorus"
    # positive-braid knots are fibred: Delta is monic with span 2g
    word = minimal_braid_word(v)
    assert len(word) == 63
    poly = burau_alexander(word, max_letters=len(word))
    assert poly.span == 2 * rep.genus == 58
    (_, lowest), (_, highest) = poly.terms[0], poly.terms[-1]
    assert abs(lowest) == abs(highest) == 1
    # (genus, braid index) = (29, 6) belongs to no other census knot
    same = []
    for e in entries.values():
        if e.known:
            r = invariant_report(e.vector)
            if (r.components, r.genus, r.trip) == (1, 29, 6):
                same.append(e.name)
    assert same == ["k6_35"]
    # once/twice-twisted families: the pair differs only in s_1 (6 vs 12)
    for once, twice in (("k6_15", "k7_76"), ("k6_18", "k7_78"), ("k6_35", "k7_123")):
        a = vector_to_tparams(entries[once].vector).pairs
        b = vector_to_tparams(entries[twice].vector).pairs
        assert a[0] == (6, 6) and b[0] == (6, 12)
        assert a[1:] == b[1:]


def test_census_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("k1 2^2,3^2\nk2\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        load_census(bad)
    dup = tmp_path / "dup.txt"
    dup.write_text("k1 2^2,3^2\nk1 2^3\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_census(dup)


def test_census_malformed_vector_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("k1 2^2,3^2\nk2 2^x\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        load_census(bad)
    assert cli.main(["census", "report", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "bad.txt:2" in captured.err


def test_report_known_vector():
    rep = report(parse_vector("2^4,3^2,6,8^2"), name="favorite")
    assert rep.invariants.genus == 10
    assert str(rep.torus) == "NotTorus"
    d = rep.to_dict()
    assert d["schema"] == REPORT_SCHEMA
    assert d["invariants"]["crossings"] == {
        "lorenz": 36, "t": 27, "t_dual": 28, "minimal": 22,
    }


def test_report_all_order_and_determinism():
    entries = load_census()[:20]
    first = report_all(entries)
    second = report_all(entries)
    assert [r.name for r in first] == [e.name for e in entries]
    assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


def test_report_all_never_aborts():
    entries = load_census()
    reports = report_all(entries)
    assert len(reports) == 112
    for r in reports:
        if r.name in UNKNOWN_ROWS:
            assert r.error == "vector unknown"
        else:
            assert r.invariants is not None


def test_dehornoy_pair_equal_genus():
    a = report(parse_vector("4,4,5,7,7,7,7,7"))
    b = report(parse_vector("2,3,4,5,5,6,6,6,6,6"))
    assert a.invariants.genus == b.invariants.genus == 17
    assert a.invariants.c_minus_n == b.invariants.c_minus_n == 33


def test_knotscape_asset():
    names = builtin_knotscape_names()
    assert len(names) == 19
    assert names[0] == "3_1" and "16n_996934" in names


def test_cli_examples(capsys):
    assert cli.main(["is-torus", "3^6,8^3"]) == 0
    assert capsys.readouterr().out.strip() == "Torus(3,14)"

    assert cli.main(["dual", "2^4,3^2,6,8^2"]) == 0
    assert capsys.readouterr().out.strip() == "2^2,3^3,5,9^2"

    assert cli.main(["trip", "2^4,3^2,6,8^2"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert cli.main(["dual", "(2,4)(3,2)(6,1)(8,2)"]) == 0
    assert capsys.readouterr().out.strip() == "(2,2)(3,3)(5,1)(9,2)"

    assert cli.main(["braid-index", "(3,6)(8,3)"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    assert cli.main(["normalize", "1,1,4"]) == 0
    assert capsys.readouterr().out.strip() == "Unknot"

    assert cli.main(["word-eq", "n=3 1 2 1", "n=3 2 1 2"]) == 0
    assert capsys.readouterr().out.strip() == "equal"

    assert cli.main(["word-eq", "n=3 1", "n=3 2"]) == 0
    assert capsys.readouterr().out.strip() == "not equal"

    assert cli.main(["alexander", "--morton", "1", "3", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 - t + t^2 - t^3 + t^4"


def test_cli_normal_form(capsys):
    assert cli.main(["normal-form", "n=3 1 1 2"]) == 0
    out = capsys.readouterr().out
    assert "factors=2" in out


def test_cli_normal_form_of_the_empty_word(capsys):
    assert cli.main(["normal-form", "n=3"]) == 0
    assert capsys.readouterr().out == "n=3 factors=0 (identity)\n"
    assert cli.main(["--json", "normal-form", "n=3"]) == 0
    assert json.loads(capsys.readouterr().out) == {"strands": 3, "factors": []}


def test_cli_normalize_destabilizes(capsys):
    assert cli.main(["normalize", "1,2,3,4"]) == 0
    assert capsys.readouterr().out == "2,3^2\n"
    assert cli.main(["--json", "normalize", "1,2,3,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"vector": "2,3^2", "unknot": False}


def test_cli_validate_and_minimal(capsys):
    assert cli.main(["validate", "2^4,3^2,6,8^2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "2^4,3^2,6,8^2"
    assert "trip=3" in out

    assert cli.main(["minimal", "2^2"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "n=2 1 1"

    assert cli.main(["tbraid", "3^6,8^3"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("n=8 ")
    assert len(out.split()) == 1 + 33  # header + S - p letters


def test_cli_validate_reports_trip_and_components(capsys):
    assert cli.main(["--json", "validate", "3^6"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["trip"], payload["components"]) == (3, 3)
    assert cli.main(["validate", "2^2"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "trip=2 components=2"
    assert cli.main(["--json", "validate", "1,1,4"]) == 0
    assert "components" not in json.loads(capsys.readouterr().out)


def test_cli_huge_multiplicity_is_exact(capsys):
    # a vector is held as its runs, so no command here expands the 10^20 entries
    n = 99999999999999999999
    text = f"2^{n},3^5"
    p, total = n + 5, 2 * n + 15
    expected = {
        "validate": [text, f"p={p} d_p=3 strands={p + 3} crossings={total}",
                     "normalized=yes", "trip=3 components=2"],
        "normalize": [text],
        "trip": ["3"],
        "dual": [f"5,{p}^2"],
    }
    for command, lines in expected.items():
        assert cli.main([command, text]) == 0, command
        assert capsys.readouterr() == ("\n".join(lines) + "\n", ""), command
    assert cli.main(["--json", "invariants", text]) == 0
    rep = json.loads(capsys.readouterr().out)
    cmn = total - p - 3
    assert rep["crossings"] == {"lorenz": total, "t": total - p, "t_dual": total - 3,
                                "minimal": cmn + 3}
    assert (rep["trip"], rep["components"], rep["genus"]) == (3, 2, cmn // 2)


def test_cli_huge_dp_exits_1(capsys):
    # mu is walked on the t strands, so a huge d_p with t = 2 is answered;
    # is-torus still exits 1, at the letter cap of X at its "burau" rung
    text = "2^3,99999999999999999999^2"
    assert cli.main(["validate", text]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "trip=2 components=2"
    assert cli.main(["--json", "invariants", text]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["trip"], rep["components"]) == (2, 2)
    assert cli.main(["is-torus", text]) == 1
    assert capsys.readouterr() == (
        "", f"error: word exceeds the cap of {braid.MAX_LETTERS} letters\n")
    assert cli.main(["--json", "invariants", "7^1000000000000,1000000000000000000^3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["trip"], rep["components"]) == (7, 1)


def test_cli_many_runs_exits_1(capsys):
    # the walk's cost t (k + 15) is capped before its list of t entries is
    # built, in place of the old caps of 100 runs and 100,000 T-braid strands
    text = ",".join(str(r) for r in range(2, 102)) + ",102^2"
    nv = parse_vector(text)
    assert len(nv.rle) == 101
    for command in ("validate", "invariants"):
        assert cli.main([command, text]) == 0, command
        capsys.readouterr()
    assert invariant_report(nv).components == cycle_count(lorenz_permutation(nv))
    text = "10000000^10000000"
    err = ("error: t = 10000000, k = 1: t (k + 15) exceeds the cap of"
           f" {invariants.MAX_WALK_COST} for the component count\n")
    for command in ("validate", "invariants"):
        tracemalloc.start()
        try:
            code = cli.main([command, text])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (command, peak)
        assert code == 1, command
        assert capsys.readouterr() == ("", err), command
    # is-torus counts mu only at its components rung, past the tparams rung
    assert cli.main(["is-torus", text]) == 0
    assert capsys.readouterr().out == "Torus(10000000,10000000)\n"
    # the largest inputs of the old caps stay admitted: d_p = 100,000, k = 100;
    # the first is exactly at the new cap, and one more run passes it
    assert invariant_report(parse_vector("100000^100000")).components == 100000
    for first in (99901, 2):
        nv = parse_vector(",".join(str(r) for r in range(first, first + 99)) + ",100000^100000")
        assert len(nv.rle) == 100 and nv.dp == 100000
        assert invariant_report(nv).components == cycle_count(lorenz_permutation(nv))
    assert invariant_report(nv).trip * 115 == invariants.MAX_WALK_COST
    with pytest.raises(UnsupportedInput):
        invariant_report(parse_vector(",".join(map(str, range(2, 102))) + ",100000^100000"))


def test_cli_morton_degree_cap_exits_1(capsys):
    # the degree pq + 2m = 100010002 is refused before any list is built
    assert cli.main(["alexander", "--morton", "1", "10001", "10000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: pq + 2m = 100010002 exceeds the cap of "
                   f"{invariants.MAX_MORTON_DEGREE} for Morton's formula\n")


def test_cli_over_long_term_exits_1(capsys):
    # the digits are counted before int() converts them
    assert cli.main(["validate", "2," + "3" * 5000]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a vector term of 5000 digits exceeds the cap of 4300 digits\n"


def test_census_over_long_term_names_its_row(tmp_path, capsys):
    # an UnsupportedInput from a census row keeps its type, so exit 1, and names the row
    bad = tmp_path / "long.txt"
    bad.write_text("k1 2," + "3" * 5000 + "\n")
    with pytest.raises(UnsupportedInput, match="long.txt:1: a vector term of 5000 digits"):
        load_census(bad)
    assert cli.main(["census", "report", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: long.txt:1: a vector term of 5000 digits exceeds the cap of 4300 digits\n"


def test_cli_alexander_burau(capsys):
    assert cli.main(["alexander", "--burau", "2^2,3^2"]) == 0
    assert capsys.readouterr().out.strip() == "1 - t + t^2 - t^3 + t^4"
    assert cli.main(["alexander", "--burau", "1,1,4"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_alexander_burau_hopf_link(capsys):
    # links are accepted: the Hopf link closes sigma_1^2
    assert cli.main(["alexander", "--burau", "2^2"]) == 0
    assert capsys.readouterr().out.strip() == "1 - t"


def test_cli_alexander_burau_unknot_json(capsys):
    assert cli.main(["--json", "alexander", "--burau", "1,1,4"]) == 0
    assert json.loads(capsys.readouterr().out) == {"alexander": "1", "terms": [[0, 1]]}


def test_cli_alexander_burau_covers_census(capsys):
    # the default caps admit every known census knot; span = 2g
    for entry in load_census():
        if not entry.known:
            continue
        text = format_vector(entry.vector)
        assert cli.main(["--json", "alexander", "--burau", text]) == 0, entry.name
        terms = json.loads(capsys.readouterr().out)["terms"]
        span = terms[-1][0] - terms[0][0]
        assert span == 2 * invariant_report(entry.vector).genus, entry.name


def test_cli_alexander_burau_checks_the_caps_before_the_word(capsys):
    # t and |M| come from the vector's invariant report, so a word over the
    # caps is refused before it is built: a million letters and a billion
    # alike, with the word route's one error line
    for n in (10 ** 6, 10 ** 9):
        tracemalloc.start()
        try:
            code = cli.main(["alexander", "--burau", f"2^{n},3^2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (n, peak)
        assert code == 1
        assert capsys.readouterr() == (
            "", f"error: word too large for the Burau oracle (2 strands, {n + 3} letters)\n")
    # words small enough to build get the same output as burau_alexander's check
    for text, size in (("2^200,3^2", (2, 203)), ("11^12", (11, 120))):
        word = minimal_braid_word(normalize(parse_vector(text)))
        assert (word.strands, len(word)) == size
        with pytest.raises(UnsupportedInput) as exc:
            burau_alexander(word)
        assert cli.main(["alexander", "--burau", text]) == 1
        assert capsys.readouterr() == ("", f"error: {exc.value}\n")


def test_cli_refuses_words_past_the_caps_before_building_them(capsys):
    # the letter cap sizes minimal and tbraid from their blocks, the strand
    # cap refuses a parsed word before the Garside cut lists its strands, and
    # the cost cap reads only the header and the token count: 1,000 letters
    # on 10,000 strands took 5.8 s and about 390 MB, and on 3 strands
    # sigma_1^10000 then Deltas, each sliding past every sigma_1, longer still
    letters = f"error: word exceeds the cap of {braid.MAX_LETTERS} letters\n"
    strands = f"error: n = 100000000 exceeds the cap of {braid.MAX_WORD_STRANDS} strands\n"
    cost = (f"error: {{}} letters on {{}} strands: L (n + 25) (L + 500) exceeds the cap of"
            f" {braid.MAX_WORD_COST}\n")
    for argv, err in ((["minimal", "2^100000000,3^2"], letters),
                      (["minimal", "1000000000^1000000000"], letters),
                      (["tbraid", "2^100000000,3^2"], letters),
                      (["normal-form", "n=100000000 1"], strands),
                      (["word-eq", "n=100000000 1", "n=100000000 1"], strands),
                      (["word-eq", "n=3 1", "n=100000000 1"], strands),
                      (["normal-form", "n=10000" + " 1" * 1000], cost.format(1000, 10000)),
                      (["word-eq", "n=3 1", "n=3" + " 1" * 10000 + " 1 2 1" * 3334],
                       cost.format(20002, 3))):
        for flags in ([], ["--json"]):
            tracemalloc.start()
            try:
                code = cli.main(flags + argv)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (argv, peak)
            assert code == 1
            assert capsys.readouterr() == ("", err)
    # at the strand cap a word is still taken
    assert cli.main(["normal-form", f"n={braid.MAX_WORD_STRANDS} 1 {braid.MAX_WORD_STRANDS - 1}"]) == 0
    assert capsys.readouterr().out == f"n={braid.MAX_WORD_STRANDS} factors=1: 1 9999\n"
    # at the cost cap the costliest pattern measured, on 3 strands, is read
    # and normalized near the 0.25 s budget; one letter more is refused
    size = max(n for n in range(10_000) if n * 28 * (n + 500) <= braid.MAX_WORD_COST)
    word = [1] * (size // 2) + ([1, 2, 1] * size)[:size - size // 2]
    text = "n=3 " + " ".join(map(str, word))
    start = time.perf_counter()
    assert cli.main(["normal-form", text]) == 0
    assert time.perf_counter() - start < 1.0
    capsys.readouterr()
    with pytest.raises(UnsupportedInput):
        parse_word(text + " 1")


def test_cli_is_torus_refuses_an_x_past_the_letter_cap():
    # X would have 6,000,002 letters; the crossings rung counts its blocks and
    # agrees, and the Burau rung, which needs the letters, refuses it at once
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "lorenzlinks.cli", "is-torus", "2^2,3^3000000,5^2"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: word exceeds the cap of {braid.MAX_LETTERS} letters\n"


def test_cli_is_torus_answers_before_the_caps_it_no_longer_needs(capsys):
    # the T-parameter rung runs before mu is counted, so d_p is not capped
    # there; the crossings rung counts X's blocks, so the letter cap is not
    # reached on a NotTorus verdict that it decides
    assert cli.main(["is-torus", "99999999999999999999^5"]) == 0
    assert capsys.readouterr() == ("Torus(5,99999999999999999999)\n", "")
    for text in ("2^64,9^2000000", "2^6,7^3000001"):  # X past the letter cap
        t0 = time.perf_counter()
        assert cli.main(["--json", "is-torus", text]) == 0
        elapsed = time.perf_counter() - t0
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "NotTorus", "torus": False, "decided_by": "crossings"}, text
        assert elapsed < 0.1, (text, elapsed)


def test_census_rows_are_distinct_knots():
    # no two known rows are one knot: (genus, trip, Burau Delta) tells all 107
    # apart, where (genus, trip) alone gives 90 classes; a misprinted row that
    # lands on another row's knot fails here
    classes = set()
    for entry in load_census():
        if entry.known:
            rep = invariant_report(entry.vector)
            delta = burau_alexander(minimal_braid_word(rep.vector))
            classes.add((rep.genus, rep.trip, delta.terms))
    assert len(classes) == 107
    assert len({(genus, trip) for genus, trip, _ in classes}) == 90


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # every command of the README's CLI block exits 0, and the two outputs its
    # comments name are the ones printed
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    commands = [line for line in block.splitlines() if line.startswith("lorenzlinks ")]
    assert len(commands) == 16
    (tmp_path / "mydata.txt").write_text("fav 2^4,3^2,6,8^2\nmystery ?\n")
    monkeypatch.chdir(tmp_path)
    named = {"normalize": "Unknot", "is-torus": "Torus(3,14)"}
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        assert cli.main(argv) == 0, line
        out = capsys.readouterr().out
        if argv[0] in named:
            assert named[argv[0]] in line.split("#", 1)[1], line
            assert out == named[argv[0]] + "\n", line


def test_cli_is_torus_unknot(capsys):
    assert cli.main(["is-torus", "1,1,7"]) == 0
    assert capsys.readouterr().out.strip() == "Unknot"


def test_cli_census_report_explicit_file(tmp_path, capsys):
    f = tmp_path / "mini.txt"
    f.write_text("# tiny census\nfav 2^4,3^2,6,8^2\nmystery ?\n")
    assert cli.main(["--json", "census", "report", str(f)]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == ["fav", "mystery"]
    assert reports[0]["invariants"]["genus"] == 10
    assert reports[1]["error"] == "vector unknown"


def test_cli_census_report_of_an_empty_file(tmp_path, capsys):
    # no rows: no output at all in text mode, not a blank line
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert cli.main(["census", "report", str(empty)]) == 0
    assert capsys.readouterr() == ("", "")
    assert cli.main(["--json", "census", "report", str(empty)]) == 0
    assert capsys.readouterr() == ("[]\n", "")


def test_cli_quiet_suppresses_details(capsys):
    assert cli.main(["--quiet", "invariants", "2^3"]) == 0
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1


def test_cli_prints_a_warning_as_one_line(capsys):
    warning = "warning: vector '3,2' is not nondecreasing; sorted\n"
    assert cli.main(["invariants", "3,2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out.splitlines()[0] == "2^2: mu=2 g=0"
    assert cli.main(["--json", "invariants", "3,2"]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert json.loads(captured.out)["vector"] == "2^2"
    assert cli.main(["--quiet", "invariants", "3,2"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_quiet_leaves_warning_filters_alone(capsys):
    before, hook = list(warnings.filters), warnings.showwarning
    assert cli.main(["--quiet", "validate", "3,2"]) == 0
    capsys.readouterr()
    assert warnings.filters == before
    assert warnings.showwarning is hook
    with pytest.warns(VectorOrderWarning):
        parse_vector("3,2")


def _count_calls(monkeypatch, fn) -> list:
    """Wrap fn under every lorenzlinks module name bound to it; the list
    returned grows by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lorenzlinks" and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_census_report_computes_each_rows_facts_once(monkeypatch):
    # mu comes from one walk on the t strands; the Lorenz permutation on
    # p + d_p strands is never walked.
    reports = _count_calls(monkeypatch, invariants.invariant_report)
    counts = _count_calls(monkeypatch, invariants._components)
    walks = _count_calls(monkeypatch, lorenz.lorenz_permutation)
    known = [e for e in load_census() if e.known]
    assert len(known) == 107
    for entry in known:
        reports.clear()
        counts.clear()
        walks.clear()
        census_mod.report(entry.vector, entry.name)
        assert (len(reports), len(counts), len(walks)) == (1, 1, 0), entry.name


def test_cli_census_report_survives_a_failed_row(monkeypatch, capsys):
    verdict = census_mod._verdict

    def failing_verdict(rep):
        if format_vector(rep.vector) == "2^2,3^5":  # k3_1
            raise MemoryError("out of memory")
        return verdict(rep)

    monkeypatch.setattr(census_mod, "_verdict", failing_verdict)
    assert cli.main(["census", "report"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 112
    (row,) = [line for line in lines if line.startswith("k3_1 ")]
    assert row.split() == ["k3_1", "2^2,3^5", "error:", "MemoryError:", "out", "of", "memory"]
    assert sum("error:" in line for line in lines) == 1

    assert cli.main(["--json", "census", "report"]) == 0
    reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
    assert len(reports) == 112
    assert reports["k3_1"]["error"] == "MemoryError: out of memory"
    assert reports["k3_1"]["invariants"] is None


def test_cli_exit_codes(capsys, tmp_path):
    # parse error -> 2
    assert cli.main(["trip", "zzz"]) == 2
    capsys.readouterr()
    # a census file that is missing, a directory or not UTF-8 -> 2, one error line
    binary = tmp_path / "binary.txt"
    binary.write_bytes(bytes([0x7F, 0x45, 0x4C, 0x46, 0x02, 0xD0, 0xFF, 0xFE]) * 25)
    for path in (tmp_path / "no-such-file", tmp_path, binary):
        assert cli.main(["census", "report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert "binary.txt" in err
    # domain error (non-normalized vector) -> 1
    assert cli.main(["trip", "1,2,2"]) == 1
    capsys.readouterr()
    # NotTorus is output, not an error -> 0
    assert cli.main(["is-torus", "2^2,3^5"]) == 0
    assert capsys.readouterr().out.strip() == "NotTorus"
    # usage error -> SystemExit(2) from argparse
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_runs_as_module():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lorenzlinks.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    bad = run("is-torus", "not a vector")
    assert bad.returncode == 2
    assert bad.stderr.startswith("error:")
    ok = run("--json", "census", "report")
    assert ok.returncode == 0
    assert len(json.loads(ok.stdout)) == 112


def test_cli_json_round_trip(capsys):
    assert cli.main(["--json", "invariants", "2^4,3^2,6,8^2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["genus"] == 10
    assert payload["crossings"]["minimal"] == 22

    assert cli.main(["--json", "census", "report"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 112
    assert REPORT_SCHEMA == "lorenzlinks.report/2"
    assert all(r["schema"] == REPORT_SCHEMA for r in reports)
    decided = [r["torus_decided_by"] for r in reports]
    assert decided.count(None) == 5  # the unknown rows
    assert set(decided) == {None, "length", "components", "crossings", "burau"}

    assert cli.main(["--json", "is-torus", "3^6,8^3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "Torus(3,14)", "torus": True, "decided_by": "tparams",
    }
    assert cli.main(["--json", "is-torus", "2^2,4^3"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "verdict": "Torus(3,5)", "torus": True, "decided_by": "garside",
    }
    # serialization fidelity: re-dumping the parsed payload is stable
    assert json.loads(json.dumps(reports)) == reports


def test_cli_census_text(capsys):
    assert cli.main(["census", "report"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 112
    assert any(line.startswith("k7_119") and line.rstrip().endswith("?") for line in out)


# Small argv for every subcommand but census: a stray character now and then
# makes a parse error.  tbraid, minimal and alexander --burau size their words
# before they build them, so they also draw multiplicities up to 10^12.
_STRAY = st.sampled_from([""] * 12 + ["x", ",", "^", "-", "(", " ", "0"])


def _stray(text: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(text, _STRAY, st.booleans()).map(
        lambda t: t[1] + t[0] if t[2] else t[0] + t[1])


def _vector(multiplicity: st.SearchStrategy) -> st.SearchStrategy:
    return _stray(st.lists(
        st.tuples(st.integers(1, 9), multiplicity).map(
            lambda rs: str(rs[0]) if rs[1] == 1 else f"{rs[0]}^{rs[1]}"),
        min_size=1, max_size=4).map(",".join))


_VECTOR = _vector(st.integers(1, 6))
_HUGE_VECTOR = _vector(st.one_of(st.integers(1, 6), st.integers(1, 10 ** 12)))
_TPARAMS = _stray(st.lists(
    st.tuples(st.integers(1, 9), st.integers(1, 6)).map(lambda rs: f"({rs[0]},{rs[1]})"),
    min_size=1, max_size=4).map("".join))
_WORD = _stray(st.tuples(
    st.integers(1, 5), st.lists(st.integers(1, 4), max_size=12)).map(
        lambda nw: " ".join([f"n={nw[0]}"] + [str(i) for i in nw[1]])))
_MORTON = st.lists(st.integers(-2, 9), min_size=3, max_size=3).map(
    lambda mpq: ["--morton"] + [str(x) for x in mpq])
_ARGV = st.one_of(
    *[_VECTOR.map(lambda v, c=c: [c, v]) for c in (
        "validate", "normalize", "dual", "trip", "invariants", "is-torus")],
    *[_HUGE_VECTOR.map(lambda v, c=c: [c, v]) for c in ("tbraid", "minimal")],
    _TPARAMS.map(lambda t: ["dual", t]),
    _TPARAMS.map(lambda t: ["braid-index", t]),
    _MORTON.map(lambda m: ["alexander"] + m),
    _HUGE_VECTOR.map(lambda v: ["alexander", "--burau", v]),
    _WORD.map(lambda w: ["normal-form", w]),
    st.tuples(_WORD, _WORD).map(lambda ab: ["word-eq", *ab]),
)
_FLAGS = st.sampled_from([[], ["--json"], ["--quiet"], ["--json", "--quiet"]])


@settings(max_examples=400, deadline=None)
@given(_FLAGS, _ARGV)
def test_cli_output_contract(flags, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(flags + argv)
        except SystemExit as exc:  # argparse's usage error, and only that
            assert exc.code == 2
            assert out.getvalue() == ""
            assert ": error: " in err.getvalue().splitlines()[-1]
            return
    out, lines = out.getvalue(), err.getvalue().splitlines()
    assert code in (0, 1, 2)
    warned = [line for line in lines if line.startswith("warning: ")]
    assert not (warned and "--quiet" in flags)
    if code == 0:
        assert lines == warned
        if "--json" in flags:
            assert out.endswith("\n") and out.count("\n") == 1
            json.loads(out)
    else:
        assert out == ""
        assert lines[:-1] == warned and lines[-1].startswith("error: ")
