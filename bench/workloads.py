"""
The four workloads: their inputs, how one item calls the program, and what
each item's output is checked against.

An item is a Lorenz vector written as text, as a user would give it.  Every
item parses its text afresh, so no program object carries over from one pass
to the next.  The seed fixes the inputs: the same seed gives the same items
in the same order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import checks
import oracle

CENSUS = Path("src/lorenzlinks/data/census.txt")

# r^s torus families as (t, q) = (min, max): minimal words of (t-1) q letters,
# from 60 to 3200.  Fixed, because is_torus time swings several-fold with
# q mod t, so a seeded size would let the seed set the figures.
TORUS_FAMILIES = [
    (4, 21), (5, 27), (6, 35), (7, 40), (8, 47), (9, 55), (10, 63),
    (11, 71), (12, 80), (13, 100), (14, 110), (15, 130), (16, 160), (17, 200),
]

# Morton-family knots <2^2m, p^q> with (p-1) | 2m, so that the minimal word
# passes the length rule and Garside decides; gcd(p, q) = 1, so each is a
# knot.  Fixed for the same reason: the time swings several-fold with m.
TORUS_MORTON = [
    (2, 3, 7), (4, 5, 11), (3, 7, 12), (7, 8, 15), (5, 11, 14), (3, 7, 29),
    (5, 11, 19), (8, 9, 23), (6, 13, 20), (6, 13, 23), (9, 10, 39),
]

# The alexander CLI command's vector: census knot k6_15, whose minimal word
# (6 strands, 53 letters) lies within the Burau route's default cap.
ALEXANDER_CLI_VECTOR = "6^6,7^4"

# Morton-family knots for the Burau route, 5 to 17 strands.
ALEXANDER_MORTON = [
    (2, 5, 7), (3, 7, 9), (4, 9, 11), (5, 11, 13), (6, 13, 15), (7, 15, 17),
    (2, 17, 18), (1, 5, 12), (3, 9, 13), (4, 7, 16), (2, 11, 15), (5, 13, 14),
]

# invariants: p on a geometric grid from 20 to 1500, and r_k rising from 4
# to 60 with it.  The seed draws the inner runs; S = sum d_i is held within
# one percent of p (r_k + 2) / 2, so that the work per slot, quadratic in
# p + r_k and linear in S, does not depend on the seed and grows from slot
# to slot.  An odd count keeps the median on one slot.
INVARIANT_SLOTS = 25
INVARIANT_P = (20, 1500)


@dataclass(frozen=True)
class Item:
    kind: str  # report | invariants | torus | burau | morton
    text: str  # the vector, as a user writes it
    name: str = ""  # census name, for report items
    size: int = 0  # what scaling is fitted against: p, or minimal-word letters


def census_rows(root: Path) -> list[tuple[str, str | None]]:
    """(name, vector text or None for "?") for every row, in file order."""
    rows = []
    for raw in (root / CENSUS).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, body = line.split(None, 1)
            rows.append((name, None if body.strip() == "?" else body.strip()))
    return rows


def minimal_letters(text: str) -> int:
    return oracle.minimal_letters(oracle.normalized(oracle.parse(text)))


def _invariant_vector(rng: random.Random, p: int, rk: int) -> str:
    """A normalized vector with p entries, largest entry rk and S near target."""
    target = p * (rk + 2) / 2
    tolerance = max(0.01 * target, rk)
    while True:
        k = rng.randint(2, min(5, rk - 1, p - 1))
        rs = sorted(rng.sample(range(2, rk), k - 1))
        weights = [rng.random() + 0.05 for _ in rs]
        r_mean = sum(w * r for w, r in zip(weights, rs)) / sum(weights)
        sk = round((target - p * r_mean) / (rk - r_mean))
        if not 2 <= sk <= p - (k - 1):
            continue
        rest = p - sk
        ss = [1 + math.floor((rest - len(rs)) * w / sum(weights)) for w in weights]
        ss[0] += rest - sum(ss)
        if abs(sum(s * r for s, r in zip(ss, rs)) + sk * rk - target) <= tolerance:
            return ",".join(f"{r}^{s}" if s > 1 else str(r)
                            for r, s in zip(rs + [rk], ss + [sk]))


def _morton_text(m: int, p: int, q: int) -> str:
    return f"2^{2 * m},{p}^{q}"


def build(workload: str, seed: int, root: Path, lorenzlinks) -> tuple[list[Item], list[str], list[str]]:
    """The items of one pass in order, the argv of the workload's CLI
    command, and the problems found while building them."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        rows = census_rows(root)
        loaded = [(e.name, e.known) for e in lorenzlinks.census.load_census()]
        problems = [] if loaded == [(name, text is not None) for name, text in rows] else [
            "load_census disagrees with the rows of census.txt"]
        items = [Item("report", text, name) for name, text in rows if text is not None]
        rng.shuffle(items)
        return items, ["--json", "census", "report"], problems
    if workload == "invariants":
        lo, hi = INVARIANT_P
        items = []
        for j in range(INVARIANT_SLOTS):
            p = round(lo * (hi / lo) ** (j / (INVARIANT_SLOTS - 1)))
            rk = round(4 + 56 * j / (INVARIANT_SLOTS - 1))
            items.append(Item("invariants", _invariant_vector(rng, p, rk), size=p))
        largest = items[-1].text
        rng.shuffle(items)
        return items, ["--json", "invariants", largest], []
    if workload == "torus":
        items = []
        for t, q in TORUS_FAMILIES:
            r, s = (t, q) if rng.random() < 0.5 else (q, t)
            items.append(Item("torus", f"{r}^{s}", size=(t - 1) * q))
        items += [Item("torus", _morton_text(*knot)) for knot in TORUS_MORTON]
        middle = "{}^{}".format(*TORUS_FAMILIES[len(TORUS_FAMILIES) // 2])
        rng.shuffle(items)
        return items, ["--json", "is-torus", middle], []
    if workload == "alexander":
        items = [Item("burau", text, name, size=minimal_letters(text))
                 for name, text in census_rows(root) if text is not None]
        for m, p, q in ALEXANDER_MORTON:
            text = _morton_text(m, p, q)
            items.append(Item("burau", text, size=minimal_letters(text)))
            items.append(Item("morton", text))
        rng.shuffle(items)
        return items, ["--json", "alexander", "--burau", ALEXANDER_CLI_VECTOR], []
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("census", "invariants", "torus", "alexander")


def run_item(item: Item, lorenzlinks):
    """One item, through the public functions, looked up at call time."""
    v = lorenzlinks.lorenz.parse_vector(item.text)
    if item.kind == "report":
        return lorenzlinks.census.report(v, item.name)
    if item.kind == "invariants":
        return lorenzlinks.invariants.invariant_report(v)
    if item.kind == "torus":
        return lorenzlinks.torus.is_torus(v)
    if item.kind == "burau":
        w = lorenzlinks.lorenz.minimal_braid_word(lorenzlinks.lorenz.normalize(v))
        return lorenzlinks.invariants.burau_alexander(
            w, max_strands=w.strands, max_letters=len(w))
    if item.kind == "morton":
        (_, twice_m), (p, q) = v.rle
        return lorenzlinks.invariants.morton_alexander(twice_m // 2, p, q)
    raise ValueError(f"unknown item kind {item.kind!r}")


def plain(item: Item, out):
    """The output in the form the checks read, the same as the CLI's JSON."""
    if item.kind in ("report", "invariants"):
        return out.to_dict()
    if item.kind == "torus":
        return str(out)
    return [list(term) for term in out.terms]


def expected(item: Item):
    """What the item's output must match, computed apart from the program."""
    d = oracle.normalized(oracle.parse(item.text))
    if item.kind in ("report", "invariants"):
        return oracle.closed_forms(d)
    if item.kind == "torus":
        if len(oracle.pairs(d)) == 1:
            return "Torus({},{})".format(*sorted((d[0], len(d))))
        if not oracle.proven_not_torus(d):
            raise ValueError(f"no proof that {item.text} is not a torus knot")
        return "NotTorus"
    morton = oracle.morton_params(d)
    return {"twice_genus": 2 * oracle.closed_forms(d)["genus"],
            "morton": None if morton is None else oracle.morton_poly(*morton)}


def check(item: Item, got, exp) -> list[str]:
    if item.kind == "report":
        return checks.report(got, item.name, exp)
    if item.kind == "invariants":
        return checks.invariants(got, exp)
    if item.kind == "torus":
        return checks.torus(got, exp)
    return checks.alexander(got, exp["twice_genus"], exp["morton"])


def check_cli(workload: str, argv: list[str], stdout: str, root: Path) -> list[str]:
    """Problems with the CLI command's output."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return [f"CLI printed no JSON: {stdout[:200]!r}"]
    if workload == "census":
        rows = census_rows(root)
        exp = {name: oracle.closed_forms(oracle.normalized(oracle.parse(text)))
               for name, text in rows if text is not None}
        return checks.census_cli(payload, rows, exp)
    if not isinstance(payload, dict):
        return [f"CLI printed {type(payload).__name__}, not an object"]
    item = Item({"alexander": "burau"}.get(workload, workload), argv[-1])
    exp = expected(item)
    if workload == "invariants":
        return check(item, payload, exp)
    if workload == "torus":
        flag = payload.get("torus") == exp.startswith("Torus")
        return check(item, payload.get("verdict"), exp) + (
            [] if flag else ["CLI torus flag disagrees with its verdict"])
    return check(item, payload.get("terms"), exp)
