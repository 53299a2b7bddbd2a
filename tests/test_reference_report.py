"""tests/reference_report.py, a reference for h1 and euler_sum that
imports nothing from seifert, against known groups and against the
package.

In Orlik's convention it gives the known groups, where the package's
first_homology gives a strict xfail per row, each naming the ROADMAP
item that mends it. Written with the package's two conventions instead
it equals first_homology on golden and on seeded draws. And on golden,
Orlik's h1 departs from the report on exactly the closed lines of item 2
and the bounded lines of item 11, while euler_sum agrees everywhere: each
item's fix takes one count of that partition to 0.
"""

import ast
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import reference_report as ref
from seifert import first_homology, parse_symbol, render_symbol
from symbolgen import random_symbol

TESTS = Path(__file__).resolve().parent
GOLDEN = [json.loads(line) for line in
          (TESTS / "data" / "golden_report.jsonl").read_text().splitlines()]


def _mark(item, why):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {why}")


ITEM_2 = _mark(2, "the group side reads b with the opposite sign")
ITEM_11 = _mark(11, "a bounded presentation has no long relator, so each "
                "boundary generator is free")

# (symbol, H1, the item whose fix first_homology waits for)
KNOWN = [
    ("(O,o,0; m=1 | -)", "Z", ITEM_11),  # the solid torus
    ("(O,o,0; m=2 | -)", "Z^2", ITEM_11),  # T2 x I
    ("(O,n,1; m=1 | -)", "Z + Z/2", ITEM_11),
    ("(N,n,I,1; m=1 | -)", "Z^2", ITEM_11),
    # three platycosms (Conway-Rossetti, "Describing the platycosms", 2003)
    ("(O,o,0 | -1, (2,1), (3,1), (6,1))", "Z", ITEM_2),
    ("(O,o,0 | -1, (2,1), (4,1), (4,1))", "Z + Z/2", ITEM_2),
    ("(O,o,0 | -1, (3,1), (3,1), (3,1))", "Z + Z/3", ITEM_2),
    ("(O,o,0 | -1, (2,1), (3,1), (5,1))", "trivial", ITEM_2),  # Poincare
]


def test_the_reference_imports_nothing_from_seifert():
    tree = ast.parse((TESTS / "reference_report.py").read_text())
    modules = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names]
    modules += [n.module for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)]
    assert modules and not [m for m in modules
                            if m is None or m.split(".")[0] == "seifert"]


@pytest.mark.parametrize("text,group", [row[:2] for row in KNOWN],
                         ids=[row[0] for row in KNOWN])
def test_the_reference_gives_the_known_groups(text, group):
    assert ref.h1(text) == group


@pytest.mark.parametrize("text,group", [
    pytest.param(text, group, marks=mark) for text, group, mark in KNOWN],
    ids=[row[0] for row in KNOWN])
def test_first_homology_gives_the_known_groups(text, group):
    assert first_homology(parse_symbol(text)).describe() == group


def test_the_reader_reads_every_field():
    assert ref.read_symbol("(N,n,III,4; m=1, kb=2 | -, (3,1), (5,2))") == {
        "total": "N", "orbit": "n", "subtype": "III", "genus": 4, "tori": 1,
        "klein": 2, "b": None, "s": 0, "pairs": [(3, 1), (5, 2)]}
    assert ref.read_symbol("(N,o,1 | (1,3), (4,1))") == {
        "total": "N", "orbit": "o", "subtype": None, "genus": 1, "tori": 0,
        "klein": 0, "b": 1, "s": 3, "pairs": [(4, 1)]}
    assert ref.read_symbol("(O,o,2 | -12)")["b"] == -12
    with pytest.raises(ValueError):
        ref.read_symbol("(O,o,0 | 1, (2,1)")


def test_in_the_package_conventions_the_reference_is_first_homology():
    texts = [rec["normalized"] for rec in GOLDEN]
    rng = random.Random(7)
    texts += [render_symbol(random_symbol(rng)) for _ in range(2000)]
    differ = [text for text in texts if ref.h1(text, orlik=False)
              != first_homology(parse_symbol(text)).describe()]
    assert differ == []


def test_on_golden_h1_departs_only_where_items_2_and_11_say():
    h1 = Counter()
    euler = Counter()
    for rec in GOLDEN:
        text = rec["normalized"]
        closed = ref.read_symbol(text)["b"] is not None
        h1["closed" if closed else "bounded"] += ref.h1(text) != rec["h1"]
        assert ref.euler_sum(text) == rec["euler_sum"]
        euler[rec["euler_sum"] is not None] += 1
    # item 2 takes the closed count to 0, item 11 the bounded one
    assert h1 == {"closed": 66, "bounded": 30}
    assert euler == {True: 120, False: 80}
