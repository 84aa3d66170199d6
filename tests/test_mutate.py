"""The mutation pass's own control: ``tools/mutate.py`` makes each swap it
names exactly once, on a planted snippet, and leaves the rest of the
source as it was."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
spec = importlib.util.spec_from_file_location("mutate", SCRIPT)
mutate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutate)


def test_each_operator_is_swapped_once_by_line():
    source = "x = a == b != c\ny = p < q and r >= s\nz = u in v or w is not t or k > 0\n"
    found = mutate.mutants(source)
    assert [(line, swap) for line, swap, _ in found] == [
        (1, "== -> !="),
        (1, "!= -> =="),
        (2, "and -> or"),
        (2, "< -> <="),
        (2, ">= -> >"),
        (3, "or -> and"),
        (3, "in -> not in"),
        (3, "is not -> is"),
        (3, "> -> >="),
    ]
    assert found[0][2] == "x = a != b != c\ny = p < q and r >= s\nz = u in v or w is not t or k > 0"
    # one and/or node joins all its operands, so all of them swap together
    assert found[5][2].endswith("z = u in v and w is not t and (k > 0)")


def test_every_comparison_and_boolean_operator_has_a_swap():
    assert set(mutate.SWAPS) == set(mutate.SYMBOLS)
    assert all(mutate.SWAPS[mutate.SWAPS[op]] is op for op in mutate.SWAPS)
