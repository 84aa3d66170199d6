"""Regenerate ``pools.json``, the frozen source tables the workloads draw from.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_pools.py

The file is committed, so the benchmark's inputs stay the same when the
program's corpus or constructors change; the benchmark itself never calls
this script.  Regenerate only on purpose, and re-measure the baseline after.

* ``transfer``: every completely regular corpus member of order 4 to 6.
* ``breakable-scan``: order 8 to 12 tables from the ``families`` constructors:
  rectangular bands, a left zero semigroup (its dual is the right zero one),
  a chain, direct products with cyclic groups and with monoids, Rees matrix
  semigroups over Z3, and ``tower_12``.  Members whose ``breakable`` run
  takes many seconds (``chain-10`` and up, ``left-zero-12``) are left out so
  that one pass over the pool stays near ten seconds.
"""

from __future__ import annotations

import json
from pathlib import Path

from crglobal.core import is_completely_regular
from crglobal.families import (
    adjoin_identity,
    chain_semilattice,
    corpus,
    cyclic_group,
    direct_product,
    left_zero,
    rect_band,
    rees_matrix,
    tower_12,
)


def breakable_pool():
    z2, z3 = cyclic_group(2), cyclic_group(3)
    lz3_monoid = adjoin_identity(left_zero(3))
    return [
        ("rect-band-2-4", rect_band(2, 4)),
        ("rect-band-3-3", rect_band(3, 3)),
        ("rect-band-2-5", rect_band(2, 5)),
        ("rect-band-3-4", rect_band(3, 4)),
        ("rect-band-2-6", rect_band(2, 6)),
        ("left-zero-9", left_zero(9)),
        ("chain-8", chain_semilattice(8)),
        ("cyclic-2-x-left-zero-4", direct_product(z2, left_zero(4))),
        ("cyclic-3-x-rect-band-2-2", direct_product(z3, rect_band(2, 2))),
        ("lz3-monoid-x-cyclic-2", direct_product(lz3_monoid, z2)),
        ("lz3-monoid-x-cyclic-3", direct_product(lz3_monoid, z3)),
        ("cyclic-4-x-chain-3", direct_product(cyclic_group(4), chain_semilattice(3))),
        ("rees-z3-3x1", rees_matrix(z3, [[0], [0], [0]])),
        ("rees-z3-2x2", rees_matrix(z3, [[0, 0], [0, 1]])),
        ("tower-12", tower_12()),
    ]


def main() -> None:
    transfer = [(name, s) for name, s in corpus("full") if 4 <= s.order <= 6 and is_completely_regular(s)]
    doc = {
        "transfer": {name: [list(r) for r in s.table] for name, s in transfer},
        "breakable-scan": {name: [list(r) for r in s.table] for name, s in breakable_pool()},
    }
    out = Path(__file__).resolve().parent / "pools.json"
    out.write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    print(f"wrote {out}: {len(doc['transfer'])} transfer sources, {len(doc['breakable-scan'])} breakable-scan families")


if __name__ == "__main__":
    main()
