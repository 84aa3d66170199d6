"""Seeded input generation for the benchmark's workloads.

A run is a sequence of cycles.  Cycle ``c`` of workload ``w`` under seed
``s`` is drawn from its own ``random.Random(f"{w}/{s}/{c}")``, so any cycle,
and any item in it, can be rebuilt from those three values alone.  Every
cycle is one pass over the workload's frozen pool (``pools.json``) in a
seeded order; that keeps the mix of items, and so the medians, the same from
seed to seed while every table is new.

Within a cycle no table occurs in two items.  Each cycle runs in a fresh
worker process, so the program's caches never see a table twice.  Tables
with a single labelling (left and right zero semigroups) necessarily repeat
from one cycle to the next; a fresh process per cycle is what keeps them cold.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

POOLS = Path(__file__).resolve().parent / "pools.json"

# non-isomorphic pairs per transfer cycle, by order: with the 20 isomorphic
# pairs this makes about three items in four isomorphic
NONISO_PER_ORDER = {4: 3, 5: 2, 6: 2}


def load_pools() -> dict:
    with open(POOLS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def relabel(table, perm):
    """The table with element ``i`` renamed ``perm[i]``."""
    n = len(table)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[perm[i]][perm[j]] = perm[table[i][j]]
    return rows


def dual(table):
    """The opposite semigroup: x * y in S^op is y * x in S."""
    n = len(table)
    return [[table[j][i] for j in range(n)] for i in range(n)]


def key(table) -> tuple:
    return tuple(tuple(r) for r in table)


def _fresh(table, rng: random.Random, used: set, tries: int = 64):
    """A seeded relabelling not in ``used``, or None when the tries run out
    (a table every permutation fixes, such as a left zero semigroup)."""
    n = len(table)
    for _ in range(tries):
        perm = list(range(n))
        rng.shuffle(perm)
        rows = relabel(table, perm)
        if key(rows) not in used:
            used.add(key(rows))
            return perm, rows
    return None


def transfer_cycle(pools: dict, seed: int, cycle: int) -> list[dict]:
    rng = random.Random(f"transfer/{seed}/{cycle}")
    sources = pools["transfer"]
    used: set = set()
    items = []
    for name, table in sources.items():
        # S as the corpus labels it against pi(S); a table with a single
        # labelling is paired with itself
        identity = list(range(len(table)))
        used.add(key(table))
        pb, b = _fresh(table, rng, used) or (identity, table)
        items.append({"kind": "iso", "sources": [name, name], "order": len(table), "perms": [identity, pb], "tables": [table, b]})
    for order, count in NONISO_PER_ORDER.items():
        names = [n for n, t in sources.items() if len(t) == order]
        pairs = list(itertools.combinations(names, 2))
        rng.shuffle(pairs)
        for x, y in pairs:
            if count == 0:
                break
            sides = [_fresh(sources[x], rng, used), _fresh(sources[y], rng, used)]
            if None in sides:
                continue
            (pa, a), (pb, b) = sides
            items.append({"kind": "non-iso", "sources": [x, y], "order": order, "perms": [pa, pb], "tables": [a, b]})
            count -= 1
    rng.shuffle(items)
    return _number(items, cycle)


def breakable_cycle(pools: dict, seed: int, cycle: int) -> list[dict]:
    rng = random.Random(f"breakable-scan/{seed}/{cycle}")
    families = list(pools["breakable-scan"].items())
    rng.shuffle(families)
    used: set = set()
    items = []
    for name, table in families:
        # S and S^op run back to back, so their times can be read side by side
        for is_dual, base in ((False, table), (True, dual(table))):
            perm, rows = _fresh(base, rng, used)
            items.append({"family": name, "dual": is_dual, "order": len(rows), "perm": perm, "tables": [rows]})
    return _number(items, cycle)


def _number(items: list[dict], cycle: int) -> list[dict]:
    for i, item in enumerate(items):
        item["id"] = f"c{cycle}i{i:02d}"
        item["cycle"] = cycle
    return items


def cycle_items(workload: str, pools: dict, seed: int, cycle: int) -> list[dict]:
    items = (transfer_cycle if workload == "transfer" else breakable_cycle)(pools, seed, cycle)
    check_distinct(items)
    return items


def check_distinct(items: list[dict]) -> None:
    """No table may occur in two items of one cycle (one worker process); the
    two sides of one isomorphic pair coincide only for a table that every
    permutation fixes."""
    owner: dict = {}
    for item in items:
        for table in item["tables"]:
            k = key(table)
            if owner.setdefault(k, item["id"]) != item["id"]:
                raise ValueError(f"items {owner[k]} and {item['id']} share a table")
