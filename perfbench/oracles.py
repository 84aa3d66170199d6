"""Independent correctness checks, run outside the timed region.

Nothing here imports the program: each verdict is recomputed from the raw
tables by the most literal method that is still fast at the benchmark's
sizes, so a wrong answer from the program cannot also pass its own check.
Each check returns None when the item is correct, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import itertools
import json


def is_homomorphic_bijection(a, b, f) -> bool:
    n = len(a)
    if len(b) != n or sorted(f) != list(range(n)):
        return False
    return all(f[a[x][y]] == b[f[x]][f[y]] for x in range(n) for y in range(n))


def isomorphic(a, b) -> bool:
    """Brute force over all n! bijections."""
    if len(a) != len(b):
        return False
    return any(is_homomorphic_bijection(a, b, f) for f in itertools.permutations(range(len(a))))


def check_battery(rc: int, stdout: str, reference_digest: str | None) -> tuple[str | None, str]:
    """Exit code 0 and every JSON record ``ok``; returns (problem, digest) so
    the caller can require one digest across all items of a run."""
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    if rc != 0:
        return f"exit code {rc}", digest
    lines = stdout.splitlines()
    if not lines:
        return "no records", digest
    for k, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except ValueError:
            return f"line {k + 1} is not JSON", digest
        if rec.get("ok") is not True:
            return f"record {k + 1} not ok: {rec.get('check')} [{rec.get('scope')}]", digest
    if reference_digest is not None and digest != reference_digest:
        return "stdout differs from the first item of the run", digest
    return None, digest


def check_transfer(item: dict, rc: int, eta_text: str | None, expected_iso: bool) -> str | None:
    """Exit code from the brute-force verdict; every emitted eta must be a
    bijection and a homomorphism from A onto B, whatever it claims."""
    want = 0 if expected_iso else 1
    if rc != want:
        return f"exit code {rc}, expected {want}"
    if not expected_iso:
        return None
    if eta_text is None:
        return "no eta file"
    try:
        etas = json.loads(eta_text)
    except ValueError:
        return "eta file is not JSON"
    if not isinstance(etas, list) or not etas:
        return "eta file lists no maps"
    a, b = item["tables"]
    for entry in etas:
        if not isinstance(entry, dict) or not is_homomorphic_bijection(a, b, entry.get("eta")):
            return f"emitted eta is not an isomorphism: {entry!r}"
    return None


def closure_counts(table) -> tuple[int, int, int]:
    """(pair, triple, single-component pair) subsemigroup counts.

    Both product conditions (x*y in {x, y}; x*y*z in {x, y, z}) pass to
    subsets, so the qualifying subsets are grown one element at a time and
    only the products that involve the new element are checked.  A subset
    meeting the pair condition is closed already; for the triple condition
    closure is checked separately.  A component is a J-class.
    """
    n = len(table)
    t = table
    jkey = _principal_ideals(t)
    pair = triple = single = 0

    def closed(elems) -> bool:
        s = set(elems)
        return all(t[x][y] in s for x in elems for y in elems)

    def grow(elems: list[int], start: int, pair_ok: bool) -> None:
        nonlocal pair, triple, single
        for z in range(start, n):
            new = elems + [z]
            if not _triples_ok(t, elems, z):
                continue
            p_ok = pair_ok and _pairs_ok(t, elems, z)
            if closed(new):
                triple += 1
                if p_ok:
                    pair += 1
                    if len({jkey[x] for x in new}) == 1:
                        single += 1
            grow(new, z + 1, p_ok)

    grow([], 0, True)
    return pair, triple, single


def _pairs_ok(t, elems: list[int], z: int) -> bool:
    if t[z][z] != z:
        return False
    return all(t[x][z] in (x, z) and t[z][x] in (x, z) for x in elems)


def _triples_ok(t, elems: list[int], z: int) -> bool:
    # every triple over elems + [z] that uses z at least once
    pool = elems + [z]
    for x in pool:
        for y in pool:
            for w in pool:
                if z not in (x, y, w):
                    continue
                if t[t[x][y]][w] not in (x, y, w):
                    return False
    return True


def _principal_ideals(t) -> list[int]:
    """S^1 a S^1 for each a, as a bitmask."""
    n = len(t)
    out = []
    for a in range(n):
        m = 1 << a
        for x in range(n):
            m |= 1 << t[x][a]
            m |= 1 << t[a][x]
            for y in range(n):
                m |= 1 << t[t[x][a]][y]
        out.append(m)
    return out


def j_class_count(table) -> int:
    return len(set(_principal_ideals(table)))


def check_breakable(item: dict, rcs: list[int], analyze_out: str, breakable_out: str, counts) -> str | None:
    """``analyze`` and ``breakable`` succeed, no cross-check mismatch, and
    the three subsemigroup counts agree with ``closure_counts``."""
    if rcs != [0, 0]:
        return f"exit codes {rcs}"
    table = item["tables"][0]
    lines = analyze_out.splitlines()
    want = [f"order: {len(table)}", "completely regular: yes", f"components: {j_class_count(table)}"]
    for line in want:
        if line not in lines:
            return f"analyze output lacks {line!r}"
    pair, triple, single = counts
    lines = breakable_out.splitlines()
    head = [
        f"pair-condition subsemigroups: {pair}",
        f"triple-condition subsemigroups: {triple}",
        f"single-component pair-condition subsemigroups: {single}",
    ]
    if lines[:3] != head:
        return f"breakable counts {lines[:3]} differ from {head}"
    listed = lines[3:]
    if len(listed) != triple:
        return f"breakable lists {len(listed)} subsemigroups, expected {triple}"
    for line in listed:
        if "MISMATCH" in line or not line.endswith("cross-check: ok"):
            return f"cross-check failed: {line.strip()}"
    return None
