"""Corpus-wide verification runner.

Each runner takes an explicit list of (name, table) members and returns
flat records; the CLI serializes them as JSON lines and the acceptance tests
assert over them.  Everything is deterministic: member order, pair order,
map discovery order and record order are all fixed.
"""

from __future__ import annotations

from collections import Counter
from json.encoder import encode_basestring_ascii as _quote

from .core import (
    CayleyTable,
    is_completely_regular,
    is_left_zero,
)
from .errors import FalsificationError, ThetaNotSingletonError
from .families import corpus
from .globaldet import construct_eta, extract_theta, is_singleton_preserving, lift
from .power import power_table
from .search import IsoMap, find_isomorphisms
# the check_* families are not called here; they stay importable for the benchmark's tracer, which wraps them as verify.check_*
from .statements import (  # noqa: F401
    STATEMENTS,
    Record,
    check_a2_equivalence,
    check_a3_equivalence,
    check_member_statements,
    check_power_h_classes,
    check_structural_forms,
    verify_statement_suite,
)
from .structure import decompose


def records_to_json_lines(records: list[Record]) -> str:
    """One line per record, as ``json.dumps`` of its fields with sorted keys
    writes it, formatted directly."""
    lines = []
    for r in records:
        witness = "null" if r.witness is None else _quote(r.witness)
        ok = "true" if r.ok else "false"
        lines.append(
            f'{{"check": {_quote(r.check)}, "instances": {r.instances}, "ok": {ok}, '
            f'"scope": {_quote(r.scope)}, "witness": {witness}}}'
        )
    return "\n".join(lines) + "\n"


def summarize(records: list[Record]) -> str:
    failed = [r for r in records if not r.ok]
    lines = [f"checks: {len(records)}  failed: {len(failed)}"]
    for r in failed:
        lines.append(f"FAIL {r.check} [{r.scope}] witness: {r.witness}")
    return "\n".join(lines)


def cr_members(members, max_order: int) -> list[tuple[str, CayleyTable]]:
    return [(name, s) for name, s in members if s.order <= max_order and is_completely_regular(s)]


class SweepResult:
    def __init__(self, records: list[Record], psi_total: int, nonsingleton_on_left_zero: int):
        self.records = records
        self.psi_total = psi_total
        self.nonsingleton_on_left_zero = nonsingleton_on_left_zero


def collect_psis(s: CayleyTable, s2: CayleyTable, limit: int = 8) -> tuple[list[IsoMap], list[IsoMap]]:
    """The element isomorphisms, and the subset isomorphisms from lifting them
    plus a direct search over the materialized power tables, deduplicated, in
    discovery order."""
    phis = find_isomorphisms(s, s2, limit=limit)
    psis = {psi.forward: psi for psi in map(lift, phis)}
    for psi in find_isomorphisms(power_table(s), power_table(s2), limit=limit, kind="subsets"):
        psis.setdefault(psi.forward, psi)
    return phis, list(psis.values())


def transfer_map(s: CayleyTable, s2: CayleyTable, psi: IsoMap) -> tuple[IsoMap | FalsificationError, IsoMap | FalsificationError, list[Record]]:
    """The component map ``theta`` and the element map ``eta`` of one subset
    map, each given as the error that refused it where it was refused, and
    the records of the statement suite run on ``theta``."""
    dec_a, dec_b = decompose(s), decompose(s2)
    try:
        theta, eta = construct_eta(psi, dec_a, dec_b)
    except ThetaNotSingletonError as exc:
        theta = eta = exc
    except FalsificationError as exc:
        # the element map failed after the component map was
        # extracted; only this failure extracts it a second time
        theta, eta = extract_theta(psi, dec_a, dec_b), exc
    return theta, eta, verify_statement_suite(s, s2, psi, theta)


def global_sweep(members) -> SweepResult:
    """Run the whole pipeline over every same-order pair of members: collect
    element and subset isomorphisms, record for a pair without element
    isomorphisms that it has no subset isomorphisms either, and record what
    :func:`transfer_map` gives for each subset isomorphism."""
    records: list[Record] = []
    psi_total = 0
    nonsingleton = 0
    pool = list(members)
    for i, (name_a, s) in enumerate(pool):
        for name_b, s2 in pool[i:]:
            if s.order != s2.order:
                continue
            scope = f"{name_a}|{name_b}"
            phis, psis = collect_psis(s, s2)
            if not phis:
                # S and T are not isomorphic, so by global determinism
                # neither are P(S) and P(T)
                witness = f"{len(psis)} subset isomorphisms found" if psis else None
                records.append(Record("power-nonisomorphic", scope, 1, not psis, witness))
            for k, psi in enumerate(psis):
                psi_total += 1
                if is_left_zero(s) and not is_singleton_preserving(psi, s.order):
                    nonsingleton += 1
                pscope = f"{scope}#psi{k}"
                theta, eta, suite = transfer_map(s, s2, psi)
                for check, found in (("theta-extraction", theta), ("eta-construction", eta)):
                    witness = str(found) if isinstance(found, FalsificationError) else None
                    records.append(Record(check, pscope, 1, witness is None, witness))
                records += [Record(rec.check, pscope, rec.instances, rec.ok, rec.witness) for rec in suite]
    return SweepResult(records, psi_total, nonsingleton)


def coverage_records(records: list[Record]) -> list[Record]:
    """One record per statement, its instances summed over ``records``;
    a statement without instances fails."""
    coverage = Counter()
    for rec in records:
        coverage[rec.check] += rec.instances
    return [
        Record(
            "statement-coverage",
            name,
            coverage[name],
            coverage[name] > 0,
            None if coverage[name] else "statement never instantiated over the sweep",
        )
        for name, _ in STATEMENTS
    ]


def run_all(profile: str = "full") -> list[Record]:
    """The verification battery over ``corpus(profile)``: the member statements
    on its completely regular members of order <= 6, the sweep on those of order <= 5."""
    cr = cr_members(corpus(profile), 6)
    records = check_member_statements(cr)
    sweep = global_sweep([(name, s) for name, s in cr if s.order <= 5])
    records.extend(sweep.records)
    records.extend(coverage_records(records))
    for check, count, floor, witness in (
        ("psi-instance-floor", sweep.psi_total, 20, f"only {sweep.psi_total} subset isomorphisms"),
        ("nonsingleton-psi-on-left-zero", sweep.nonsingleton_on_left_zero, 1, "no such isomorphism found"),
    ):
        records.append(Record(check, "sweep", count, count >= floor, None if count >= floor else witness))
    return records
