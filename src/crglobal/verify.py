"""Corpus-wide verification runner.

Each runner takes an explicit list of (name, table) members and returns
flat records; the CLI serializes them as JSON lines and the acceptance tests
assert over them.  Everything is deterministic: member order, pair order,
map discovery order and record order are all fixed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii as _quote

from .breakable import (
    a2_characterization,
    a3_characterization,
    enumerate_a2_masks,
    enumerate_a3_masks,
    is_a3_mask,
    left_zero_subset_masks,
    structural_form,
)
from .core import (
    CayleyTable,
    bits,
    green_relations,
    is_completely_regular,
    is_left_zero,
    validate_table,
)
from .errors import FalsificationError, ThetaNotSingletonError
from .families import corpus
from .globaldet import (
    MEMBER_STATEMENT_IDS,
    STATEMENT_IDS,
    IsoMap,
    Record,
    _Check,
    construct_eta,
    extract_theta,
    find_isomorphisms,
    is_singleton_preserving,
    lift,
    power_of,
    power_table,
    verify_member_statements,
    verify_statement_suite,
)
from .power import h_class_of_idempotent_singleton, h_class_of_left_zero_set
from .structure import decompose

NON_CR_INJECTION = validate_table([[0, 0], [0, 0]])


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


# the characterization families, checked per member beside the statements
FAMILY_IDS = (
    "a3-characterization-equivalence",
    "a2-characterization-equivalence",
    "structural-form",
    "power-h-classes",
)


def check_a3_equivalence(checks, s: CayleyTable) -> None:
    """Rigidity scan agrees with the triple-product condition on every
    idempotent subset."""
    ck = checks["a3-characterization-equivalence"]
    p = power_of(s)
    a3 = enumerate_a3_masks(s)
    for am in p.idempotent_masks():
        direct = is_a3_mask(s, am)
        if direct != a3_characterization(p, am):
            ck.fail(f"subset {am:#x} is {'in' if direct else 'outside'} the class but the scan disagrees")
        else:
            ck.count(direct == (am in a3), "subset {:#x}: enumeration disagrees with the direct check", am)


def check_a2_equivalence(checks, s: CayleyTable) -> None:
    """Idempotency scan agrees with the pair-product condition below the
    triple-product class."""
    ck = checks["a2-characterization-equivalence"]
    p = power_of(s)
    a2 = enumerate_a2_masks(s)
    for am in enumerate_a3_masks(s):
        direct = am in a2
        ck.count(
            direct == a2_characterization(p, am),
            "subset {:#x} is {} the class but the scan disagrees",
            am,
            "in" if direct else "outside",
        )


def check_structural_forms(checks, s: CayleyTable) -> None:
    """Every qualifying subsemigroup decomposes into an absorbing chain of
    zero chunks, with a group top exactly when pair products escape."""
    ck = checks["structural-form"]
    a2 = enumerate_a2_masks(s)
    for am in enumerate_a3_masks(s):
        problem = _form_problem(s.table, am, structural_form(s, am), am in a2)
        ck.count(problem is None, "subset {:#x}: {}", am, problem)


def _form_problem(t, am: int, form, breakable: bool) -> str | None:
    union = 0
    for chunk in form.chunks:
        if union & chunk:
            return "chunks overlap"
        union |= chunk
    if union != am:
        return "chunks do not cover the subset"
    if form.has_group_top == breakable:
        return "group top disagrees with the pair-product condition"
    for kind in form.kinds[:-1]:
        if kind == "two-group-top":
            return "group chunk off the top"
    for i, low in enumerate(form.chunks):
        for high in form.chunks[i + 1 :]:
            for a in bits(low):
                for b in bits(high):
                    if t[a][b] != a or t[b][a] != a:
                        return f"absorption fails at ({a},{b})"
    for chunk, kind in zip(form.chunks, form.kinds):
        elems = list(bits(chunk))
        if kind == "left-zero":
            if any(t[a][b] != a for a in elems for b in elems):
                return "left zero chunk is not left zero"
        elif kind == "right-zero":
            if any(t[a][b] != b for a in elems for b in elems):
                return "right zero chunk is not right zero"
        else:
            if len(elems) != 2:
                return "group top of the wrong size"
            ids = [a for a in elems if t[a][a] == a]
            if len(ids) != 1:
                return "group top without a unique identity"
            e = ids[0]
            a = elems[1 - elems.index(e)]
            if t[a][a] != e or t[a][e] != a or t[e][a] != a:
                return "group top is not a two-element group"
    return None


def check_power_h_classes(checks, s: CayleyTable) -> None:
    """H-classes in the power semigroup match their element-level values for
    idempotent singletons and for left zero subsemigroups."""
    ck = checks["power-h-classes"]
    p = power_of(s)
    g = green_relations(s)
    for e in range(s.order):
        if s.table[e][e] == e:
            got = set(h_class_of_idempotent_singleton(p, e))
            want = {1 << x for x in range(s.order) if g.hclass[x] == g.hclass[e]}
            ck.count(got == want, "singleton {{{}}}: got {}, expected {}", e, sorted(got), sorted(want))
    for em in left_zero_subset_masks(s):
        got = set(h_class_of_left_zero_set(p, em))
        translates = [
            {p.product_mask(em, 1 << a) for a in range(s.order) if g.hclass[a] == g.hclass[e]} for e in bits(em)
        ]
        expected = translates[0]
        if any(t != expected for t in translates):
            ck.fail(f"left zero {em:#x}: translate sets differ between members")
        else:
            ck.count(got == expected, "left zero {:#x}: got {}, expected {}", em, sorted(got), sorted(expected))


def check_member_statements(members) -> list[Record]:
    """Every statement that reads one semigroup and never a subset map, once
    per member: the families, then :data:`MEMBER_STATEMENT_IDS`.  A member
    that is not completely regular fails each of them, and none runs on it."""
    records = []
    for name, s in members:
        if is_completely_regular(s):
            checks = {check: _Check(check) for check in FAMILY_IDS}
            for group in (check_a3_equivalence, check_a2_equivalence, check_structural_forms, check_power_h_classes):
                group(checks, s)
            found = [ck.record() for ck in checks.values()] + verify_member_statements(s)
        else:
            witness = "not completely regular"
            found = [Record(check, "", 1, False, witness) for check in FAMILY_IDS + MEMBER_STATEMENT_IDS]
        records += [replace(rec, scope=name) for rec in found]
    return records


@dataclass
class SweepResult:
    records: list[Record]
    psi_total: int
    nonsingleton_on_left_zero: int
    etas: dict[tuple[str, str, int], IsoMap]


def collect_psis(s: CayleyTable, s2: CayleyTable, limit: int = 8) -> tuple[list[IsoMap], list[IsoMap]]:
    """The element isomorphisms, and the subset isomorphisms from lifting them
    plus a direct search over the materialized power tables, deduplicated, in
    discovery order."""
    phis = find_isomorphisms(s, s2, limit=limit)
    psis: list[IsoMap] = []
    seen = set()
    for phi in phis:
        psi = lift(phi)
        if psi.forward not in seen:
            seen.add(psi.forward)
            psis.append(psi)
    pa, pb = power_table(s), power_table(s2)
    for psi in find_isomorphisms(pa, pb, limit=limit, kind="subsets"):
        if psi.forward not in seen:
            seen.add(psi.forward)
            psis.append(psi)
    return phis, psis


def global_sweep(members) -> SweepResult:
    """Run the whole pipeline over every same-order pair of members: collect
    element and subset isomorphisms, record for a pair without element
    isomorphisms that it has no subset isomorphisms either, build the element
    map (which extracts the component map first), and run the statement suite
    per subset isomorphism on that component map."""
    records: list[Record] = []
    psi_total = 0
    nonsingleton = 0
    etas: dict[tuple[str, str, int], IsoMap] = {}
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
            if not psis:
                continue
            dec_a, dec_b = decompose(s), decompose(s2)
            for k, psi in enumerate(psis):
                psi_total += 1
                if is_left_zero(s) and not is_singleton_preserving(psi, s.order):
                    nonsingleton += 1
                pscope = f"{scope}#psi{k}"
                theta_witness = eta_witness = None
                try:
                    transfer = construct_eta(psi, dec_a, dec_b)
                    theta = transfer.theta
                    etas[(name_a, name_b, k)] = transfer.eta
                except ThetaNotSingletonError as exc:
                    theta = exc
                    theta_witness = eta_witness = str(exc)
                except FalsificationError as exc:
                    # the element map failed after the component map was
                    # extracted; only this failure extracts it a second time
                    theta = extract_theta(psi, dec_a, dec_b)
                    eta_witness = str(exc)
                records.append(Record("theta-extraction", pscope, 1, theta_witness is None, theta_witness))
                records.append(Record("eta-construction", pscope, 1, eta_witness is None, eta_witness))
                for rec in verify_statement_suite(s, s2, psi, theta):
                    records.append(Record(rec.check, pscope, rec.instances, rec.ok, rec.witness))
    return SweepResult(records, psi_total, nonsingleton, etas)


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
            coverage.get(name, 0),
            coverage.get(name, 0) > 0,
            None if coverage.get(name, 0) else "statement never instantiated over the sweep",
        )
        for name in FAMILY_IDS + STATEMENT_IDS
    ]


def run_all(profile: str = "full", inject_non_cr: bool = False) -> list[Record]:
    """The full verification battery over the deterministic corpus."""
    max_order = 4 if profile == "quick" else 6
    sweep_order = 4 if profile == "quick" else 5
    cr = cr_members(corpus(profile), max_order)
    # negative control: smuggle a non-regular table past the filter
    injected = [("injected-non-cr", NON_CR_INJECTION)] if inject_non_cr else []
    records = check_member_statements(cr + injected)
    sweep = global_sweep([(name, s) for name, s in cr if s.order <= sweep_order])
    records.extend(sweep.records)
    records.extend(coverage_records(records))
    records.append(
        Record(
            "psi-instance-floor",
            "sweep",
            sweep.psi_total,
            sweep.psi_total >= 20,
            None if sweep.psi_total >= 20 else f"only {sweep.psi_total} subset isomorphisms",
        )
    )
    records.append(
        Record(
            "nonsingleton-psi-on-left-zero",
            "sweep",
            sweep.nonsingleton_on_left_zero,
            sweep.nonsingleton_on_left_zero >= 1,
            None if sweep.nonsingleton_on_left_zero else "no such isomorphism found",
        )
    )
    return records
