"""The statements checked exhaustively over every instance of their premise.

:data:`STATEMENTS` lists each statement once, with its side, in the order
``verify`` reports their coverage: a ``family`` is a characterization that
only the ``verify`` battery checks, a ``member`` statement reads one
semigroup and is checked once per semigroup, and a ``psi`` statement reads
a subset map and is checked once per map.  Each runner returns its side's
records in table order.  Groups are called by their global names, so a
test or a tracer can replace one there.
"""

from __future__ import annotations

from .breakable import (
    a2_characterization,
    a3_characterization,
    a3_counterexample,
    enumerate_a2_masks,
    enumerate_a2bar_masks,
    enumerate_a3_masks,
    is_a3_mask,
    left_zero_subset_masks,
    structural_form,
)
from .core import CayleyTable, bits, derived, green_relations, is_completely_regular, mask_of, natural_order, submasks, subset_or
from .errors import FalsificationError, ParentMismatchError
from .power import h_class_of_idempotent_singleton, h_class_of_left_zero_set, positions, power_of
from .search import IsoMap
from .structure import CS0, decompose, id_set_mask, rho_partition

STATEMENTS = (
    ("a3-characterization-equivalence", "family"),
    ("a2-characterization-equivalence", "family"),
    ("structural-form", "family"),
    ("power-h-classes", "family"),
    ("a3-local-identities", "member"),
    ("a3-square-root-rigid", "member"),
    ("a3-square-support", "member"),
    ("a3-absorbed-subset", "member"),
    ("a3-multiplier-rigid", "member"),
    ("rigid-cube-identity", "member"),
    ("rigid-pair-products", "member"),
    ("rigid-support-chain", "member"),
    ("rigid-nonidempotent-hclass", "member"),
    ("rigid-slice-one-sided", "member"),
    ("rigid-lower-slice-zero", "member"),
    ("rigid-top-two-group", "member"),
    ("power-r-ideal", "member"),
    ("power-d-support", "member"),
    ("ep-leq-slice-containment", "member"),
    ("ep-leq-top-slice", "member"),
    ("drop-nonmaximal-covers", "member"),
    ("rho-sandwich-collapse", "member"),
    ("rho-lower-translation", "member"),
    ("a3-image-bijection", "psi"),
    ("a2-image-bijection", "psi"),
    ("a2bar-image-bijection", "psi"),
    ("rclass-support-ideals", "psi"),
    ("local-identity-ideal", "psi"),
    ("cs0-singleton-restriction", "psi"),
    ("pair-chain-image-union", "psi"),
    ("nonmaximal-singleton-image", "psi"),
    ("preimage-sandwich-transfer", "psi"),
    ("cross-sandwich-singleton", "psi"),
    ("rho-image-transfer", "psi"),
)


class Record:
    """One verified claim: ``instances`` checked in ``scope``, and the first
    failing instance as ``witness``.  A statement's record counts its own
    instances; it carries an empty scope, and ``verify`` reports a copy
    scoped to the member or to the pair and map.

    A witness is given to :meth:`count` as a ``str.format`` template and its
    arguments, and only the first failing instance formats it; the rest pass
    the template unformatted.
    """

    def __init__(self, check: str, scope: str = "", instances: int = 0, ok: bool = True, witness: str | None = None):
        self.check = check
        self.scope = scope
        self.instances = instances
        self.ok = ok
        self.witness = witness

    def __eq__(self, other) -> bool:
        return type(other) is Record and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"Record{tuple(vars(self).values())!r}"

    def count(self, ok: bool, template: str, *args) -> None:
        self.instances += 1
        if not ok and self.ok:
            self.ok = False
            self.witness = template.format(*args)

    def fail(self, witness: str) -> None:
        self.count(False, "{}", witness)

    def refuse(self, witness: str) -> None:
        """Fail with no instance counted: the premise could not be read."""
        if self.ok:
            self.ok, self.witness = False, witness


def check_subset_map(psi: IsoMap, s: CayleyTable, s2: CayleyTable) -> None:
    """Refuse a subset map that is not a map P(s) -> P(s2) between bases of one
    order: its length must be 2^n - 1 and each entry an index below that."""
    f, size = psi.forward, (1 << s.order) - 1
    if s.order != s2.order or len(f) != size:
        raise ParentMismatchError(f"a map of {len(f)} subsets between orders {s.order} and {s2.order}")
    if min(f) < 0 or max(f) >= size:
        raise ParentMismatchError(f"a map of {size} subsets with entries {min(f)}..{max(f)}")


@derived
def _support_groups(s: CayleyTable) -> list[tuple[list[int], list[bool]]]:
    """The nonempty subsets grouped by the R-classes they meet, each group
    ascending and paired with, for each member after the first, whether its
    right ideal equals the first member's."""
    ideals = power_of(s).right_ideals
    # support[mask]: bit r set when mask meets R-class r
    support = subset_or([1 << r for r in green_relations(s).rclass])
    groups: dict[int, list[int]] = {}
    for mask in range(1, len(support)):
        groups.setdefault(support[mask], []).append(mask)
    return [(g, [ideals[o] == ideals[g[0]] for o in g[1:]]) for g in groups.values()]


@derived
def _sandwiches(s: CayleyTable) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """For each element a and component beta strictly below the component of
    a: the pairs (B, {a}*B*{a}) over the nonempty subsets B of beta, B
    descending."""
    dec = decompose(s)
    prod = power_of(s).product_mask
    out = {}
    for alpha in range(dec.count):
        for beta in sorted(dec.below[alpha]):
            for a in dec.component_elements(alpha):
                am = 1 << a
                out[a, beta] = [(bm, prod(prod(am, bm), am)) for bm in submasks(dec.components[beta])]
    return out


def check_member_statements(members) -> list[Record]:
    """Every statement that reads one semigroup and never a subset map, once
    per member: the family rows of :data:`STATEMENTS`, then the member rows.
    A member that is not completely regular fails each of them with no
    instance counted, and none runs on it."""
    records = []
    for name, s in members:
        if is_completely_regular(s):
            checks = {check: Record(check) for check, side in STATEMENTS if side == "family"}
            for group in (check_a3_equivalence, check_a2_equivalence, check_structural_forms, check_power_h_classes):
                group(checks, s)
            found = list(checks.values()) + verify_member_statements(s)
        else:
            witness = "not completely regular"
            found = [Record(check, ok=False, witness=witness) for check, side in STATEMENTS if side != "psi"]
        records += [Record(rec.check, name, rec.instances, rec.ok, rec.witness) for rec in found]
    return records


def verify_member_statements(s: CayleyTable) -> list[Record]:
    """Exhaustively instantiate the statements that read only ``s``: one
    record per member row of :data:`STATEMENTS`, in table order, counted as
    in :func:`verify_statement_suite`."""
    checks = {check: Record(check) for check, side in STATEMENTS if side == "member"}
    prod = power_of(s).product_mask
    _a3_shape_checks(checks, s, prod)
    _rigidity_checks(checks, s)
    _power_green_checks(checks, s)
    _ep_order_checks(checks, s, prod)
    _rho_checks(checks, s, prod)
    return list(checks.values())


def verify_statement_suite(
    s: CayleyTable, s2: CayleyTable, psi: IsoMap, theta: IsoMap | FalsificationError
) -> list[Record]:
    """Exhaustively instantiate every statement that reads the subset map
    against one map; :func:`verify_member_statements` checks the rest, once
    per semigroup.

    ``theta`` is the component map that :func:`extract_theta` (through
    :func:`construct_eta`) gave for ``psi``, or the error it raised, whose
    text becomes the witness of the statements that need the map; they fail
    with no instance counted.

    Returns one record per psi row of :data:`STATEMENTS`, in table order,
    with the number of premise-satisfying instances checked; a
    failing record carries the first witness.  Instances are only counted
    when the statement's hypothesis actually held, so a coverage pass over
    the records detects vacuous statements.
    """
    check_subset_map(psi, s, s2)
    if not isinstance(theta, FalsificationError) and (
        len(theta.forward) != decompose(s).count or sorted(theta.forward) != list(range(decompose(s2).count))
    ):
        raise ParentMismatchError(f"component map {list(theta.forward)} does not match the components of both tables")
    checks = {check: Record(check) for check, side in STATEMENTS if side == "psi"}
    # image[A] and preimage[A] are the masks of psi(A) and psi^-1(A); index 0 is unused
    image = [0, *map((1).__add__, psi.forward)]
    preimage = sorted(range(len(image)), key=image.__getitem__)  # inverts the permutation image

    _image_bijections(checks, s, s2, image)
    _ideal_checks(checks, s, s2, image)
    _cs0_checks(checks, s, s2, image, theta)
    _preimage_checks(checks, s, image, preimage)
    _cross_component_checks(checks, s, s2, image, theta)
    _pair_chain_checks(checks, s, image)
    _nonmaximal_checks(checks, s, image)

    return list(checks.values())


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


def _image_bijections(checks, s: CayleyTable, s2: CayleyTable, image: list[int]) -> None:
    for ck, masks in (
        (checks["a3-image-bijection"], enumerate_a3_masks),
        (checks["a2-image-bijection"], enumerate_a2_masks),
        (checks["a2bar-image-bijection"], enumerate_a2bar_masks),
    ):
        src, dst = masks(s), masks(s2)
        images = set()
        for am in src:
            img = image[am]
            images.add(img)
            ck.count(img in dst, "image of {:#x} is {:#x}, outside the matched class", am, img)
        ck.count(images == dst.keys(), "images cover {} of {} targets", len(images), len(dst))


def _a3_shape_checks(checks, s: CayleyTable, prod) -> None:
    g = green_relations(s)
    dec = decompose(s)
    sq = power_of(s).squares
    ck_id = checks["a3-local-identities"]
    ck_root = checks["a3-square-root-rigid"]
    ck_sup = checks["a3-square-support"]
    ck_abs = checks["a3-absorbed-subset"]
    ck_mul = checks["a3-multiplier-rigid"]
    for am in enumerate_a3_masks(s):
        for a in bits(am):
            e = g.local_identity[a]
            ck_id.count((am >> e) & 1 == 1, "identity {} of {} escapes {:#x}", e, a, am)
        ids_a = id_set_mask(am, dec)
        for bm in positions(sq, am):
            if bm | am == am:
                ck_root.count(bm == am, "proper {:#x} squares to {:#x}", bm, am)
            ck_sup.count(id_set_mask(bm, dec) == ids_a, "{:#x} squares to {:#x} with different support", bm, am)
            if prod(bm, am) == am:
                ck_mul.count(bm == am, "{:#x} multiplies and squares onto {:#x}", bm, am)
        # the subsets supported inside the support of A (components are disjoint masks)
        for bm in submasks(sum(dec.components[alpha] for alpha in ids_a)):
            if prod(bm, am) == am and prod(am, bm) == am:
                ck_abs.count(bm | am == am, "{:#x} absorbed by {:#x} but not contained", bm, am)


def _rigidity_checks(checks, s: CayleyTable) -> None:
    g = green_relations(s)
    t = s.table
    dec = decompose(s)
    power = power_of(s)
    for am in power.idempotent_masks():
        # only idempotent subsets satisfying the square-and-absorb rigidity premise
        if a3_counterexample(power, am) is not None:
            continue
        elems = tuple(bits(am))
        for a in elems:
            cube = t[t[a][a]][a]
            e = g.local_identity[a]
            checks["rigid-cube-identity"].count(
                cube == a and (am >> e) & 1 == 1, "a={} in {:#x}: cube {}, identity {}", a, am, cube, e
            )
        for a in elems:
            for b in elems:
                p = t[a][b]
                allowed = {a, b, g.local_identity[a], g.local_identity[b]}
                checks["rigid-pair-products"].count(p in allowed, "{}*{}={} in {:#x}", a, b, p, am)
        support = id_set_mask(am, dec)
        chain = all(support - dec.below[x] - dec.above[x] == {x} for x in support)
        checks["rigid-support-chain"].count(chain, "support of {:#x} is not a chain", am)
        for a in elems:
            if t[a][a] != a:
                in_h = {x for x in elems if g.hclass[x] == g.hclass[a]}
                want = {a, g.local_identity[a]}
                checks["rigid-nonidempotent-hclass"].count(
                    in_h == want, "H-slice of {} in {:#x} is {}", a, am, sorted(in_h)
                )
        maxima = [x for x in support if not dec.above[x] & support]
        for alpha in sorted(support):
            slice_elems = [x for x in elems if dec.component_of[x] == alpha]
            one_l = len({g.lclass[x] for x in slice_elems}) == 1
            one_r = len({g.rclass[x] for x in slice_elems}) == 1
            checks["rigid-slice-one-sided"].count(
                one_l or one_r, "slice {} of {:#x} spans several L- and R-classes", alpha, am
            )
            if alpha not in maxima:
                lz = all(t[x][y] == x for x in slice_elems for y in slice_elems)
                rz = all(t[x][y] == y for x in slice_elems for y in slice_elems)
                checks["rigid-lower-slice-zero"].count(
                    lz or rz, "non-maximal slice {} of {:#x} is not a zero semigroup", alpha, am
                )
                for beta in sorted(dec.above[alpha] & support):
                    uppers = [x for x in elems if dec.component_of[x] == beta]
                    for a in slice_elems:
                        for b in uppers:
                            checks["rigid-lower-slice-zero"].count(
                                t[a][b] == a and t[b][a] == a, "absorption fails for {},{} in {:#x}", a, b, am
                            )
        if len(maxima) == 1:
            omega = maxima[0]
            top = [x for x in elems if dec.component_of[x] == omega]
            bad = [a for a in top if t[a][a] != a]
            for a in bad:
                e = g.local_identity[a]
                ok = set(top) == {a, e}
                checks["rigid-top-two-group"].count(ok, "top slice of {:#x} is {}", am, sorted(top))


def _power_green_checks(checks, s: CayleyTable) -> None:
    p = power_of(s)
    dec = decompose(s)
    pg = p.power_green()
    ideals = p.right_ideals
    by_r: dict[int, list[int]] = {}
    by_d: dict[int, list[int]] = {}
    for idx in range(p.full_mask):
        by_r.setdefault(pg.rclass[idx], []).append(idx + 1)
        by_d.setdefault(pg.dclass[idx], []).append(idx + 1)
    for group in by_r.values():
        base = ideals[group[0]]
        for other in group[1:]:
            checks["power-r-ideal"].count(
                ideals[other] == base, "R-related {:#x} and {:#x} have different right ideals", group[0], other
            )
    for group in by_d.values():
        base = id_set_mask(group[0], dec)
        for other in group[1:]:
            checks["power-d-support"].count(
                id_set_mask(other, dec) == base, "D-related {:#x} and {:#x} have different supports", group[0], other
            )


def _ideal_checks(checks, s: CayleyTable, s2: CayleyTable, image: list[int]) -> None:
    ck = checks["rclass-support-ideals"]
    p2 = power_of(s2)
    ideals2 = p2.right_ideals
    for group, same in _support_groups(s):
        first = group[0]
        base2 = ideals2[image[first]]
        for other, ok in zip(group[1:], same):
            ck.count(
                ok and ideals2[image[other]] == base2, "{:#x} and {:#x} share R-class support but not ideals", first, other
            )
    ck2 = checks["local-identity-ideal"]
    prod2 = p2.product_mask
    psi_s = image[(1 << s.order) - 1]
    local_identity = green_relations(s2).local_identity
    for s_el in range(s2.order):
        e = local_identity[s_el]
        ck2.count(
            prod2(1 << s_el, psi_s) == prod2(1 << e, psi_s),
            "element {} and its identity {} translate the image differently", s_el, e,
        )


def _ep_order_checks(checks, s: CayleyTable, prod) -> None:
    dec = decompose(s)
    p = power_of(s)
    a2 = enumerate_a2_masks(s)
    for am in a2:
        ids_a = id_set_mask(am, dec)
        for bm in p.idempotent_masks():
            if not (prod(am, bm) == am and prod(bm, am) == am):
                continue
            ids_b = id_set_mask(bm, dec)
            shared = ids_a & ids_b
            for alpha in sorted(shared):
                checks["ep-leq-slice-containment"].count(
                    bm & dec.components[alpha] & ~am == 0, "slice {} of {:#x} leaves {:#x}", alpha, bm, am
                )
            if ids_b <= ids_a:
                checks["ep-leq-slice-containment"].count(
                    bm | am == am, "{:#x} supported inside {:#x} but not contained", bm, am
                )
            for omega in sorted(shared):
                if not dec.above[omega] & (ids_a | ids_b):
                    checks["ep-leq-top-slice"].count(
                        bm & dec.components[omega] == am & dec.components[omega],
                        "top slices at {} differ for {:#x} <= {:#x}", omega, am, bm,
                    )
        if len(ids_a) >= 2:
            for alpha in sorted(ids_a):
                if not dec.above[alpha] & ids_a:
                    continue
                for a in bits(am & dec.components[alpha]):
                    reduced = am & ~(1 << a)
                    ok = reduced in a2 and p.ep_lt_mask(am, reduced) and p.covers(am, reduced)
                    checks["drop-nonmaximal-covers"].count(
                        ok, "dropping {} from {:#x} is not an immediate successor", a, am
                    )


def _cs0_checks(checks, s: CayleyTable, s2: CayleyTable, image: list[int], theta: IsoMap | FalsificationError) -> None:
    ck = checks["cs0-singleton-restriction"]
    if isinstance(theta, FalsificationError):
        ck.refuse(f"component map unavailable: {theta}")
        return
    dec, dec2 = decompose(s), decompose(s2)
    for alpha in range(dec.count):
        if dec.classification[alpha] != CS0:
            continue
        target_mask = dec2.components[theta.forward[alpha]]
        mapping = {}
        good = True
        for a in dec.component_elements(alpha):
            img = image[1 << a]
            ok = img.bit_count() == 1 and img & ~target_mask == 0
            ck.count(ok, "element {} of component {} has image {:#x}", a, alpha, img)
            if not ok:
                good = False
                break
            mapping[a] = img.bit_length() - 1
        if not good:
            continue
        elems = dec.component_elements(alpha)
        ck.count(
            sorted(mapping.values()) == sorted(bits(target_mask)), "component {} does not map onto its target", alpha
        )
        for a in elems:
            for b in elems:
                ck.count(
                    mapping[s.table[a][b]] == s2.table[mapping[a]][mapping[b]],
                    "restriction breaks at {}*{} in component {}", a, b, alpha,
                )


def _pair_chain_checks(checks, s: CayleyTable, image: list[int]) -> None:
    ck = checks["pair-chain-image-union"]
    dec = decompose(s)
    a2 = enumerate_a2_masks(s)
    for a in range(s.order):
        for b in range(s.order):
            if dec.component_of[b] not in dec.above[dec.component_of[a]]:
                continue
            pair = (1 << a) | (1 << b)
            if pair not in a2:
                continue
            img = image[pair]
            ok = img == (image[1 << a] | image[1 << b]) and image[1 << a].bit_count() == 1
            ck.count(ok, "pair {{{},{}}} maps to {:#x}", a, b, img)


def _nonmaximal_checks(checks, s: CayleyTable, image: list[int]) -> None:
    ck = checks["nonmaximal-singleton-image"]
    dec = decompose(s)
    maximal = natural_order(s).maximal
    for alpha in dec.zero_components:
        for a in dec.component_elements(alpha):
            if maximal[a]:
                continue
            img = image[1 << a]
            ck.count(img.bit_count() == 1, "non-maximal {} has image {:#x}", a, img)


def _preimage_checks(checks, s: CayleyTable, image: list[int], preimage: list[int]) -> None:
    # reads only psi and its inverse, so it runs whether or not the component map was refused
    ck = checks["preimage-sandwich-transfer"]
    prod = power_of(s).product_mask
    for (a, _beta), pairs in _sandwiches(s).items():
        for s_el in bits(image[1 << a]):
            pre = preimage[1 << s_el]
            for bm, rhs in pairs:
                ck.count(
                    prod(prod(pre, bm), pre) == rhs, "conjugates of {:#x} by preimage of {} and by {} differ", bm, s_el, a
                )


def _cross_component_checks(
    checks, s: CayleyTable, s2: CayleyTable, image: list[int], theta: IsoMap | FalsificationError
) -> None:
    ck_single = checks["cross-sandwich-singleton"]
    ck_rho = checks["rho-image-transfer"]
    if isinstance(theta, FalsificationError):
        ck_single.refuse(f"component map unavailable: {theta}")
        ck_rho.refuse(f"component map unavailable: {theta}")
        return
    dec, dec2 = decompose(s), decompose(s2)
    prod2 = power_of(s2).product_mask
    for alpha in range(dec.count):
        for beta in sorted(dec.below[alpha]):
            for a in dec.component_elements(alpha):
                img = image[1 << a]
                for t_el in bits(dec2.components[theta.forward[beta]]):
                    sandwich = prod2(prod2(img, 1 << t_el), img)
                    ck_single.count(
                        sandwich.bit_count() == 1, "image of {} against {} gives {:#x}", a, t_el, sandwich
                    )
            for s_el in bits(dec2.components[theta.forward[alpha]]):
                for b in dec.component_elements(beta):
                    sandwich = prod2(prod2(1 << s_el, image[1 << b]), 1 << s_el)
                    ck_single.count(
                        sandwich.bit_count() == 1, "{} against the image of {} gives {:#x}", s_el, b, sandwich
                    )
    for alpha in dec.zero_components:
        rho_a = rho_partition(dec, alpha)
        rho_b = rho_partition(dec2, theta.forward[alpha])
        comp_mask = dec.components[alpha]
        for a in dec.component_elements(alpha):
            block_mask = mask_of(rho_a.block_containing(a))
            for s_el in bits(image[1 << a]):
                target_mask = mask_of(rho_b.block_containing(s_el))
                for am in submasks(comp_mask):
                    lhs = am | block_mask == block_mask
                    rhs = image[am] | target_mask == target_mask
                    ck_rho.count(
                        lhs == rhs, "subset {:#x} of component {}: containment transfers {}->{}", am, alpha, lhs, rhs
                    )


def _rho_checks(checks, s: CayleyTable, prod) -> None:
    dec = decompose(s)
    t = s.table
    sandwiches = _sandwiches(s)
    ck_col = checks["rho-sandwich-collapse"]
    ck_tr = checks["rho-lower-translation"]
    for alpha in dec.zero_components:
        rho = rho_partition(dec, alpha)
        below, above = sorted(dec.below[alpha]), sorted(dec.above[alpha])
        for block in rho.blocks:
            block_mask = mask_of(block)
            for a in block:
                for am in submasks(block_mask):
                    for beta in below:
                        for bm, rhs in sandwiches[a, beta]:
                            lhs = prod(prod(am, bm), am)
                            ck_col.count(lhs == rhs, "{:#x}*{:#x}*{:#x} != sandwich by {}", am, bm, am, a)
                    for gamma in above:
                        for cm in submasks(dec.components[gamma]):
                            lhs = prod(prod(cm, am), cm)
                            rhs = prod(prod(cm, 1 << a), cm)
                            ck_col.count(lhs == rhs, "{:#x}*{:#x}*{:#x} != sandwich of {}", cm, am, cm, a)
            for i, a1 in enumerate(block):
                for a2 in block[i + 1 :]:
                    for beta in below:
                        for b in dec.component_elements(beta):
                            ok = t[a1][b] == t[a2][b] and t[b][a1] == t[b][a2]
                            ck_tr.count(ok, "{} and {} translate {} differently", a1, a2, b)
