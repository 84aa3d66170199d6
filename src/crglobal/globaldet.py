"""From a power-semigroup isomorphism to an element-level isomorphism.

The pipeline: take the isomorphisms that :mod:`crglobal.search` finds between
two tables (or between their power semigroups), read off the induced
semilattice isomorphism on components, partition each left/right zero
component by sandwich behaviour, and assemble an element bijection that is
verified to be an isomorphism.  Every structural claim used along the way
can be checked exhaustively by the statement suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .breakable import a3_counterexample, enumerate_a2_masks, enumerate_a2bar_masks, enumerate_a3_masks
from .core import CayleyTable, bits, derived, green_relations, mask_of, natural_order, subset_or
from .errors import (
    BlockSizeMismatchError,
    EtaNotMorphismError,
    FalsificationError,
    ParentMismatchError,
    PsiImageNotSingletonError,
    ThetaNotSingletonError,
    WrongComponentKindError,
)
from .power import positions, power_of, power_table
# find_isomorphisms stays importable from here: the benchmark's tracer wraps it as globaldet.find_isomorphisms
from .search import IsoMap, find_isomorphisms, verify_morphism  # noqa: F401
from .structure import CS0, Decomposition, decompose, id_set_mask


def psi_image_mask(psi: IsoMap, mask: int) -> int:
    return psi.forward[mask - 1] + 1


def _check_subset_map(psi: IsoMap, s: CayleyTable, s2: CayleyTable) -> None:
    """Refuse a subset map that is not a map P(s) -> P(s2) between bases of one order."""
    if s.order != s2.order or len(psi.forward) != (1 << s.order) - 1:
        raise ParentMismatchError(f"a map of {len(psi.forward)} subsets between orders {s.order} and {s2.order}")


def _check_power_isomorphism(psi: IsoMap, s: CayleyTable, s2: CayleyTable) -> None:
    """Refuse a subset map that is not an isomorphism P(s) -> P(s2), the
    premise of the transfer, naming the first product it breaks."""
    pa, pb, f = power_table(s), power_table(s2), psi.forward
    if verify_morphism(pa, pb, f):
        return
    if sorted(f) != list(range(pb.order)):
        raise ThetaNotSingletonError("subset map is not a bijection")
    x, y = next((x, y) for x, row in enumerate(pa.table) for y, xy in enumerate(row) if f[xy] != pb.table[f[x]][f[y]])
    raise ThetaNotSingletonError(f"subset map breaks the product {x + 1:#x}*{y + 1:#x}")


# -- power tables and lifting ------------------------------------------------


def lift(phi: IsoMap) -> IsoMap:
    """Lift an element bijection to the subset level, elementwise."""
    if phi.kind != "elements":
        raise ValueError(f"lift needs an element map, got a {phi.kind} map")
    image = subset_or([1 << y for y in phi.forward])
    return IsoMap("subsets", tuple(m - 1 for m in image[1:]))


def is_singleton_preserving(psi: IsoMap, n: int) -> bool:
    return all(psi_image_mask(psi, 1 << i).bit_count() == 1 for i in range(n))


# -- the component map -------------------------------------------------------


def extract_theta(psi: IsoMap, dec_a: Decomposition, dec_b: Decomposition) -> IsoMap:
    """Semilattice isomorphism induced on components by a subset isomorphism.

    Each component's full subset must map into a single component on the
    other side, the induced map must be a semilattice isomorphism, and the
    subset map must carry the subsets of each component exactly onto the
    subsets of its image; first of all, ``psi`` must be an isomorphism of the
    power tables.  Any failure raises ThetaNotSingletonError.
    """
    _check_subset_map(psi, dec_a.base, dec_b.base)
    _check_power_isomorphism(psi, dec_a.base, dec_b.base)
    forward = []
    for alpha in range(dec_a.count):
        img = psi_image_mask(psi, dec_a.components[alpha])
        ids = id_set_mask(img, dec_b)
        if len(ids) != 1:
            raise ThetaNotSingletonError(f"component {alpha} maps across {sorted(ids)}")
        forward.append(next(iter(ids)))
    # this also refuses different component counts
    if not verify_morphism(dec_a.semilattice, dec_b.semilattice, forward):
        raise ThetaNotSingletonError("component map is not a semilattice isomorphism")
    for alpha in range(dec_a.count):
        amask = dec_a.components[alpha]
        bmask = dec_b.components[forward[alpha]]
        if amask.bit_count() != bmask.bit_count():
            raise ThetaNotSingletonError(f"components {alpha} and {forward[alpha]} have different sizes")
        # psi is injective, so subsets kept inside an image of equal size cover its subsets
        for sub in _submasks(amask):
            if psi_image_mask(psi, sub) & ~bmask:
                raise ThetaNotSingletonError(f"a subset of component {alpha} maps outside its image component")
    return IsoMap("components", tuple(forward))


# -- sandwich partitions on zero components ----------------------------------


@dataclass(frozen=True)
class RhoPartition:
    """Partition of one left/right zero component by sandwich behaviour.

    Two elements fall in one block when both are maximal for the natural
    order and conjugating by them agrees against every element of every
    strictly comparable component; non-maximal elements sit alone.
    """

    blocks: tuple[tuple[int, ...], ...]

    def block_containing(self, element: int) -> tuple[int, ...] | None:
        for block in self.blocks:
            if element in block:
                return block
        return None


@derived
def _sandwich_partitions(s: CayleyTable) -> dict[int, RhoPartition]:
    """The sandwich partition of each left or right zero component of ``s``."""
    dec = decompose(s)
    maximal = natural_order(s).maximal
    t = s.table
    out = {}
    for alpha in dec.zero_components:
        lower = [b for beta in sorted(dec.below[alpha]) for b in dec.component_elements(beta)]
        upper = [c for gamma in sorted(dec.above[alpha]) for c in dec.component_elements(gamma)]
        elems = dec.component_elements(alpha)
        groups: dict = {}
        blocks: list[tuple[int, ...]] = []
        for a in elems:
            if maximal[a]:
                key = (tuple(t[t[a][b]][a] for b in lower), tuple(t[t[c][a]][c] for c in upper))
                groups.setdefault(key, []).append(a)
            else:
                blocks.append((a,))
        blocks.extend(tuple(v) for v in groups.values())
        blocks.sort(key=lambda blk: blk[0])
        out[alpha] = RhoPartition(tuple(blocks))
    return out


def rho_partition(dec: Decomposition, alpha: int) -> RhoPartition:
    if alpha not in dec.zero_components:
        raise WrongComponentKindError(f"component {alpha} is {dec.classification[alpha]}, need a left or right zero component")
    return _sandwich_partitions(dec.base)[alpha]


# -- the element map ----------------------------------------------------------


@dataclass(frozen=True)
class Transfer:
    """The maps one subset isomorphism transfers to: the component map
    ``theta`` and the element isomorphism ``eta`` built on it."""

    theta: IsoMap
    eta: IsoMap


def construct_eta(psi: IsoMap, dec_a: Decomposition, dec_b: Decomposition) -> Transfer:
    """Assemble and verify the element-level isomorphism induced by ``psi``,
    returned with the component map extracted on the way.

    On components that are neither left nor right zero the subset map already
    sends singletons to singletons and is used directly.  On zero components
    the sandwich partitions on both sides are matched block-by-block (via the
    least element of the image of each block representative) and paired in
    ascending element order, which keeps the output deterministic.
    """
    theta = extract_theta(psi, dec_a, dec_b)
    order_a = natural_order(dec_a.base)
    eta = [-1] * dec_a.base.order
    for alpha in range(dec_a.count):
        beta = theta.forward[alpha]
        if dec_a.classification[alpha] == CS0:
            for a in dec_a.component_elements(alpha):
                img = psi_image_mask(psi, 1 << a)
                if img.bit_count() != 1:
                    raise PsiImageNotSingletonError(
                        f"element {a} of a non-zero component has image of size {img.bit_count()}"
                    )
                eta[a] = img.bit_length() - 1
        else:
            rho_a = rho_partition(dec_a, alpha)
            rho_b = rho_partition(dec_b, beta)
            for block in rho_a.blocks:
                rep = block[0]
                img = psi_image_mask(psi, 1 << rep)
                if not order_a.maximal[rep] and img.bit_count() != 1:
                    raise PsiImageNotSingletonError(
                        f"non-maximal element {rep} has image of size {img.bit_count()}"
                    )
                s = (img & -img).bit_length() - 1
                target = rho_b.block_containing(s)
                if target is None:
                    raise BlockSizeMismatchError(f"image element {s} is not in the matched component")
                if len(target) != len(block):
                    raise BlockSizeMismatchError(
                        f"block of {rep} has size {len(block)}, its image block has size {len(target)}"
                    )
                for x, y in zip(sorted(block), sorted(target)):
                    eta[x] = y
    if not verify_morphism(dec_a.base, dec_b.base, eta):
        raise EtaNotMorphismError("constructed map is not an isomorphism")
    return Transfer(theta, IsoMap("elements", tuple(eta)))


# -- per-semigroup data for the statement suite -------------------------------


@derived
def _support_groups(s: CayleyTable) -> list[tuple[list[int], list[bool]]]:
    """The nonempty subsets grouped by the R-classes they meet, groups of one
    left out, each group ascending and paired with, for each member after
    the first, whether its right ideal equals the first member's."""
    ideals = power_of(s).right_ideals
    # support[mask]: bit r set when mask meets R-class r
    support = subset_or([1 << r for r in green_relations(s).rclass])
    groups: dict[int, list[int]] = {}
    for mask in range(1, len(support)):
        groups.setdefault(support[mask], []).append(mask)
    return [(g, [ideals[o] == ideals[g[0]] for o in g[1:]]) for g in groups.values() if len(g) > 1]


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
                out[a, beta] = [(bm, prod(prod(am, bm), am)) for bm in _submasks(dec.components[beta])]
    return out


# -- the statement suite -------------------------------------------------------


@dataclass(frozen=True)
class Record:
    """One verified claim: ``instances`` checked in ``scope``, and the first
    failing instance as ``witness``.  Statement records carry an empty
    scope, which ``verify`` fills with the member or with the pair and map."""

    check: str
    scope: str
    instances: int
    ok: bool
    witness: str | None = None


# statements that read only the source semigroup, never the subset map
MEMBER_STATEMENT_IDS = (
    "a3-local-identities",
    "a3-square-root-rigid",
    "a3-square-support",
    "a3-absorbed-subset",
    "a3-multiplier-rigid",
    "rigid-cube-identity",
    "rigid-pair-products",
    "rigid-support-chain",
    "rigid-nonidempotent-hclass",
    "rigid-slice-one-sided",
    "rigid-lower-slice-zero",
    "rigid-top-two-group",
    "power-r-ideal",
    "power-d-support",
    "ep-leq-slice-containment",
    "ep-leq-top-slice",
    "drop-nonmaximal-covers",
    "rho-sandwich-collapse",
    "rho-lower-translation",
)

# statements that read the subset map
PSI_STATEMENT_IDS = (
    "a3-image-bijection",
    "a2-image-bijection",
    "a2bar-image-bijection",
    "rclass-support-ideals",
    "local-identity-ideal",
    "cs0-singleton-restriction",
    "pair-chain-image-union",
    "nonmaximal-singleton-image",
    "preimage-sandwich-transfer",
    "cross-sandwich-singleton",
    "rho-image-transfer",
)

STATEMENT_IDS = MEMBER_STATEMENT_IDS + PSI_STATEMENT_IDS


class _Check:
    """Accumulates one suite statement: counts every instance and keeps the
    first witness.

    A witness is given as a ``str.format`` template and its arguments, and
    only the first failing instance formats it; the rest pass the template
    unformatted.
    """

    def __init__(self, name: str):
        self.name = name
        self.instances = 0
        self.ok = True
        self.witness: str | None = None

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

    def record(self) -> Record:
        return Record(self.name, "", self.instances, self.ok, self.witness)


def _submasks(mask: int):
    """Nonempty submasks of ``mask``, descending."""
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask


def verify_member_statements(s: CayleyTable) -> list[Record]:
    """Exhaustively instantiate the statements that read only ``s``: one
    record per statement of :data:`MEMBER_STATEMENT_IDS`, in that order,
    counted as in :func:`verify_statement_suite`."""
    checks = {name: _Check(name) for name in MEMBER_STATEMENT_IDS}
    prod = power_of(s).product_mask
    _a3_shape_checks(checks, s, prod)
    _rigidity_checks(checks, s)
    _power_green_checks(checks, s)
    _ep_order_checks(checks, s, prod)
    _rho_checks(checks, s, prod)
    return [ck.record() for ck in checks.values()]


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

    Returns one record per statement of :data:`PSI_STATEMENT_IDS`, in that
    order, with the number of premise-satisfying instances checked; a
    failing record carries the first witness.  Instances are only counted
    when the statement's hypothesis actually held, so a coverage pass over
    the records detects vacuous statements.
    """
    _check_subset_map(psi, s, s2)
    if not isinstance(theta, FalsificationError) and (
        len(theta.forward) != decompose(s).count or sorted(theta.forward) != list(range(decompose(s2).count))
    ):
        raise ParentMismatchError(f"component map {list(theta.forward)} does not match the components of both tables")
    checks = {name: _Check(name) for name in PSI_STATEMENT_IDS}
    # image[A] and preimage[A] are the masks of psi(A) and psi^-1(A); index 0 is unused
    image = [0, *map((1).__add__, psi.forward)]
    preimage = sorted(range(len(image)), key=image.__getitem__)  # inverts the permutation image

    _image_bijections(checks, s, s2, image)
    _ideal_checks(checks, s, s2, image)

    if isinstance(theta, FalsificationError):
        for name in ("cs0-singleton-restriction", "cross-sandwich-singleton", "rho-image-transfer"):
            checks[name].refuse(f"component map unavailable: {theta}")
    else:
        _cs0_checks(checks, s, s2, image, theta)
        _cross_component_checks(checks, s, s2, image, preimage, theta)
    _pair_chain_checks(checks, s, image)
    _nonmaximal_checks(checks, s, image)

    return [ck.record() for ck in checks.values()]


def _image_bijections(checks, s: CayleyTable, s2: CayleyTable, image: list[int]) -> None:
    for name, masks in zip(
        ("a3-image-bijection", "a2-image-bijection", "a2bar-image-bijection"),
        (enumerate_a3_masks, enumerate_a2_masks, enumerate_a2bar_masks),
    ):
        src, dst = masks(s), masks(s2)
        ck = checks[name]
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
        for bm in _submasks(am):
            if sq[bm] == am:
                ck_root.count(bm == am, "proper {:#x} squares to {:#x}", bm, am)
        ids_a = id_set_mask(am, dec)
        for bm in positions(sq, am):
            ck_sup.count(id_set_mask(bm, dec) == ids_a, "{:#x} squares to {:#x} with different support", bm, am)
            if prod(bm, am) == am:
                ck_mul.count(bm == am, "{:#x} multiplies and squares onto {:#x}", bm, am)
        # the subsets supported inside the support of A (components are disjoint masks)
        for bm in _submasks(sum(dec.components[alpha] for alpha in ids_a)):
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
                ok = set(top) == {a, e} and t[a][a] == e
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
        # A*B = B*A = A needs {b}*A and A*{b} inside A for every b in B
        inside = 0
        for b, row in enumerate(p.rows):
            if row[am] | am == am and prod(am, 1 << b) | am == am:
                inside |= 1 << b
        for bm in p.idempotent_masks():
            if bm & ~inside or not (prod(am, bm) == am and prod(bm, am) == am):
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


def _cs0_checks(checks, s: CayleyTable, s2: CayleyTable, image: list[int], theta: IsoMap) -> None:
    ck = checks["cs0-singleton-restriction"]
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


def _cross_component_checks(
    checks, s: CayleyTable, s2: CayleyTable, image: list[int], preimage: list[int], theta: IsoMap
) -> None:
    ck_pre = checks["preimage-sandwich-transfer"]
    ck_single = checks["cross-sandwich-singleton"]
    ck_rho = checks["rho-image-transfer"]
    dec, dec2 = decompose(s), decompose(s2)
    prod, prod2 = power_of(s).product_mask, power_of(s2).product_mask
    sandwiches = _sandwiches(s)
    for alpha in range(dec.count):
        for beta in sorted(dec.below[alpha]):
            for a in dec.component_elements(alpha):
                img = image[1 << a]
                pairs = sandwiches[a, beta]
                for s_el in bits(img):
                    pre = preimage[1 << s_el]
                    for bm, rhs in pairs:
                        ck_pre.count(
                            prod(prod(pre, bm), pre) == rhs,
                            "conjugates of {:#x} by preimage of {} and by {} differ", bm, s_el, a,
                        )
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
                for am in _submasks(comp_mask):
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
                for am in _submasks(block_mask):
                    for beta in below:
                        for bm, rhs in sandwiches[a, beta]:
                            lhs = prod(prod(am, bm), am)
                            ck_col.count(lhs == rhs, "{:#x}*{:#x}*{:#x} != sandwich by {}", am, bm, am, a)
                    for gamma in above:
                        for cm in _submasks(dec.components[gamma]):
                            lhs = prod(prod(cm, am), cm)
                            rhs = prod(prod(cm, 1 << a), cm)
                            ck_col.count(lhs == rhs, "{:#x}*{:#x}*{:#x} != sandwich of {}", cm, am, cm, a)
            for i, a1 in enumerate(block):
                for a2 in block[i + 1 :]:
                    for beta in below:
                        for b in dec.component_elements(beta):
                            ok = t[a1][b] == t[a2][b] and t[b][a1] == t[b][a2]
                            ck_tr.count(ok, "{} and {} translate {} differently", a1, a2, b)
