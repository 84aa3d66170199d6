"""From a power-semigroup isomorphism to an element-level isomorphism.

The pipeline: take the isomorphisms that :mod:`crglobal.search` finds between
two tables (or between their power semigroups), read off the induced
semilattice isomorphism on components, partition each left/right zero
component by sandwich behaviour, and assemble an element bijection that is
verified to be an isomorphism.  Every structural claim used along the way
can be checked exhaustively by :mod:`crglobal.statements`.
"""

from __future__ import annotations

from .core import CayleyTable, natural_order, submasks, subset_or
from .errors import (
    BlockSizeMismatchError,
    EtaNotMorphismError,
    PsiImageNotSingletonError,
    ThetaNotSingletonError,
)
from .power import power_table
# find_isomorphisms stays importable from here: the benchmark's tracer wraps it as globaldet.find_isomorphisms
from .search import IsoMap, find_isomorphisms, verify_morphism  # noqa: F401
# verify_statement_suite stays importable from here: the benchmark's tracer wraps it as globaldet.verify_statement_suite
from .statements import check_subset_map, verify_statement_suite  # noqa: F401
from .structure import CS0, Decomposition, id_set_mask, rho_partition


def psi_image_mask(psi: IsoMap, mask: int) -> int:
    return psi.forward[mask - 1] + 1


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
    check_subset_map(psi, dec_a.base, dec_b.base)
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
        for sub in submasks(amask):
            if psi_image_mask(psi, sub) & ~bmask:
                raise ThetaNotSingletonError(f"a subset of component {alpha} maps outside its image component")
    return IsoMap("components", tuple(forward))


# -- the element map ----------------------------------------------------------


class Transfer:
    """The maps one subset isomorphism transfers to: the component map
    ``theta`` and the element isomorphism ``eta`` built on it."""

    def __init__(self, theta: IsoMap, eta: IsoMap):
        self.theta = theta
        self.eta = eta

    def __eq__(self, other) -> bool:
        return type(other) is Transfer and vars(self) == vars(other)


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
