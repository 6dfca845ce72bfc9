"""Holonomicity and log-symplectic diagnostics.

The decision procedure is sound but deliberately one-sided where the theory
is: a non-reduced degeneracy divisor rules holonomicity out; on surfaces,
log symplectic is exactly holonomic; in higher even dimension a
positive-dimensional locus of rank-zero modular leaves (points where both
pi and its modular field vanish) rules holonomicity out, while
``NO_OBSTRUCTION_FOUND`` is explicitly *not* a holonomicity certificate.
Only the rank-0 stratum is searched; positive-even-rank modular leaves
would need a rank stratification that is out of scope.

All verdicts are computed in the polynomial category.  For polynomial input
the squarefreeness test agrees with analytic reducedness, but leaf counts
beyond the rank-0 stratum may differ from the analytic picture.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .errors import DegenerateEverywhereError, NonReducedCurveError, PreconditionError
from .groebner import (
    DEFAULT_BUDGET,
    GREVLEX,
    GroebnerBasis,
    INFINITE,
    buchberger,
    ideal_dimension,
    jacobian_ideal_basis,
    normal_form,
    quotient_dimension,
)
from .multivec import Polyvector
from .poisson import PoissonStructure, hamiltonian, modular_field, pfaffian
from .polyalg import Poly, nonreduced_factor


class Verdict(enum.Enum):
    NOT_LOG_SYMPLECTIC = "NotLogSymplectic"
    OBSTRUCTED_BY_MODULAR_LEAVES = "ObstructedByModularLeaves"
    SURFACE_HOLONOMIC = "SurfaceHolonomic"
    NO_OBSTRUCTION_FOUND = "NoObstructionFound"


@dataclass(frozen=True)
class HolonomyVerdict:
    """Decision plus witness.

    ``NOT_LOG_SYMPLECTIC`` carries the non-squarefree factor
    gcd(f, df/dx_1, ..., df/dx_n) of the Pfaffian f.
    ``OBSTRUCTED_BY_MODULAR_LEAVES`` carries the rank-0 modular-leaf ideal
    and its (positive) dimension.  ``NO_OBSTRUCTION_FOUND`` also records the
    locus it inspected, as context rather than as a certificate.
    """

    verdict: Verdict
    witness_ideal: GroebnerBasis | None = None
    witness_dimension: int | None = None
    nonreduced_factor: Poly | None = None


@dataclass(frozen=True)
class SurfaceLeafReport:
    """Leaf taxonomy data of a Poisson surface with degeneracy curve f = 0.

    The open complement of the curve is the single two-dimensional leaf; the
    smooth locus of the curve carries the one-dimensional leaves; the
    zero-dimensional leaves are the points of the scheme-theoretic singular
    locus, cut out by (f, df/dw, df/dz).  When f is not squarefree the
    singular locus contains every multiple component, and the Tjurina total
    degenerates to INFINITE.
    """

    f: Poly
    open_leaf: str
    singular_ideal: GroebnerBasis
    singular_dimension: int
    tjurina_total: object  # int or INFINITE
    contains_multiple_components: bool


@dataclass(frozen=True)
class SurfaceH2Report:
    """Second graded cohomology of a log-symplectic surface chart.

    dim H^2 = b_2(U) + (total Tjurina number of the curve), valid under the
    quasi-homogeneous-singularities hypothesis.  ``quasi_homogeneous``
    records the global Saito-criterion check (f inside its Jacobian ideal);
    when it fails the formula is still emitted but ``formula_asserted`` is
    False.  Betti numbers of the complement are user input (topology of
    affine curve complements is out of scope).
    """

    tjurina_total: int
    formula: str
    quasi_homogeneous: bool
    formula_asserted: bool
    betti_u: tuple[int, ...] | None = None
    dim_h2: int | None = None


class StructureAnalysis:
    """Every report invariant of one structure, each computed at most once.

    Each invariant is a cached property, computed on first read.  Reading one
    raises what the matching public function below raises, in the same
    order: odd chart, then zero Pfaffian, then non-reduced curve.
    """

    def __init__(self, P: PoissonStructure, budget: int = DEFAULT_BUDGET):
        self.P = P
        self.budget = budget

    @cached_property
    def pfaffian(self) -> Poly:
        """The Pfaffian f, possibly zero; odd charts raise PreconditionError."""
        return pfaffian(self.P)

    def _nonzero_pfaffian(self, message: str) -> Poly:
        f = self.pfaffian
        if f.is_zero:
            raise DegenerateEverywhereError(message)
        return f

    def _require_surface(self) -> None:
        if self.P.chart.n != 2:
            raise PreconditionError("surface reports need a 2-dimensional chart")

    @cached_property
    def nonreduced_factor(self) -> Poly:
        """gcd(f, df/dx_1, ..., df/dx_n): constant exactly when f is reduced (or constant)."""
        f = self._nonzero_pfaffian(
            "the Pfaffian vanishes identically: no open dense symplectic leaf"
        )
        return nonreduced_factor(f)

    @property
    def reduced(self) -> bool:
        """Squarefreeness of the Pfaffian, i.e. log-symplecticity."""
        return self.nonreduced_factor.is_constant

    @cached_property
    def jacobian_basis(self) -> GroebnerBasis:
        """GREVLEX Groebner basis of (f, df/dx_1, ..., df/dx_n)."""
        return jacobian_ideal_basis(self.pfaffian, include_f=True, order=GREVLEX, budget=self.budget)

    @cached_property
    def tjurina_total(self):
        """dim O/(f, df): 0 for an empty curve, INFINITE for a non-isolated singular locus."""
        return quotient_dimension(self.jacobian_basis)

    @cached_property
    def partials_basis(self) -> GroebnerBasis:
        """GREVLEX Groebner basis of the partials of f alone (quasi-homogeneity test)."""
        return jacobian_ideal_basis(self.pfaffian, include_f=False, order=GREVLEX, budget=self.budget)

    @cached_property
    def modular_field(self) -> Polyvector:
        return modular_field(self.P)

    @cached_property
    def zero_leaf_locus(self) -> tuple[GroebnerBasis, int]:
        """The locus of ``zero_leaf_locus``: its Groebner basis and dimension."""
        gens = [*self.P.pi.terms.values(), *self.modular_field.terms.values()]
        basis = buchberger(gens or [Poly.zero(self.P.chart)], GREVLEX, self.budget)
        return basis, ideal_dimension(basis)

    @cached_property
    def verdict(self) -> HolonomyVerdict:
        """The decision of ``holonomy_verdict``."""
        n = self.P.chart.n
        if n % 2:
            raise PreconditionError("holonomy verdicts need an even-dimensional chart")
        if not self.reduced:
            return HolonomyVerdict(Verdict.NOT_LOG_SYMPLECTIC, nonreduced_factor=self.nonreduced_factor)
        if n == 2:
            return HolonomyVerdict(Verdict.SURFACE_HOLONOMIC)
        basis, dimension = self.zero_leaf_locus
        if dimension >= 1:
            verdict = Verdict.OBSTRUCTED_BY_MODULAR_LEAVES
        else:
            verdict = Verdict.NO_OBSTRUCTION_FOUND
        return HolonomyVerdict(verdict, witness_ideal=basis, witness_dimension=dimension)

    @cached_property
    def leaf_report(self) -> SurfaceLeafReport:
        """The report of ``surface_leaf_report``."""
        self._require_surface()
        f = self._nonzero_pfaffian("the zero Poisson surface has no leaf taxonomy")
        if f.is_constant:
            open_leaf = "the whole chart (empty degeneracy curve)"
        else:
            open_leaf = f"complement of the curve ({f}) = 0"
        return SurfaceLeafReport(
            f=f,
            open_leaf=open_leaf,
            singular_ideal=self.jacobian_basis,
            singular_dimension=ideal_dimension(self.jacobian_basis),
            tjurina_total=self.tjurina_total,
            contains_multiple_components=not self.reduced,
        )

    def h2_report(self, betti_u: tuple[int, ...] | None = None) -> SurfaceH2Report:
        """The report of ``surface_h2_report``."""
        self._require_surface()
        f = self._nonzero_pfaffian("the zero Poisson surface is not log symplectic")
        if not self.reduced:
            raise NonReducedCurveError(
                "the degeneracy curve is non-reduced; the surface is not log symplectic"
            )
        tau = self.tjurina_total
        assert tau is not INFINITE  # squarefree curves have isolated singularities
        quasi_homogeneous = f.is_constant or normal_form(f, self.partials_basis).is_zero
        value = None
        if betti_u is not None:
            betti_u = tuple(int(b) for b in betti_u)
            if len(betti_u) != 3:
                raise ValueError("betti_u must list (b0, b1, b2) of the complement")
            value = betti_u[2] + tau
        return SurfaceH2Report(
            tjurina_total=tau,
            formula=f"b2(U) + {tau}",
            quasi_homogeneous=quasi_homogeneous,
            formula_asserted=quasi_homogeneous,
            betti_u=betti_u,
            dim_h2=value,
        )


def degeneracy_divisor(P: PoissonStructure, budget: int = DEFAULT_BUDGET) -> tuple[Poly, bool]:
    """The Pfaffian together with its squarefreeness.

    A constant nonzero Pfaffian (symplectic chart, empty divisor) counts as
    vacuously reduced.  An identically zero Pfaffian means there is no open
    dense symplectic leaf and raises DegenerateEverywhereError.
    """
    analysis = StructureAnalysis(P, budget)
    return analysis.pfaffian, analysis.reduced


def is_log_symplectic(P: PoissonStructure, budget: int = DEFAULT_BUDGET) -> bool:
    """True iff the degeneracy divisor exists and is reduced (or empty)."""
    return StructureAnalysis(P, budget).reduced


def zero_leaf_locus(
    P: PoissonStructure, budget: int = DEFAULT_BUDGET
) -> tuple[GroebnerBasis, int]:
    """The rank-0 modular-leaf locus: pi = 0 and zeta = 0 simultaneously.

    Returns the Groebner basis of the ideal generated by every bivector
    coefficient of pi together with every component of the modular field,
    and the Krull dimension of its variety.
    """
    return StructureAnalysis(P, budget).zero_leaf_locus


def holonomy_verdict(P: PoissonStructure, budget: int = DEFAULT_BUDGET) -> HolonomyVerdict:
    """Sound decision procedure for (non-)holonomicity on even charts.

    (a) non-reduced degeneracy divisor: NOT_LOG_SYMPLECTIC (holonomic
        manifolds are log symplectic);
    (b) surfaces: log symplectic is equivalent to holonomic, so
        SURFACE_HOLONOMIC;
    (c) n >= 4 with a positive-dimensional rank-0 modular-leaf locus:
        OBSTRUCTED_BY_MODULAR_LEAVES (infinitely many zero-dimensional
        modular leaves force a characteristic variety too large to be
        Lagrangian);
    (d) otherwise NO_OBSTRUCTION_FOUND, which certifies nothing.
    """
    return StructureAnalysis(P, budget).verdict


def surface_leaf_report(P: PoissonStructure, budget: int = DEFAULT_BUDGET) -> SurfaceLeafReport:
    """Modular-leaf taxonomy of a Poisson surface; needs a nonzero Pfaffian."""
    return StructureAnalysis(P, budget).leaf_report


def surface_h2_report(
    P: PoissonStructure,
    betti_u: tuple[int, ...] | None = None,
    budget: int = DEFAULT_BUDGET,
) -> SurfaceH2Report:
    """dim H^2 = b_2(U) + total Tjurina number, for log-symplectic surfaces.

    Raises NonReducedCurveError when the Pfaffian is not squarefree (the
    log-symplectic hypothesis fails).  ``betti_u``, when supplied, lists
    (b_0, b_1, b_2) of the complement U and turns the formula into a number.
    """
    return StructureAnalysis(P, budget).h2_report(betti_u)


def modular_foliation_generators(P: PoissonStructure) -> list[Polyvector]:
    """Generators of the modular foliation: zeta plus every H_{x_i}."""
    out = [modular_field(P)]
    for i in range(P.chart.n):
        out.append(hamiltonian(P, Poly.variable(P.chart, i)))
    return out
