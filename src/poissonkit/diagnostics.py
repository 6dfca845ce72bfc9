"""Holonomicity and log-symplectic diagnostics of one Poisson structure.

``StructureAnalysis`` is the whole interface: the degeneracy divisor and its
reducedness, the modular field, the rank-0 modular-leaf locus, the verdict,
the surface leaf taxonomy and the ``H^2`` data are its cached properties.

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
from functools import cached_property

from .errors import DegenerateEverywhereError, NonReducedCurveError, PreconditionError
from .groebner import (
    DEFAULT_BUDGET,
    GroebnerBasis,
    INFINITE,
    buchberger,
    ideal_dimension,
    jacobian_ideal_basis,
    quotient_dimension,
)
from .multivec import Polyvector
from .poisson import PoissonStructure, modular_field, pfaffian
from .polyalg import Poly, nonreduced_factor


_ZERO_PFAFFIAN = "the Pfaffian vanishes identically: no open dense symplectic leaf"


class Verdict(enum.Enum):
    NOT_LOG_SYMPLECTIC = "NotLogSymplectic"
    OBSTRUCTED_BY_MODULAR_LEAVES = "ObstructedByModularLeaves"
    SURFACE_HOLONOMIC = "SurfaceHolonomic"
    NO_OBSTRUCTION_FOUND = "NoObstructionFound"


class StructureAnalysis:
    """Every diagnostic of one structure, each a cached property computed at most once.

    A read checks its preconditions in one order: odd chart
    (PreconditionError), then zero Pfaffian (DegenerateEverywhereError), then
    non-reduced curve (NonReducedCurveError).  ``budget`` bounds each
    Groebner basis, on a surface the one that ``reduced`` reads too.
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

    def _surface_pfaffian(self, message: str) -> Poly:
        """The nonzero Pfaffian of a surface; ``message`` names a zero one."""
        if self.P.chart.n != 2:
            raise PreconditionError("surface reports need a 2-dimensional chart")
        return self._nonzero_pfaffian(message)

    def _log_symplectic_tau(self) -> int:
        """The total Tjurina number of a reduced surface curve, always finite."""
        self._surface_pfaffian("the zero Poisson surface is not log symplectic")
        if not self.reduced:
            raise NonReducedCurveError(
                "the degeneracy curve is non-reduced; the surface is not log symplectic"
            )
        tau = self.tjurina_total
        assert tau is not INFINITE  # a reduced surface curve has a finite singular locus
        return tau

    @cached_property
    def nonreduced_factor(self) -> Poly:
        """gcd(f, df/dx_1, ..., df/dx_n), constant iff f is reduced: the NOT_LOG_SYMPLECTIC witness, and ``reduced`` off surfaces."""
        return nonreduced_factor(self._nonzero_pfaffian(_ZERO_PFAFFIAN))

    @property
    def reduced(self) -> bool:
        """Log-symplecticity: f is squarefree, or a nonzero constant (empty divisor).

        On a surface it is read off the singular locus: f is constant, or
        ``tjurina_total`` is finite (a Groebner basis run under ``budget``).
        In characteristic 0 that is squarefreeness.  If f = g^2 h with g
        not constant, the curve V(g) lies in V(f, df), which is then
        infinite.  If f is squarefree, write f = p h for a prime factor p,
        p not dividing h; p divides f_i = p_i h + p h_i only if it divides
        p_i, of lower degree, so only if p_i = 0, and not every p_i is 0.
        So V(p) meets V(f, df) in finitely many points.  On charts of 4 or
        more variables the test is the gcd ``nonreduced_factor``.
        """
        f = self._nonzero_pfaffian(_ZERO_PFAFFIAN)
        if self.P.chart.n == 2:
            return f.is_constant or self.tjurina_total is not INFINITE
        return self.nonreduced_factor.is_constant

    @cached_property
    def jacobian_basis(self) -> GroebnerBasis:
        """Groebner basis of (f, df/dx_1, ..., df/dx_n): the scheme-theoretic singular locus."""
        return jacobian_ideal_basis(self.pfaffian, include_f=True, budget=self.budget)

    @cached_property
    def tjurina_total(self):
        """dim O/(f, df): 0 for an empty curve, INFINITE for a non-isolated singular locus."""
        return quotient_dimension(self.jacobian_basis)

    @cached_property
    def partials_basis(self) -> GroebnerBasis:
        """Groebner basis of the partials of f alone (quasi-homogeneity test)."""
        return jacobian_ideal_basis(self.pfaffian, include_f=False, budget=self.budget)

    @cached_property
    def modular_field(self) -> Polyvector:
        return modular_field(self.P)

    @cached_property
    def zero_leaf_locus(self) -> tuple[GroebnerBasis, int]:
        """Basis and Krull dimension (-1 if empty) of the rank-0 modular-leaf locus pi = zeta = 0."""
        gens = [*self.P.pi.terms.values(), *self.modular_field.terms.values()]
        basis = buchberger(gens or [Poly.zero(self.P.chart)], self.budget)
        return basis, ideal_dimension(basis)

    @cached_property
    def verdict(self) -> Verdict:
        """Sound decision procedure for (non-)holonomicity on even charts.

        (a) non-reduced degeneracy divisor: NOT_LOG_SYMPLECTIC (holonomic
            manifolds are log symplectic), witnessed by ``nonreduced_factor``;
        (b) surfaces: log symplectic is equivalent to holonomic, so
            SURFACE_HOLONOMIC;
        (c) n >= 4 with a positive-dimensional rank-0 modular-leaf locus:
            OBSTRUCTED_BY_MODULAR_LEAVES (infinitely many zero-dimensional
            modular leaves force a characteristic variety too large to be
            Lagrangian), witnessed by ``zero_leaf_locus``;
        (d) otherwise NO_OBSTRUCTION_FOUND, which certifies nothing.
        """
        if not self.reduced:
            return Verdict.NOT_LOG_SYMPLECTIC
        if self.P.chart.n == 2:
            return Verdict.SURFACE_HOLONOMIC
        if self.zero_leaf_locus[1] >= 1:
            return Verdict.OBSTRUCTED_BY_MODULAR_LEAVES
        return Verdict.NO_OBSTRUCTION_FOUND

    @cached_property
    def open_leaf(self) -> str:
        """The open leaf of a surface; the curve's smooth locus and ``jacobian_basis`` hold the rest."""
        f = self._surface_pfaffian("the zero Poisson surface has no leaf taxonomy")
        if f.is_constant:
            return "the whole chart (empty degeneracy curve)"
        return f"complement of the curve ({f}) = 0"

    @cached_property
    def singular_dimension(self) -> int:
        """Krull dimension of a surface curve's singular locus; 1 when f has a multiple component."""
        self._surface_pfaffian("the zero Poisson surface has no leaf taxonomy")
        return ideal_dimension(self.jacobian_basis)

    @cached_property
    def quasi_homogeneous(self) -> bool:
        """f in the ideal of its partials (Saito): the hypothesis of dim H^2 = b_2(U) + tau.

        f lies in (df) exactly when (df) = (f, df), and reduced bases are
        canonical, so the two bases are compared.
        """
        self._log_symplectic_tau()
        return self.pfaffian.is_constant or self.partials_basis.gens == self.jacobian_basis.gens

    def dim_h2(self, betti_u: tuple[int, ...]) -> int:
        """b_2(U) + ``tjurina_total`` = dim H^2 of a log-symplectic surface; ``betti_u`` is (b_0, b_1, b_2)."""
        tau = self._log_symplectic_tau()
        betti_u = tuple(int(b) for b in betti_u)
        if len(betti_u) != 3:
            raise ValueError("betti_u must list (b0, b1, b2) of the complement")
        return betti_u[2] + tau
