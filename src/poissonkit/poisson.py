"""Poisson structures: validated bivectors and the operators they induce.

Construction always verifies the integrability condition ``[pi, pi] = 0``;
every downstream diagnostic assumes it, so an invalid bivector is rejected
at the door with the offending trivector attached.

Sign conventions follow :mod:`poissonkit.multivec`: ``lichnerowicz(P, f)``
equals ``-hamiltonian(P, f)`` on functions, which is the choice that makes
``L_{H_f} = d_pi o i_df + i_df o d_pi`` hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartMismatchError, JacobiFailure, PreconditionError
from .multivec import Polyvector, apply_vector_field, bv, contract, schouten, wedge
from .polyalg import Chart, Poly


@dataclass(frozen=True)
class PoissonStructure:
    """A bivector with certified ``[pi, pi] = 0`` plus its chart metadata."""

    chart: Chart
    pi: Polyvector

    def __str__(self) -> str:
        return str(self.pi)


@dataclass(frozen=True)
class DIdealGenerator:
    """One generator zeta(f) + H_f of the right ideal presenting the top cohomology.

    ``scalar_part`` is zeta(f) and ``vector_part`` is H_f, for f the source
    function (a chart coordinate).  Emission is purely symbolic; no
    Weyl-algebra computation happens here.
    """

    scalar_part: Poly
    vector_part: Polyvector
    source: Poly


def jacobiator(pi: Polyvector) -> Polyvector:
    """schouten(pi, pi): the trivector obstructing the Jacobi identity."""
    if pi.k != 2:
        raise PreconditionError(f"jacobiator needs a bivector, got degree {pi.k}")
    return schouten(pi, pi)


def new_poisson(pi: Polyvector) -> PoissonStructure:
    """Validate ``[pi, pi] = 0`` and wrap the bivector; raise JacobiFailure otherwise."""
    obstruction = jacobiator(pi)
    if not obstruction.is_zero:
        raise JacobiFailure(obstruction)
    return PoissonStructure(pi.chart, pi)


def hamiltonian(P: PoissonStructure, f: Poly) -> Polyvector:
    """The Hamiltonian vector field H_f = i_df(pi), so L_{H_f} g = {f, g}."""
    return contract(f, P.pi)


def poisson_bracket(P: PoissonStructure, f: Poly, g: Poly) -> Poly:
    """{f, g} = H_f(g)."""
    return apply_vector_field(hamiltonian(P, f), g)


def lichnerowicz(P: PoissonStructure, a: Polyvector) -> Polyvector:
    """The differential d_pi = [pi, -]; degree +1 and squares to zero."""
    if a.chart != P.chart:
        raise ChartMismatchError("polyvector lives on a different chart")
    return schouten(P.pi, a)


def pfaffian_bivector(pi: Polyvector) -> Poly:
    """Coefficient of the covolume in pi^(n/2) / (n/2)! for any bivector."""
    n = pi.chart.n
    if n % 2:
        raise PreconditionError(f"the Pfaffian needs an even-dimensional chart, got n={n}")
    if pi.k != 2:
        raise PreconditionError(f"the Pfaffian needs a bivector, got degree {pi.k}")
    half = n // 2
    power = Polyvector.function(Poly.constant(pi.chart, 1))
    for _ in range(half):
        power = wedge(power, pi)
    top = power.terms.get(tuple(range(n)), Poly.zero(pi.chart))
    factorial = 1
    for j in range(2, half + 1):
        factorial *= j
    return top * Fraction(1, factorial)


def pfaffian(P: PoissonStructure) -> Poly:
    """Pfaffian of a validated structure; its zero locus is the degeneracy divisor."""
    return pfaffian_bivector(P.pi)


def modular_field(P: PoissonStructure) -> Polyvector:
    """zeta = bv(pi) for the standard covolume.

    An infinitesimal symmetry of pi (``L_zeta pi = 0``) measuring the failure
    of Hamiltonian flows to preserve the covolume: ``zeta(f) = -bv(H_f)``.
    """
    return bv(P.pi)


def jacobian_poisson_3(F: Poly) -> PoissonStructure:
    """The Jacobian structure on a 3-chart: {x,y} = dF/dz cyclically.

    F is automatically a Casimir (``lichnerowicz(P, F) = 0``); the Jacobi
    identity holds for every F and is still checked by ``new_poisson``.
    """
    return new_poisson(jacobian_bivector_3(F))


def jacobian_bivector_3(F: Poly) -> Polyvector:
    """The bivector of ``jacobian_poisson_3``, before the Jacobi check."""
    chart = F.chart
    if chart.n != 3:
        raise PreconditionError(f"jacobian_poisson_3 needs a 3-chart, got n={chart.n}")
    return Polyvector(
        chart,
        2,
        {
            (0, 1): F.diff(2),
            (1, 2): F.diff(0),
            (0, 2): -F.diff(1),
        },
    )


def diagonal_quadratic_poisson(lam, chart: Chart | None = None) -> PoissonStructure:
    """pi = sum_{i<j} lam[i][j] (x_i d_i)^(x_j d_j) for a skew rational matrix.

    Jacobi holds automatically for this family; the construction still runs
    the check through ``new_poisson``.
    """
    return new_poisson(diagonal_quadratic_bivector(lam, chart))


def diagonal_quadratic_bivector(lam, chart: Chart | None = None) -> Polyvector:
    """The bivector of ``diagonal_quadratic_poisson``, before the Jacobi check."""
    rows = [list(row) for row in lam]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("lambda must be a square matrix")
    matrix = [[Fraction(entry) for entry in row] for row in rows]
    for i in range(n):
        for j in range(n):
            if matrix[i][j] != -matrix[j][i]:
                raise PreconditionError("lambda must be skew-symmetric")
    if chart is None:
        chart = Chart(tuple(f"x{i+1}" for i in range(n)))
    elif chart.n != n:
        raise ChartMismatchError("chart dimension does not match the matrix size")
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j]:
                xixj = Poly.variable(chart, i) * Poly.variable(chart, j)
                terms[(i, j)] = xixj * matrix[i][j]
    return Polyvector(chart, 2, terms)


def dmodule_generators(
    P: PoissonStructure, zeta: Polyvector | None = None
) -> list[DIdealGenerator]:
    """One symbolic generator zeta(x_i) + H_{x_i} per chart coordinate.

    Coordinate functions generate the same right ideal over the operator
    algebra as arbitrary f, so this finite emission presents the whole ideal;
    that reduction is a documented remark, not something the tool proves.
    ``zeta`` is P's modular field; pass it when it is already computed.
    """
    if zeta is None:
        zeta = modular_field(P)
    out = []
    for i in range(P.chart.n):
        xi = Poly.variable(P.chart, i)
        out.append(
            DIdealGenerator(
                scalar_part=apply_vector_field(zeta, xi),
                vector_part=hamiltonian(P, xi),
                source=xi,
            )
        )
    return out
