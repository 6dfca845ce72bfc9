"""Poisson structures: validated bivectors and the operators they induce.

Construction always verifies the integrability condition ``[pi, pi] = 0``;
every downstream diagnostic assumes it, so an invalid bivector is rejected
at the door with the offending trivector attached.

The operators here are calls into the one term-map kernel of
:mod:`poissonkit.multivec`: the Jacobi check is ``schouten(pi, pi)``, the
Hamiltonian field is ``contract(f, pi)`` and the modular field is
``bv(pi)``.  Sign conventions follow that module: d_pi = [pi, -] is
``schouten(P.pi, -)``, and ``schouten(P.pi, f)`` equals
``-hamiltonian(P, f)`` on functions, which is the choice that makes
``L_{H_f} = d_pi o i_df + i_df o d_pi`` hold.  Each family of structures has
one builder, which returns its bivector; :func:`new_poisson` checks it.  A
Jacobian structure needs none: it is ``contract(F, covolume(chart))``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartMismatchError, JacobiFailure, PreconditionError
from .multivec import MultiIndex, Polyvector, apply_vector_field, bv, contract, schouten
from .polyalg import Chart, Poly, _add_product, _clean, _exact


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
    """schouten(pi, pi): the trivector obstructing the Jacobi identity.

    On a 2-chart it is the zero polyvector of degree 2, the degree
    :func:`schouten` clamps to.
    """
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


def pfaffian(P: PoissonStructure) -> Poly:
    """Coefficient of the covolume in pi^(n/2) / (n/2)!; its zero locus is the degeneracy divisor.

    On a 2-chart it is pi's one coefficient, the same object.  Otherwise it
    is expanded along the lowest index i left: ``Pf(I) = sum_j (-1)^pos pi_ij
    Pf(I - {i, j})``, j at ``pos`` in I - {i}, over the nonzero pi_ij only,
    with each Pf(I) computed once.  A chart of independent 2-blocks costs
    one term per block; a dense chart stays exponential in n.
    """
    n = P.chart.n
    if n % 2:
        raise PreconditionError(f"the Pfaffian needs an even-dimensional chart, got n={n}")
    pi = P.pi.terms
    if n == 2:
        return pi.get((0, 1)) or Poly.zero(P.chart)

    @functools.cache
    def pf(index: MultiIndex) -> dict:
        if not index:
            return {(0,) * n: 1}
        i, rest = index[0], index[1:]
        acc: dict = {}
        for pos, j in enumerate(rest):
            if (i, j) in pi:
                _add_product(acc, -1 if pos % 2 else 1, pi[(i, j)].terms, pf(rest[:pos] + rest[pos + 1 :]))
        return _clean(acc)

    return Poly._of(P.chart, pf(tuple(range(n))))


def modular_field(P: PoissonStructure) -> Polyvector:
    """zeta = bv(pi) for the standard covolume.

    An infinitesimal symmetry of pi (``L_zeta pi = 0``) measuring the failure
    of Hamiltonian flows to preserve the covolume: ``zeta(f) = -bv(H_f)``.
    """
    return bv(P.pi)


def diagonal_quadratic_bivector(lam, chart: Chart | None = None) -> Polyvector:
    """pi = sum_{i<j} lam[i][j] (x_i d_i)^(x_j d_j) for a skew rational matrix.

    Each bracket is the one-term map ``{e_i + e_j: lam[i][j]}``.  Jacobi
    holds for every such matrix; ``new_poisson`` still checks it.
    """
    matrix = [[Fraction(entry) for entry in row] for row in lam]
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("lambda must be a square matrix")
    if any(matrix[i][j] != -matrix[j][i] for i in range(n) for j in range(i, n)):
        raise PreconditionError("lambda must be skew-symmetric")
    if chart is None:
        chart = Chart(tuple(f"x{i+1}" for i in range(n)))
    elif chart.n != n:
        raise ChartMismatchError("chart dimension does not match the matrix size")
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j]:
                exponent = tuple(int(k == i or k == j) for k in range(n))
                terms[(i, j)] = Poly._of(chart, {exponent: _exact(matrix[i][j])})
    return Polyvector(chart, 2, terms)


def dmodule_generators(
    P: PoissonStructure, zeta: Polyvector | None = None
) -> list[DIdealGenerator]:
    """One symbolic generator zeta(x_i) + H_{x_i} per chart coordinate.

    Coordinate functions generate the same right ideal over the operator
    algebra as arbitrary f, so this finite emission presents the whole ideal;
    that reduction is a documented remark, not something the tool proves.
    ``zeta`` is P's modular field; pass it when it is already computed.

    Both parts are read off, not computed: zeta(x_i) is zeta's d_i
    coefficient, and H_{x_i} = i_{dx_i} pi is row i of pi,
    ``sum_{b>i} pi_ib d_b - sum_{a<i} pi_ai d_a``.  So they share their
    coefficients with zeta and pi.
    """
    if zeta is None:
        zeta = modular_field(P)
    chart, zero = P.chart, Poly.zero(P.chart)
    rows: list[dict] = [{} for _ in range(chart.n)]
    for (a, b), coeff in P.pi.terms.items():
        rows[a][(b,)] = coeff
        rows[b][(a,)] = -coeff
    return [
        DIdealGenerator(
            scalar_part=zeta.terms.get((i,), zero),
            vector_part=Polyvector(chart, 1, row),
            source=Poly.variable(chart, i),
        )
        for i, row in enumerate(rows)
    ]
