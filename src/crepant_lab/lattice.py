"""The exact linear-algebra kernel.

Two eliminations, the fraction-free determinant `det_int` and the Hermite
normal form `hnf`, and everything else built only on them: affine
coordinates by Cramer's rule, the affine dependence of d+2 points by
signed maximal minors, integer solves against an HNF, lattice membership
tests for N_G = Z^r + sum Z(alpha_mu/q_mu), and the standardization map
that sends the junior simplex to an integer point configuration in rank
r-1.  No floating point anywhere in this module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # avoid a runtime import cycle with grouptype
    from .grouptype import JuniorPoint, QuotientType

IntMatrix = list[list[int]]


class RankError(ValueError):
    """Input matrix is not of full row rank."""


def _identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def hnf(a: Sequence[Sequence[int]]) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form.

    Returns (h, u) with h = a @ u lower-triangular, positive diagonal, and
    each off-diagonal entry reduced into [0, diagonal of its row); u is
    unimodular (|det u| = 1).  Raises RankError if a is rank-deficient.
    """
    d, dp = len(a), len(a[0])
    h = [list(map(int, row)) for row in a]
    u = _identity(dp)

    def colop_sub(j: int, i: int, f: int) -> None:  # col_j -= f*col_i
        for row in h:
            row[j] -= f * row[i]
        for row in u:
            row[j] -= f * row[i]

    def colswap(i: int, j: int) -> None:
        for row in h:
            row[i], row[j] = row[j], row[i]
        for row in u:
            row[i], row[j] = row[j], row[i]

    def colneg(i: int) -> None:
        for row in h:
            row[i] = -row[i]
        for row in u:
            row[i] = -row[i]

    for i in range(d):
        while True:
            nz = [j for j in range(i, dp) if h[i][j] != 0]
            if not nz:
                raise RankError(f"row {i} has no pivot")
            jmin = min(nz, key=lambda j: abs(h[i][j]))
            if jmin != i:
                colswap(i, jmin)
            done = True
            for j in range(i + 1, dp):
                if h[i][j] != 0:
                    colop_sub(j, i, h[i][j] // h[i][i])
                    done = done and h[i][j] == 0
            if done:
                break
        if h[i][i] < 0:
            colneg(i)
        for j in range(i):
            if not 0 <= h[i][j] < h[i][i]:
                colop_sub(j, i, h[i][j] // h[i][i])
    return h, u


def hnf_solve(h: Sequence[Sequence[int]], m: Sequence[int | Fraction]) -> list[int] | None:
    """The integer x with h x = m, for h lower-triangular with nonzero
    diagonal (an HNF of full row rank; columns past the square part are
    ignored), by forward substitution.  None when x is not integral,
    in particular whenever m is not."""
    x: list[int] = []
    for i, mi in enumerate(m):
        rem = mi - sum(h[i][j] * x[j] for j in range(i))
        if rem % h[i][i] != 0:
            return None
        x.append(int(rem // h[i][i]))
    return x


def _generator_matrix(t: "QuotientType") -> IntMatrix:
    """Columns generating exp_G * N_G inside Z^r."""
    e, r = t.exp_g, t.r
    cols = [[e if i == j else 0 for i in range(r)] for j in range(r)]
    for (q, w), x in zip(t.factors, t.xi):
        cols.append([x * wi for wi in w])
    return [[col[i] for col in cols] for i in range(r)]


def lattice_member(n: Sequence[Fraction], t: "QuotientType") -> bool:
    """Whether the rational vector n lies in N_G."""
    h, _ = hnf(_generator_matrix(t))
    return hnf_solve(h, [Fraction(x) * t.exp_g for x in n]) is not None


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(a)
    m = [list(map(int, row)) for row in a]
    sign, prev = 1, 1
    for i in range(n):
        piv = next((k for k in range(i, n) if m[k][i] != 0), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for k in range(i + 1, n):
            for j in range(i + 1, n):
                m[k][j] = (m[k][j] * m[i][i] - m[k][i] * m[i][j]) // prev
            m[k][i] = 0
        prev = m[i][i]
    return sign * m[n - 1][n - 1]


def affine_coordinates(
    vertices: Sequence[Sequence[int]], p: Sequence[int]
) -> list[Fraction] | None:
    """Barycentric coordinates of the integer point p with respect to the
    d+1 integer points `vertices` of Z^d, by Cramer's rule on the rows
    (v, 1); None if they span a degenerate simplex."""
    rows = [list(v) + [1] for v in vertices]
    den = det_int(rows)
    if den == 0:
        return None
    row_p = list(p) + [1]
    return [
        Fraction(det_int(rows[:k] + [row_p] + rows[k + 1:]), den)
        for k in range(len(rows))
    ]


def affine_dependence(points: Sequence[Sequence[int]]) -> list[int] | None:
    """Coefficients lambda with sum lambda_i (p_i, 1) = 0 for d+2 integer
    points of Z^d: the signed maximal minors of the (d+1) x (d+2) matrix
    of columns (p_i, 1).  None when all of them vanish, i.e. when the
    affine dependences form a space of dimension 2 or more."""
    rows = [list(p) + [1] for p in points]
    lam = [(-1) ** i * det_int(rows[:i] + rows[i + 1:]) for i in range(len(rows))]
    return lam if any(lam) else None


def standardize_junior(
    cfg: Sequence["JuniorPoint"], t: "QuotientType"
) -> list[tuple[int, ...]]:
    """Map the junior configuration onto integer vectors in Z^(r-1).

    Composes: translation by -e_1; the unimodular map Phi with
    Phi(e_1)=e_1-e_2, Phi(e_2)=e_1, Phi(e_j)=e_1+e_j; projection to the
    hyperplane x_1=0; and R^-1 for R the HNF basis of the image lattice.
    The image lattice is exactly Z^(r-1), so the affine structure, all
    lattice-point counts and normalized volumes are preserved.

    Returns the integer points in input order.
    """
    e, r = t.exp_g, t.r
    # generators of the projected lattice: e_2..e_r and alpha'_mu/q_mu,
    # written in coordinates (x_2,...,x_r)
    cols = [[e if i == j else 0 for i in range(r - 1)] for j in range(r - 1)]
    for (q, w), x in zip(t.factors, t.xi):
        theta = sum(w)
        ap = [theta - w[0]] + list(w[2:])
        cols.append([x * c for c in ap])
    a = [[col[i] for col in cols] for i in range(r - 1)]
    h, _ = hnf(a)  # R = h / e

    out: list[tuple[int, ...]] = []
    for jp in cfg:
        v = [Fraction(x) for x in jp.point]
        v[0] -= 1  # translate by -e_1
        proj = [-v[0]] + v[2:]  # Phi then drop the (zero) first coordinate
        y = hnf_solve(h, [e * c for c in proj])
        if y is None:
            raise RuntimeError(f"image of {jp.point} is not a lattice point")
        out.append(tuple(y))

    # audit: image of the vertex simplex has normalized volume l
    verts = [p for p, jp in zip(out, cfg) if jp.kind == "vertex"]
    if len(verts) == r:
        edges = [
            [verts[i][c] - verts[0][c] for c in range(r - 1)]
            for i in range(1, r)
        ]
        if abs(det_int(edges)) != t.order:
            raise RuntimeError(f"standardized vertex simplex of {t} does not have volume {t.order}")
    return out
