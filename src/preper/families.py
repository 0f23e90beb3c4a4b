"""Parametrized families of quadratic maps with promised orbit structure.

Each generator takes an admissible rational parameter and returns a
FamilyPoint carrying the value of c, the promised points with their orbit
types, and any auxiliary parameters implied by the construction (the
fixed-point parameter rho, the 2-cycle parameter sigma).  validate_family
re-derives every claim with exact arithmetic and the orbit classifier, so
a corrupted FamilyPoint fails loudly rather than silently.

The excluded parameter values are exactly where the displayed formulas
degenerate (a denominator vanishes or promised points collide with a
cycle), and the generators refuse them.  `make_family_point` also refuses,
with BudgetError, a parameter whose numerator or denominator reaches
PARAMETER_BUDGET.
"""

from __future__ import annotations

from fractions import Fraction

from .dynamics import BudgetError, QuadMap, orbit_classify, orbit_type_text
from .report import Report
from .values import Value, set_field

FAMILY_IDS = ("p1", "p2", "p3", "p1and2", "t12", "t22", "t32")

# bound on the numerator and denominator of a parameter: c and the points
# have degree <= 6 in it, so at 600 digits they still print under CPython's
# default 4300-digit limit on int-to-str conversion
PARAMETER_BUDGET = 10**600


class ExcludedParameterError(ValueError):
    pass


class FamilyPoint(Value):
    """A map z**2 + c of a family with its promised points and their orbit
    types, each the pair (period, tail) of orbit_classify; aux holds the
    implied parameters and takes no part in equality or hashing."""

    __slots__ = ("family", "parameter", "c", "points", "aux")
    _compare = ("family", "parameter", "c", "points")

    def __init__(self, family: str, parameter: Fraction | None, c: Fraction,
                 points: tuple[tuple[Fraction, tuple[int, int]], ...],
                 aux: dict[str, Fraction] | None = None):
        set_field(self, "family", family)
        set_field(self, "parameter", parameter)
        set_field(self, "c", c)
        set_field(self, "points", points)
        set_field(self, "aux", {} if aux is None else aux)


def family_period1(rho) -> FamilyPoint:
    """c = 1/4 - rho**2 with fixed points 1/2 + rho and 1/2 - rho (which
    coincide exactly when rho = 0)."""
    rho = Fraction(rho)
    c = Fraction(1, 4) - rho * rho
    pts = {Fraction(1, 2) + rho, Fraction(1, 2) - rho}
    return FamilyPoint("p1", rho, c, tuple((x, (1, 0)) for x in sorted(pts)), {"rho": rho})


def family_period2(sigma) -> FamilyPoint:
    """c = -3/4 - sigma**2 with the 2-cycle -1/2 + sigma, -1/2 - sigma."""
    sigma = Fraction(sigma)
    if sigma == 0:
        raise ExcludedParameterError("sigma = 0 collapses the 2-cycle onto a fixed point")
    c = Fraction(-3, 4) - sigma * sigma
    pts = (Fraction(-1, 2) + sigma, Fraction(-1, 2) - sigma)
    return FamilyPoint("p2", sigma, c, tuple((x, (2, 0)) for x in pts), {"sigma": sigma})


def _period3_data(tau: Fraction) -> tuple[Fraction, list[Fraction]]:
    t = tau
    den = 4 * t * t * (t + 1) ** 2
    c = -(t**6 + 2 * t**5 + 4 * t**4 + 8 * t**3 + 9 * t**2 + 4 * t + 1) / den
    half = 2 * t * (t + 1)
    x1 = (t**3 + 2 * t**2 + t + 1) / half
    x2 = (t**3 - t - 1) / half
    x3 = -(t**3 + 2 * t**2 + 3 * t + 1) / half
    return c, [x1, x2, x3]


def family_period3(tau) -> FamilyPoint:
    """The 3-cycle family; tau = 0 and tau = -1 are poles of the formulas."""
    tau = Fraction(tau)
    if tau in (0, -1):
        raise ExcludedParameterError(f"tau = {tau} is a pole of the 3-cycle family")
    c, xs = _period3_data(tau)
    return FamilyPoint("p3", tau, c, tuple((x, (3, 0)) for x in xs), {"tau": tau})


def family_period1and2(mu) -> FamilyPoint:
    """Maps with both fixed points and a 2-cycle:
    c = -(3 mu**4 + 10 mu**2 + 3) / (4 (mu**2 - 1)**2), with
    rho = -(mu**2 + 1)/(mu**2 - 1) and sigma = 2 mu / (mu**2 - 1)."""
    mu = Fraction(mu)
    if mu in (-1, 0, 1):
        raise ExcludedParameterError(f"mu = {mu} is excluded from the combined family")
    m2 = mu * mu
    c = -(3 * m2 * m2 + 10 * m2 + 3) / (4 * (m2 - 1) ** 2)
    rho = -(m2 + 1) / (m2 - 1)
    sigma = 2 * mu / (m2 - 1)
    pts = [(Fraction(1, 2) + rho, (1, 0)), (Fraction(1, 2) - rho, (1, 0)),
           (Fraction(-1, 2) + sigma, (2, 0)), (Fraction(-1, 2) - sigma, (2, 0))]
    return FamilyPoint("p1and2", mu, c, tuple(pts), {"rho": rho, "sigma": sigma})


def family_type12(eta) -> FamilyPoint:
    """Depth-2 points over a fixed point: c = -2(eta**2 + 1)/(eta**2 - 1)**2,
    points +-2 eta/(eta**2 - 1), coinciding at 0 when eta = 0 (c = -2)."""
    eta = Fraction(eta)
    if eta in (-1, 1):
        raise ExcludedParameterError(f"eta = {eta} is a pole of the 1_2 family")
    e2 = eta * eta
    c = -2 * (e2 + 1) / (e2 - 1) ** 2
    rho = -(e2 + 3) / (2 * (e2 - 1))
    r = 2 * eta / (e2 - 1)
    pts = {r, -r}
    return FamilyPoint("t12", eta, c, tuple((x, (1, 2)) for x in sorted(pts)), {"rho": rho})


def family_type22(nu) -> FamilyPoint:
    """Depth-2 points over a 2-cycle:
    c = (-nu**4 - 2 nu**3 - 2 nu**2 + 2 nu - 1)/(nu**2 - 1)**2,
    points +-(nu**2 + 1)/(nu**2 - 1)."""
    nu = Fraction(nu)
    if nu in (-1, 0, 1):
        raise ExcludedParameterError(f"nu = {nu} is excluded from the 2_2 family")
    n2 = nu * nu
    c = (-n2 * n2 - 2 * nu * n2 - 2 * n2 + 2 * nu - 1) / (n2 - 1) ** 2
    sigma = (n2 + 4 * nu - 1) / (2 * (n2 - 1))
    r = (n2 + 1) / (n2 - 1)
    return FamilyPoint("t22", nu, c, tuple((x, (2, 2)) for x in (r, -r)), {"sigma": sigma})


def family_type32() -> FamilyPoint:
    """The single map with rational depth-2 points over a 3-cycle:
    c = -29/16 with points 3/4 and -3/4."""
    c = Fraction(-29, 16)
    pts = (Fraction(3, 4), Fraction(-3, 4))
    return FamilyPoint("t32", None, c, tuple((x, (3, 2)) for x in pts))


_GENERATORS = {
    "p1": family_period1,
    "p2": family_period2,
    "p3": family_period3,
    "p1and2": family_period1and2,
    "t12": family_type12,
    "t22": family_type22,
}


def make_family_point(family: str, parameter=None) -> FamilyPoint:
    if family == "t32":
        if parameter is not None:
            raise ValueError("the 3_2 family takes no parameter")
        return family_type32()
    try:
        gen = _GENERATORS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; choose one of {FAMILY_IDS}") from None
    if parameter is None:
        raise ValueError(f"family {family!r} requires a rational parameter")
    q = Fraction(parameter)
    if max(abs(q.numerator), q.denominator) >= PARAMETER_BUDGET:
        raise BudgetError("the parameter has a numerator or denominator of more than "
                          f"{len(str(PARAMETER_BUDGET)) - 1} digits")
    return gen(parameter)


def validate_family(fp: FamilyPoint) -> Report:
    """Re-derive every promise in a FamilyPoint from scratch: one row per
    claim, with the claim as id and statement and the detail as value."""
    f = QuadMap(fp.c)
    rep = Report()

    def claim(text: str, ok: bool, detail: str, note: str = "") -> None:
        rep.add(text, text, ok, value=detail, note=note)

    for x, expected in fp.points:
        got = orbit_classify(f, x)
        claim(f"orbit({x})", got == expected,
              f"expected {orbit_type_text(expected)}, got {orbit_type_text(got)}")

    rho = fp.aux.get("rho")
    if rho is not None:
        ok = fp.c == Fraction(1, 4) - rho * rho
        claim("c = 1/4 - rho^2", ok, f"rho = {rho}")
    sigma = fp.aux.get("sigma")
    if sigma is not None:
        ok = fp.c == Fraction(-3, 4) - sigma * sigma
        claim("c = -3/4 - sigma^2", ok, f"sigma = {sigma}")

    if fp.family == "p3" and len(fp.points) == 3:
        xs = [x for x, _ in fp.points]
        forward = f(xs[0]) == xs[1] and f(xs[1]) == xs[2] and f(xs[2]) == xs[0]
        backward = f(xs[0]) == xs[2] and f(xs[2]) == xs[1] and f(xs[1]) == xs[0]
        claim("3-cycle permutation", forward or backward, "points are cyclically permuted",
              note="3-cycle realized in reverse orientation x1 -> x3 -> x2"
              if backward and not forward else "")

    if fp.family in ("t12", "t22"):
        # depth-2 points share their image, which is minus a cycle point
        xs = [x for x, _ in fp.points]
        if len(xs) == 2:
            claim("mirror pair shares image", f(xs[0]) == f(xs[1]),
                  f"f({xs[0]}) vs f({xs[1]})")
        image = f(xs[0])
        cyc = orbit_classify(f, -image)
        claim("image is minus a cycle point", cyc is not None and not cyc[1],
              f"-f({xs[0]}) = {-image} classified {orbit_type_text(cyc)}")

    return rep
