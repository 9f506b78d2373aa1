"""Supernatural numbers, extension classes, and the projective Moebius action.

The representable elements here are componentwise profinite integers whose
p-component is a power of p or 0 at finitely many primes and 1 everywhere
else, plus the reserved all-zero element.  That class contains s(n) (the
componentwise largest prime-power divisors of n), the elements p^inf, and is
closed under every computation this module performs, so nothing is lost by
the restriction; a general profinite integer is not finitely representable.

A projective rational matrix (a, b; c, d) acts partially on these elements by
z -> (b + d*z)/(a + c*z), componentwise.  The action is defined when every
component of a + c*z is nonzero: the matrix is only determined up to a
rational scalar, and a single scalar rescales the whole valuation profile of
a + c*z to zero, so "a + c*z is a profinite unit" is exactly
"no component vanishes".  Orbits of the action classify the extensions of Q
by Z up to abstract group isomorphism, and deciding orbit membership reduces
to an exact rational linear system plus validation of the candidate matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from operator import itemgetter

from .errors import Degenerate, NotAUnit, NotRepresentable
from .matrices import IntMatrix2, _parse_entries
from .primes import factor, is_prime

__all__ = [
    "ComponentwiseProfinite",
    "ONE",
    "ZERO_EVERYWHERE",
    "MoebiusMatrix",
    "ExtMatrix",
    "Equivalent",
    "NotEquivalent",
    "EquivVerdict",
    "s_of",
    "p_infinity",
    "multiply",
    "moebius_apply",
    "equiv_decide",
    "system_determinant",
    "prime_power_witness",
    "is_extension",
    "ext_membership",
    "goormaghtigh_search",
    "goormaghtigh_witness",
    "parse_supernatural",
    "parse_moebius",
    "GOORMAGHTIGH_8191_NOTE",
]


@dataclass(frozen=True)
class ComponentwiseProfinite:
    """A profinite integer given prime by prime.

    ``components`` maps finitely many primes to an exponent: an int e >= 1
    for the component p^e, or None for the component 0 (a factor p^inf).
    Unmapped primes have component 1.  ``zero_everywhere`` marks the reserved
    element whose every component is 0.

    Two profinite integers give the same extension class when they differ by
    an ordinary integer; inside this representable class a nonzero shift
    moves the default components off 1, so it is representable only for the
    pair 0 <-> 1, and class equality collapses to plain componentwise
    equality.  That is a lemma, not an operation: applying the translation
    matrix (1, n; 0, 1) through moebius_apply raises NotRepresentable for
    every n != 0 except on the all-zero element.
    """

    components: tuple[tuple[int, int | None], ...] = ()
    zero_everywhere: bool = False

    def __post_init__(self):
        if self.zero_everywhere and self.components:
            raise ValueError("the all-zero element carries no component map")
        seen = set()
        for p, e in self.components:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"repeated prime {p}")
            seen.add(p)
            if e is not None and (not isinstance(e, int) or e < 1):
                raise ValueError(f"exponent at {p} must be a positive integer or None, got {e!r}")
        if list(self.components) != sorted(self.components, key=lambda t: t[0]):
            raise ValueError("components must be sorted by prime")

    @classmethod
    def of(cls, mapping: dict[int, int | None]) -> "ComponentwiseProfinite":
        """Build from {prime: exponent-or-None}; exponent 0 entries drop out."""
        comps = tuple(sorted((p, e) for p, e in mapping.items() if e != 0))
        return cls(comps)

    @property
    def support(self) -> tuple[int, ...]:
        """The primes with a non-1 component (empty for the all-zero element,
        whose support is conceptually every prime)."""
        return tuple(p for p, _ in self.components)

    @property
    def is_one(self) -> bool:
        return not self.components and not self.zero_everywhere

    def exponent(self, p: int) -> int | None:
        """The exponent at p: 0 for a default component, None for component 0."""
        if self.zero_everywhere:
            return None
        for q, e in self.components:
            if q == p:
                return e
        return 0

    def value_at(self, p: int) -> int:
        """The exact component value: p^e, or 0."""
        e = self.exponent(p)
        return 0 if e is None else p**e

    def __str__(self) -> str:
        if self.zero_everywhere:
            return "0"
        if not self.components:
            return "1"
        return "*".join(f"{p}^{'inf' if e is None else e}" for p, e in self.components)


ONE = ComponentwiseProfinite()
ZERO_EVERYWHERE = ComponentwiseProfinite(zero_everywhere=True)


def s_of(n: int) -> ComponentwiseProfinite:
    """s(n): at each prime the largest p-power dividing n; s(0) is all-zero."""
    if n < 0:
        raise ValueError(f"need a nonnegative integer, got {n}")
    if n == 0:
        return ZERO_EVERYWHERE
    return ComponentwiseProfinite.of(dict(factor(n)))


def p_infinity(p: int) -> ComponentwiseProfinite:
    """The element with component 0 at p and 1 elsewhere."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return ComponentwiseProfinite.of({p: None})


def multiply(x: ComponentwiseProfinite, y: ComponentwiseProfinite) -> ComponentwiseProfinite:
    """Componentwise product: exponents add, a zero component absorbs."""
    if x.zero_everywhere or y.zero_everywhere:
        return ZERO_EVERYWHERE
    out: dict[int, int | None] = dict(x.components)
    for p, e in y.components:
        if p not in out:
            out[p] = e
        elif out[p] is None or e is None:
            out[p] = None
        else:
            out[p] += e
    return ComponentwiseProfinite.of(out)


def parse_supernatural(text: str) -> ComponentwiseProfinite:
    """Parse "p^e" factors joined by "*"; "1" is empty, "0" is all-zero.

    Rejects repeated primes and composite bases.
    """
    text = text.strip()
    if text == "0":
        return ZERO_EVERYWHERE
    if text == "1":
        return ONE
    comps: dict[int, int | None] = {}
    for part in text.split("*"):
        m = re.fullmatch(r"(\d+)\^(inf|\d+)", part.strip())
        if not m:
            raise ValueError(f"bad factor {part.strip()!r}; expected p^e or p^inf")
        p = int(m.group(1))
        if not is_prime(p):
            raise ValueError(f"base {p} is not prime")
        if p in comps:
            raise ValueError(f"repeated prime {p}")
        comps[p] = None if m.group(2) == "inf" else int(m.group(2))
    return ComponentwiseProfinite.of(comps)


@dataclass(frozen=True)
class MoebiusMatrix(IntMatrix2):
    """A projective rational 2x2 matrix (a, b; c, d) with ad - bc != 0.

    The canonical representative has coprime integer entries with the first
    nonzero entry positive, so equality of fields is projective equality.
    Products, ``identity`` and the rest come from :class:`IntMatrix2` and are
    normalized on construction.
    """

    def __post_init__(self):
        vals = [Fraction(v) for v in (self.a, self.b, self.c, self.d)]
        if vals[0] * vals[3] - vals[1] * vals[2] == 0:
            raise Degenerate(f"ad - bc = 0 in ({vals[0]}, {vals[1]}; {vals[2]}, {vals[3]})")
        den = lcm(*(v.denominator for v in vals))
        ints = [int(v * den) for v in vals]
        g = gcd(*ints)
        ints = [i // g for i in ints]
        first = next(i for i in ints if i)
        if first < 0:
            ints = [-i for i in ints]
        for name, value in zip(("a", "b", "c", "d"), ints):
            object.__setattr__(self, name, value)


def parse_moebius(text: str) -> MoebiusMatrix:
    """Parse "a,b;c,d" with integer or fractional entries."""
    return MoebiusMatrix(*_parse_entries(text, Fraction))


def _power_exponent(p: int, w: Fraction) -> int | None | str:
    # exponent e >= 0 with w = p^e, None for w = 0, "bad" otherwise
    if w == 0:
        return None
    if w.denominator != 1 or w < 1:
        return "bad"
    n = w.numerator
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e if n == 1 else "bad"


def moebius_apply(g: MoebiusMatrix, z: ComponentwiseProfinite) -> ComponentwiseProfinite:
    """Apply z -> (b + d*z)/(a + c*z) componentwise.

    Raises NotAUnit(p) when the component a + c*z_p vanishes (with p = None
    for the default components, i.e. a + c = 0), and NotRepresentable when
    the image leaves the representable class: a component that is neither a
    p-power nor 0, or a default value (b+d)/(a+c) different from 1 that does
    not make the whole result 0.
    """
    a, b, c, d = (Fraction(v) for v in g.entries())
    if z.zero_everywhere:
        if a == 0:
            raise NotAUnit(None)
        w = b / a
        if w == 0:
            return ZERO_EVERYWHERE
        if w == 1:
            return ONE
        raise NotRepresentable(None, f"all components map to {w}")
    if a + c == 0:
        raise NotAUnit(None)
    images: dict[int, Fraction] = {}
    for p, _ in z.components:
        zp = z.value_at(p)
        t = a + c * zp
        if t == 0:
            raise NotAUnit(p)
        images[p] = (b + d * zp) / t
    default = (b + d) / (a + c)
    if default == 1:
        out: dict[int, int | None] = {}
        for p, w in images.items():
            e = _power_exponent(p, w)
            if e == "bad":
                raise NotRepresentable(p, f"component at {p} maps to {w}")
            out[p] = e
        return ComponentwiseProfinite.of(out)
    if default == 0 and all(w == 0 for w in images.values()):
        return ZERO_EVERYWHERE
    raise NotRepresentable(None, f"default components map to {default}")


@dataclass(frozen=True)
class Equivalent:
    witness: MoebiusMatrix


@dataclass(frozen=True)
class NotEquivalent:
    reason: str  # "infeasible-system" or "prime-divisor-obstruction"


EquivVerdict = Equivalent | NotEquivalent


def _solve_rational_system(
    rows: list[list[Fraction]], rhs: list[Fraction]
) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """Gauss-Jordan over Q: (particular solution, nullspace basis), or None."""
    ncols = len(rows[0])
    aug = [row[:] + [r] for row, r in zip(rows, rhs)]
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if pivot_row is None:
            continue
        aug[rank], aug[pivot_row] = aug[pivot_row], aug[rank]
        scale = aug[rank][col]
        aug[rank] = [v / scale for v in aug[rank]]
        for i, row in enumerate(aug):
            if i != rank and row[col] != 0:
                factor_ = row[col]
                aug[i] = [v - factor_ * w for v, w in zip(row, aug[rank])]
        pivots.append(col)
        rank += 1
    if any(row[-1] != 0 for row in aug[rank:]):
        return None
    particular = [Fraction(0)] * ncols
    for i, col in enumerate(pivots):
        particular[col] = aug[i][-1]
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -aug[i][f]
        basis.append(vec)
    return particular, basis


def _validated_witness(
    vec: list[Fraction], z: ComponentwiseProfinite, z_target: ComponentwiseProfinite
) -> MoebiusMatrix | None:
    a, b, c, d = vec
    try:
        g = MoebiusMatrix(a, b, c, d)
        if moebius_apply(g, z) == z_target:
            return g
    except (Degenerate, NotAUnit, NotRepresentable):
        pass
    return None


def equiv_decide(z: ComponentwiseProfinite, z_prime: ComponentwiseProfinite) -> EquivVerdict:
    """Decide whether some projective rational matrix maps z to z_prime.

    Any witness can be rescaled so that a + c = 1 = b + d (the default
    components force a + c = b + d, and a + c = 0 is impossible with finite
    support), which together with one equation per support prime pins the
    matrix down to an exact rational linear system.  A support row is never a
    combination of the first two (that needs z_p = 1), so the solutions form a
    point or a line P + t*D.  On the line the equations fix every image
    component, det is quadratic in t and each a + c*z_p is linear, so unless
    one of them vanishes identically at most |support| + 2 values of t fail:
    the first |support| + 3 integers 0, 1, -1, 2, -2, ... decide.
    """
    if z.zero_everywhere or z_prime.zero_everywhere:
        if z == z_prime:
            return Equivalent(MoebiusMatrix.identity())
        other = z_prime if z.zero_everywhere else z
        if other.is_one:
            # (1, 1; 0, -1) swaps the all-zero and all-one elements
            return Equivalent(MoebiusMatrix(1, 1, 0, -1))
        return NotEquivalent("prime-divisor-obstruction")
    if z == z_prime:
        return Equivalent(MoebiusMatrix.identity())
    if set(z.support) != set(z_prime.support):
        return NotEquivalent("prime-divisor-obstruction")

    one = Fraction(1)
    zero = Fraction(0)
    rows = [[one, zero, one, zero], [zero, one, zero, one]]  # a+c = 1, b+d = 1
    rhs = [one, one]
    for p in z.support:
        zp = Fraction(z.value_at(p))
        wp = Fraction(z_prime.value_at(p))
        # b + zp*d = wp*(a + zp*c)
        rows.append([-wp, one, -wp * zp, zp])
        rhs.append(zero)
    solved = _solve_rational_system(rows, rhs)
    if solved is None:
        return NotEquivalent("infeasible-system")
    particular, basis = solved
    direction = basis[0] if basis else [zero] * 4
    for i in range(len(z.support) + 3 if basis else 1):
        t = (i + 1) // 2 if i % 2 else -(i // 2)
        witness = _validated_witness([v + t * w for v, w in zip(particular, direction)], z, z_prime)
        if witness:
            return Equivalent(witness)
    return NotEquivalent("infeasible-system")


def system_determinant(p: int, k: int, u: int, q: int, r: int, v: int) -> int:
    """Determinant of the 4x4 system coupling s(p^k q^r) to s(p^u q^v):
    (p^k - 1)(q^r - 1)(p^u - q^v), nonzero for distinct primes."""
    if p == q:
        raise ValueError("the two primes must be distinct")
    for n in (p, q):
        if not is_prime(n):
            raise ValueError(f"{n} is not prime")
    if min(k, u, r, v) < 1:
        raise ValueError("exponents must be positive")
    return (p**k - 1) * (q**r - 1) * (p**u - q**v)


def prime_power_witness(p: int, k: int, u: int) -> MoebiusMatrix:
    """The affine matrix mapping s(p^k) to s(p^u):
    (1, (p^k - p^u)/(p^k - 1); 0, (p^u - 1)/(p^k - 1)), cleared to integers."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if min(k, u) < 1:
        raise ValueError("exponents must be positive")
    return MoebiusMatrix(p**k - 1, p**k - p**u, 0, p**u - 1)


@dataclass(frozen=True)
class ExtMatrix:
    """The profinite Hermite form (s, z; 0, s') of a subgroup datum."""

    s: ComponentwiseProfinite
    z: ComponentwiseProfinite
    s_prime: ComponentwiseProfinite


def is_extension(x: ExtMatrix) -> bool:
    """True iff the associated subgroup of Q^2 is an extension of Q by Z:
    exactly when s = 1 and s' = 0."""
    return x.s.is_one and x.s_prime.zero_everywhere


def ext_membership(x: ExtMatrix, u: int | Fraction, v: int | Fraction) -> bool:
    """Whether the column (u, v) lies in the subgroup attached to x:
    at every prime, v_p(s_p*u + z_p*v) >= 0 and v_p(s'_p*v) >= 0.

    The support primes are checked one by one.  Every other prime sees the
    generic components (1, or 0 for the all-zero element), so it fails exactly
    when it divides the denominator of the generic s*u + z*v or s'*v.  The
    check passes when 1 is left after stripping the support primes from those
    denominators with gcd, so nothing is factored.
    """
    u = Fraction(u)
    v = Fraction(v)
    support = set(x.s.support) | set(x.z.support) | set(x.s_prime.support)
    for p in support:
        top = x.s.value_at(p) * u + x.z.value_at(p) * v
        bottom = x.s_prime.value_at(p) * v
        if top.denominator % p == 0 or bottom.denominator % p == 0:
            return False
    s, z, s_prime = (0 if y.zero_everywhere else 1 for y in (x.s, x.z, x.s_prime))
    rest = (s * u + z * v).denominator * (s_prime * v).denominator
    g = gcd(rest, prod(support))
    while g > 1:
        rest //= g
        g = gcd(rest, g)
    return rest == 1


GOORMAGHTIGH_8191_NOTE = (
    "8191 = (2^13-1)/(2-1) = (90^3-1)/(90-1); a citation of this solution as "
    "(x,y,n,m) = (2,90,13,2) is erroneous, since (90^2-1)/(90-1) = 91. "
    "The correct exponent pair for base 90 is (13, 3)."
)


# ``m2z goormaghtigh`` peaked at 293 MB RSS in 3.8 s at bound 10^18 (1,037,545
# repunits stored) and at 308 MB in 3.9 s at 1.19 * 10^18, the largest bound
# under MAX_REPUNITS.
MAX_REPUNITS = 1_100_000


def _max_base(bound: int, n: int) -> int:
    """The largest base x >= 2 whose length-n repunit (x^n - 1)/(x - 1) is
    <= bound, or 1 when there is none."""
    x = 1 << -(-bound.bit_length() // (n - 1))  # x^(n-1) > bound
    while (y := ((n - 2) * x + bound // x ** (n - 2)) // (n - 1)) < x:
        x = y  # Newton's step from above ends at the floor of bound^(1/(n-1))
    while x > 1 and (x**n - 1) // (x - 1) > bound:  # the repunit exceeds x^(n-1)
        x -= 1
    return x


def goormaghtigh_search(bound: int) -> list[tuple[int, int, int, int, int]]:
    """All coincidences (x^n-1)/(x-1) = (y^m-1)/(y-1) = value <= bound with
    2 <= x < y and n > m >= 3; sorted by value, then by (x, y).

    Both repunits must be genuinely multi-digit (m >= 3); the trivial family
    with m = 2 (value = y + 1) is excluded.  Only the repunits of length >= 4
    are hashed, O(bound^(1/3)) of them.  A length-3 partner y of a value v is
    found by one square test, v = y^2 + y + 1 iff 4v - 3 = (2y + 1)^2, and
    its base exceeds every base of a longer repunit of v.  Above
    MAX_REPUNITS stored repunits MemoryError is raised before any is built.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    stored, n = 0, 4
    while 2**n - 1 <= bound:  # the base-2 repunit of length n
        stored += _max_base(bound, n) - 1
        if stored > MAX_REPUNITS:
            raise MemoryError(f"a search to {bound} hashes over {MAX_REPUNITS} repunits")
        n += 1
    hits: dict[int, list[tuple[int, int]]] = {}
    x = 2
    while (value := ((x + 1) * x + 1) * x + 1) <= bound:  # the length-4 repunit in base x
        n = 4
        while value <= bound:
            hits.setdefault(value, []).append((x, n))
            value = value * x + 1
            n += 1
        x += 1
    out = []
    for value, found in hits.items():  # bases ascend, so lengths descend
        r = isqrt(4 * value - 3)
        if r * r == 4 * value - 3:
            found.append(((r - 1) // 2, 3))
        out += [(x1, x2, n1, n2, value) for (x1, n1), (x2, n2) in combinations(found, 2)]
    return sorted(out, key=itemgetter(4))


def goormaghtigh_witness(p: int, k: int, q: int, r: int, l: int) -> MoebiusMatrix | None:
    """A validated matrix with s(p^k q^r) * l^inf ~ s(p^(k+1) q^(r+1)) * l^inf,
    or None when the five-equation system has no acceptable solution.

    Solvability forces (p^(k+1)-1)/(p-1) = (q^(r+1)-1)/(q-1), so any witness
    beyond the (2,4,5,2) family would contradict the repunit coincidence
    search.
    """
    for n in (p, q, l):
        if not is_prime(n):
            raise ValueError(f"{n} is not prime")
    if not p < q:
        raise ValueError("need p < q")
    if l in (p, q):
        raise ValueError("l must differ from p and q")
    if min(k, r) < 1:
        raise ValueError("exponents must be positive")
    z = multiply(s_of(p**k * q**r), p_infinity(l))
    z_target = multiply(s_of(p ** (k + 1) * q ** (r + 1)), p_infinity(l))
    verdict = equiv_decide(z, z_target)
    return verdict.witness if isinstance(verdict, Equivalent) else None
