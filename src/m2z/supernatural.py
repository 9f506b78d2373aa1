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
to intersecting integer planes through the origin in three unknowns: a
candidate on every plane is a witness exactly when two of its coordinates
differ.
"""

from __future__ import annotations

import re
from itertools import combinations, groupby
from math import gcd, isqrt, lcm, log2, prod
from operator import itemgetter

from .errors import Degenerate, NotAUnit, NotRepresentable
from .matrices import _DIGITS, _MATRIX, _RATIONAL, IntMatrix2, _numbers
from .primes import factor, is_prime, valuation
from .record import Frozen, restore

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


class ComponentwiseProfinite(Frozen):
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

    __slots__ = ("components", "zero_everywhere")

    def __init__(self, components: tuple[tuple[int, int | None], ...] = (), zero_everywhere: bool = False):
        if zero_everywhere and components:
            raise ValueError("the all-zero element carries no component map")
        seen = set()
        for p, e in components:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            if p in seen:
                raise ValueError(f"repeated prime {p}")
            seen.add(p)
            if e is not None and (type(e) is not int or e < 1):
                raise ValueError(f"exponent at {p} must be a positive integer or None, got {e!r}")
        if list(components) != sorted(components, key=lambda t: t[0]):
            raise ValueError("components must be sorted by prime")
        self._set(components, zero_everywhere)

    @classmethod
    def of(cls, mapping: dict[int, int | None]) -> "ComponentwiseProfinite":
        """Build from {prime: exponent-or-None}; exponent 0 entries drop out."""
        comps = tuple(sorted((p, e) for p, e in mapping.items() if e != 0))
        return cls(comps)

    @classmethod
    def _of_known_primes(cls, mapping: dict[int, int | None]) -> "ComponentwiseProfinite":
        """``of`` for a mapping whose keys are primes of validated elements and
        whose values are valid exponents or 0: no prime is tested again."""
        return restore(cls, (tuple(sorted((p, e) for p, e in mapping.items() if e != 0)), False))

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
    return ComponentwiseProfinite._of_known_primes(out)


# Guards checked before a literal's bases are tested or raised to a power
# (2-CPU machine, Python 3.11.7).  is_prime took 1.1 s on a 4,096-bit prime,
# and its cost grows about 8-fold per doubling of the bits; unguarded, a
# 4,932-digit odd base took 14 s to refuse.  At 2^19 value bits "ext equiv 2^1
# 2^524288" took 2.2 s; unguarded, "ext apply 1,0;0,1 2^3000000" took 17 s
# and "ext equiv 2^1 2^3000000" over 60 s.
MAX_BASE_BITS = 4096  # bits of all the bases together
MAX_VALUE_BITS = 2**19  # e * log2(p), summed over the finite components
_FACTOR = rf"({_DIGITS})\^(inf|{_DIGITS})"


def parse_supernatural(text: str) -> ComponentwiseProfinite:
    """Parse "p^e" factors joined by "*"; "1" is empty, "0" is all-zero.

    Rejects repeated primes and composite bases, and with MemoryError the
    literals over MAX_BASE_BITS or MAX_VALUE_BITS.
    """
    text = text.strip()
    if text in ("0", "1"):
        return ONE if text == "1" else ZERO_EVERYWHERE
    if not re.fullmatch(rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*", text):
        raise ValueError(f"expected factors p^e or p^inf joined by '*', got {text!r}")
    comps = {int(p): None if e == "inf" else int(e) for p, e in re.findall(_FACTOR, text)}
    if len(comps) < text.count("^"):
        raise ValueError(f"repeated prime in {text!r}")
    if (bits := sum(p.bit_length() for p in comps)) > MAX_BASE_BITS:
        raise MemoryError(f"the bases of a literal have {bits} bits, over the limit of {MAX_BASE_BITS}")
    # min() keeps the float in range: an exponent over the limit is over on its own
    if sum(min(e, MAX_VALUE_BITS + 1) * log2(p) for p, e in comps.items() if e and p > 1) > MAX_VALUE_BITS:
        raise MemoryError(f"the value of a literal has over {MAX_VALUE_BITS} bits")
    return ComponentwiseProfinite.of(comps)


class MoebiusMatrix(IntMatrix2):
    """A projective rational 2x2 matrix (a, b; c, d) with ad - bc != 0.

    The canonical representative has coprime integer entries with the first
    nonzero entry positive, so equality of fields is projective equality.
    Products, ``identity`` and the rest come from :class:`IntMatrix2` and are
    normalized on construction.
    """

    __slots__ = ()

    def __init__(self, a: int | Fraction, b: int | Fraction, c: int | Fraction, d: int | Fraction):
        vals = (a, b, c, d)
        if a * d - b * c == 0:
            raise Degenerate(f"ad - bc = 0 in ({a}, {b}; {c}, {d})")
        den = lcm(*(v.denominator for v in vals))
        ints = [int(v * den) for v in vals]
        g = gcd(*ints)
        ints = [i // g for i in ints]
        first = next(i for i in ints if i)
        if first < 0:
            ints = [-i for i in ints]
        super().__init__(*ints)


def parse_moebius(text: str) -> MoebiusMatrix:
    """Parse "a,b;c,d" with integer or fractional entries."""
    return MoebiusMatrix(*_numbers(_MATRIX.format(_RATIONAL), text, '"a,b;c,d" with entries num/den'))


def moebius_apply(g: MoebiusMatrix, z: ComponentwiseProfinite) -> ComponentwiseProfinite:
    """Apply z -> (b + d*z)/(a + c*z) componentwise.

    Raises NotAUnit(p) when the component a + c*z_p vanishes (with p = None
    for the default components, i.e. a + c = 0), and NotRepresentable when
    the image leaves the representable class: a component that is neither a
    p-power nor 0, or a default value (b+d)/(a+c) different from 1 that does
    not make the whole result 0.  Everything is integer arithmetic on the
    pairs b + d*z_p, a + c*z_p; a fraction is only built for a message.
    """
    a, b, c, d = g.entries()
    if z.zero_everywhere:
        if a == 0:
            raise NotAUnit(None)
        if b == 0:
            return ZERO_EVERYWHERE
        if b == a:
            return ONE
        from fractions import Fraction
        raise NotRepresentable(None, f"all components map to {Fraction(b, a)}")
    if a + c == 0:
        raise NotAUnit(None)
    images = []  # (p, b + d*z_p, a + c*z_p)
    for p, e in z.components:
        zp = 0 if e is None else p**e
        if (t := a + c * zp) == 0:
            raise NotAUnit(p)
        images.append((p, b + d * zp, t))
    if b + d == a + c:
        out: dict[int, int | None] = {}
        for p, n, t in images:
            q, r = divmod(n, t)
            if n == 0:
                out[p] = None
            elif r == 0 and q >= 1 and p ** (e := valuation(q, p)) == q:
                out[p] = e
            else:
                from fractions import Fraction
                raise NotRepresentable(p, f"component at {p} maps to {Fraction(n, t)}")
        return ComponentwiseProfinite._of_known_primes(out)
    if b + d == 0 and not any(n for _, n, _ in images):
        return ZERO_EVERYWHERE
    from fractions import Fraction
    raise NotRepresentable(None, f"default components map to {Fraction(b + d, a + c)}")


class Equivalent(Frozen):
    __slots__ = ("witness",)

    def __init__(self, witness: MoebiusMatrix):
        self._set(witness)


class NotEquivalent(Frozen):
    __slots__ = ("reason",)

    def __init__(self, reason: str):  # "infeasible-system" or "prime-divisor-obstruction"
        self._set(reason)


EquivVerdict = Equivalent | NotEquivalent


def equiv_decide(z: ComponentwiseProfinite, z_prime: ComponentwiseProfinite) -> EquivVerdict:
    """Decide whether some projective rational matrix maps z to z_prime.

    The default components force a + c = b + d, and a + c = 0 is impossible
    with finite support, so any witness is (s - c, s - d; c, d) for some
    integers s, c, d.  With z = z_p and w = w_p, the components of z and
    z_prime at a support prime p (z != 1 there), b + d*z = w*(a + c*z) is the
    plane (1 - w)*s - w*(z - 1)*c + (z - 1)*d = 0 through the origin of
    (s, c, d).  Planes of different w are never parallel, so the first plane
    and the first plane of a different w meet in one line, their cross
    product.  When every w is equal, the candidate is the first plane's point
    (w*(z - 1), 1 - w, 0), or (z - 1, 0, -1) when w = 0.  The candidate must
    lie on every other plane (one integer dot product each).

    It is then a witness exactly when c != d.  With m = z - 1 (never 0) and
    w != 1, a + c*z = s + c*m is 0 exactly when c = d (s = -c*m turns the
    plane into m*(d - c) = 0), and then at every prime; where it is not 0 the
    plane makes b + d*z = w*(a + c*z), so the component maps to w.  The default
    components map to 1 because a + c = b + d = s, and s is never 0
    ((w2 - w)*m*m2, w*m or m), so ad - bc = s*(d - c) is not 0 either.
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
    if z.support != z_prime.support:  # both sorted by prime
        return NotEquivalent("prime-divisor-obstruction")

    (w, m), *others = [(z_prime.value_at(p), z.value_at(p) - 1) for p in z.support]  # (w_p, z_p - 1)
    crossing = next(((w2, m2) for w2, m2 in others if w2 != w), None)
    if crossing:
        w2, m2 = crossing  # the cross product of the normals (1 - w, -w*m, m) and (1 - w2, -w2*m2, m2)
        s = (w2 - w) * m * m2
        c = (1 - w2) * m - (1 - w) * m2
        d = (1 - w2) * w * m - (1 - w) * w2 * m2
    else:
        s, c, d = (w * m, 1 - w, 0) if w else (m, 0, -1)
    if c == d or any((1 - wq) * s + mq * (d - wq * c) for wq, mq in others):
        return NotEquivalent("infeasible-system")
    return Equivalent(MoebiusMatrix(s - c, s - d, c, d))


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


class ExtMatrix(Frozen):
    """The profinite Hermite form (s, z; 0, s') of a subgroup datum."""

    __slots__ = ("s", "z", "s_prime")

    def __init__(self, s: ComponentwiseProfinite, z: ComponentwiseProfinite, s_prime: ComponentwiseProfinite):
        self._set(s, z, s_prime)


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
    from fractions import Fraction
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


# MAX_REPUNITS bounds the work of ``m2z goormaghtigh``, not its memory: it visits
# each repunit of length >= 4 once, 1,037,545 of them in about 3.5 s at 10^18 and
# 1.1 * 10^6 at 1.19 * 10^18, peaking at the 15 MB RSS of a --bound 100 call.
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


def _repunits(n: int, bases: range):
    """(value, x, n) for the length-n repunit of each base x, ascending (a
    function, so that each stream keeps its own n)."""
    return (((x**n - 1) // (x - 1), x, n) for x in bases)


def goormaghtigh_search(bound: int) -> list[tuple[int, int, int, int, int]]:
    """All coincidences (x^n-1)/(x-1) = (y^m-1)/(y-1) = value <= bound with
    2 <= x < y and n > m >= 3; sorted by value, then by (x, y).

    Both repunits must be genuinely multi-digit (m >= 3); the trivial family
    with m = 2 (value = y + 1) is excluded.  The repunits of length >= 4,
    O(bound^(1/3)) of them, ascend with the base at each length, so a merge
    of the per-length streams brings each value's bases together, ascending.
    A length-3 partner y of a value v is found by one square test, v = y^2 +
    y + 1 iff 4v - 3 = (2y + 1)^2, and its base exceeds every base of a
    longer repunit of v.  Above MAX_REPUNITS repunits to visit MemoryError
    is raised before any is built.
    """
    from heapq import merge
    if bound < 1:
        raise ValueError("bound must be positive")
    ranges, n = [], 4
    while 2**n - 1 <= bound:  # the base-2 repunit of length n
        ranges.append(range(2, _max_base(bound, n) + 1))
        if sum(r.stop - 2 for r in ranges) > MAX_REPUNITS:  # len() overflows past 2^63 bases
            raise MemoryError(f"a search to {bound} visits over {MAX_REPUNITS} repunits")
        n += 1
    out = []
    for value, run in groupby(merge(*(_repunits(n, bases) for n, bases in enumerate(ranges, 4))), itemgetter(0)):
        found = [(x, n) for _, x, n in run]  # bases ascend, so lengths descend
        r = isqrt(4 * value - 3)
        if r * r == 4 * value - 3:
            found.append(((r - 1) // 2, 3))
        out += [(x1, x2, n1, n2, value) for (x1, n1), (x2, n2) in combinations(found, 2)]
    return out


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
