"""Seeded call generators for the m2z benchmark, and the checks on each call.

A workload is an endless sequence of *cycles*.  Every cycle issues the same
calls at the same sizes (radius, determinant, term count, prime size,
series, mode and output format), and draws their contents (matrix entries,
centres of a given determinant, primes of a given size, supernatural
literals, factor order) from ``Random(f"{workload}:{seed}:{cycle}")``; the
order inside a cycle is shuffled.  So two seeds give different inputs with
the same cost profile, and a run of whole cycles has the same mix of calls
whatever its length.

Each call carries what the harness needs to judge it without m2z: the exit
code it must end with, and an invariant (``check`` plus ``params``) computed
from this module's own arithmetic.  Golden stdout digests are applied on top
of these by the runner.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

WORKLOADS = ("cli_short", "picture_balls", "number_theory")
GOLDEN = Path(__file__).resolve().parent / "golden"

# The Goormaghtigh coincidences with m >= 3 below 10^9 (31 and 8191).
GOORMAGHTIGH_ROWS = ((2, 5, 5, 3, 31), (2, 90, 13, 3, 8191))


@dataclass(frozen=True)
class Call:
    """One CLI call: its argv (after ``m2z``), the exit code it must end with,
    and the invariant its output must satisfy."""

    argv: tuple[str, ...]
    exit: int
    check: str
    params: tuple = ()

    @property
    def key(self) -> str:
        return json.dumps(self.argv)

    def to_json(self) -> list:
        return [list(self.argv), self.exit, self.check, list(self.params)]

    @classmethod
    def from_json(cls, item) -> "Call":
        argv, code, check, params = item
        return cls(tuple(argv), code, check, tuple(params))


# ---------------------------------------------------------------- arithmetic
# Independent of m2z on purpose: these are what the outputs are checked against.


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def sigma(n: int) -> int:
    out = 1
    for p, e in factorize(n).items():
        out *= (p ** (e + 1) - 1) // (p - 1)
    return out


def psi(n: int) -> int:
    out = n
    for p in factorize(n):
        out = out // p * (p + 1)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2..37 suffice below 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


SMALL_PRIMES = tuple(p for p in range(2, 51) if is_prime(p))


def origin_ball_counts(radius: int) -> tuple[int, int]:
    """Vertices and edges of the ball of radius R around the origin.

    The vertices are the primitive classes with det <= R, psi(n) of each
    determinant n.  Each vertex of determinant m has, for every prime p | m,
    exactly one neighbour one step down at p, so the edges number
    sum psi(m) * omega(m).  By homogeneity every ball of radius R has these
    counts.
    """
    vertices = edges = 0
    for m in range(1, radius + 1):
        vertices += psi(m)
        edges += psi(m) * len(factorize(m))
    return vertices, edges


def expected_coefficient(which: str, n: int) -> int:
    return {"M": sigma, "P": psi, "Pbar": lambda _: 1}[which](n)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), 1 if a >= 0 else -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


def hnf_payload(p: int, q: int, r: int, s: int) -> dict:
    """The canonical form (a, b; 0, d) of the left GL2(Z) orbit of
    ((p, q), (r, s)): a = gcd(p, r), d = |det|/a, and b the top-right entry
    after the row operation that clears the first column, reduced mod d."""
    a, x, y = _xgcd(p, r)
    d = abs(p * s - q * r) // a
    b = (x * q + y * s) % d
    c = math.gcd(a, b, d)
    return {"hnf": [[a, b], [0, d]], "det": a * d, "primitive": c == 1, "content": c}


def _component(p: int, exps: dict) -> Fraction:
    if p not in exps:
        return Fraction(1)
    return Fraction(0) if exps[p] is None else Fraction(p ** exps[p])


def maps_to(g, z1: dict, z2: dict) -> bool:
    """Whether z -> (b + d z)/(a + c z), taken prime by prime, sends the
    supernatural z1 to z2 (both {prime: exponent or None}, finite support)."""
    a, b, c, d = (Fraction(v) for v in g)
    if a * d - b * c == 0 or a + c == 0 or (b + d) / (a + c) != 1:
        return False
    for p in set(z1) | set(z2):
        t = a + c * _component(p, z1)
        if t == 0 or (b + d * _component(p, z1)) / t != _component(p, z2):
            return False
    return True


def member_expected(z: dict, u: Fraction, v: Fraction, den_primes) -> bool:
    """Membership of (u, v) in the extension with s = 1, s' = 0: at each
    prime that can fail, u + z_p v must be p-integral."""
    for p in set(z) | set(den_primes):
        top = u + _component(p, z) * v
        if top.denominator % p == 0:
            return False
    return True


# ---------------------------------------------------------------- literals


def supernatural_literal(exps: dict, rng: Random | None = None) -> str:
    if not exps:
        return "1"
    primes = sorted(exps)
    if rng is not None:
        rng.shuffle(primes)  # the parser must accept any factor order
    return "*".join(f"{p}^{'inf' if exps[p] is None else exps[p]}" for p in primes)


def vertex_literal(a: int, b: int, d: int) -> str:
    """The big-picture vertex (M, r) = (a/d, b/d) of the primitive class (a, b; 0, d)."""
    return f"M={Fraction(a, d)},r={Fraction(b, d)}"


# ---------------------------------------------------------------- sampling


def _nonsingular(rng: Random, bound: int, primitive: bool = False) -> tuple[int, int, int, int]:
    while True:
        m = tuple(rng.randint(-bound, bound) for _ in range(4))
        if m[0] * m[3] - m[1] * m[2] and (not primitive or math.gcd(*m) == 1):
            return m


def _matrix_literal(m) -> str:
    return f"{m[0]},{m[1]};{m[2]},{m[3]}"


def _primitive_class(rng: Random, det: int) -> tuple[int, int, int]:
    """A random primitive class (a, b; 0, d) of determinant ``det``."""
    divisors = [a for a in range(1, math.isqrt(det) + 1) if det % a == 0]
    divisors += [det // a for a in divisors]
    while True:
        a = rng.choice(divisors)
        d = det // a
        b = rng.randrange(d)
        if math.gcd(a, b, d) == 1:
            return a, b, d


def _centre_literal(rng: Random, a: int, b: int, d: int) -> str:
    if rng.random() < 0.5:
        return vertex_literal(a, b, d)
    return _matrix_literal((a, b, 0, d))


def _random_prime(rng: Random, lo: int) -> int:
    """A prime just above ``lo``: trial division costs about sqrt(lo)."""
    n = lo + rng.randrange(lo // 64) | 1
    while not is_prime(n):
        n += 2
    return n


def _supernatural(rng: Random, max_primes: int = 3) -> dict:
    primes = rng.sample(SMALL_PRIMES, rng.randint(1, max_primes))
    return {p: (None if rng.random() < 0.2 else rng.randint(1, 5)) for p in primes}


# ---------------------------------------------------------------- call kinds


def _positional(*literals: str) -> tuple[str, ...]:
    """Positional literals, after "--" when one starts with a minus sign."""
    return ("--", *literals) if any(x.startswith("-") for x in literals) else literals


def hnf_call(rng: Random) -> Call:
    m = _nonsingular(rng, 10**6)
    return Call(("hnf", *_positional(_matrix_literal(m))), 0, "hnf", m)


def dist_vertex_call(rng: Random) -> Call:
    def vertex() -> str:
        h = rng.randint(1, 24)
        return f"M={Fraction(rng.randint(1, 48), rng.randint(1, 24))},r={Fraction(rng.randrange(h), h)}"

    return Call(("dist", vertex(), vertex()), 0, "dist")


def dist_matrix_call(rng: Random) -> Call:
    x, y = (_nonsingular(rng, 50, primitive=True) for _ in range(2))
    return Call(("dist", *_positional(_matrix_literal(x), _matrix_literal(y))), 0, "dist")


def ball_call(rng: Random, centre: str | None, radius: int, fmt: str) -> Call:
    centre = centre or rng.choice(("M=1,r=0", "1,0;0,1"))
    return Call(("ball", centre, "--radius", str(radius), "--format", fmt), 0, "ball", (radius, fmt))


def zeta_call(rng: Random, which: str, terms: int, mode: str, fmt: str) -> Call:
    argv = ["zeta", "--which", which, "--terms", str(terms), "--mode", mode, "--format", fmt]
    header = fmt == "csv" and rng.random() < 0.5
    if header:
        argv.append("--header")
    return Call(tuple(argv), 0, "zeta", (which, terms, mode, fmt, header, rng.randrange(1 << 30)))


def equiv_call(rng: Random, prime: int | None = None) -> Call:
    if prime is not None:
        k, u = rng.sample(range(1, 4), 2)
        z1, z2 = {prime: k}, {prime: u}
    else:
        case = rng.randrange(4)
        z1 = _supernatural(rng)
        if case == 0:
            z2 = dict(z1)
        elif case == 1:
            p = rng.choice(SMALL_PRIMES)
            k, u = rng.sample(range(1, 6), 2)
            z1, z2 = {p: k}, {p: u}
        elif case == 2:
            z2 = _supernatural(rng)
            if set(z2) == set(z1):
                z2.pop(next(iter(z2)))
                z2 = z2 or {q: 1 for q in SMALL_PRIMES if q not in z1}
        else:
            z2 = {p: (None if rng.random() < 0.2 else rng.randint(1, 5)) for p in z1}
    argv = ("ext", "equiv", supernatural_literal(z1, rng), supernatural_literal(z2, rng))
    return Call(argv, 0, "equiv", (sorted(z1.items()), sorted(z2.items())))


def apply_call(rng: Random, prime: int | None = None) -> Call:
    """An action with a known image: the prime-power witness
    (p^k - 1, p^k - p^u; 0, p^u - 1) sends p^k to p^u, and the identity
    fixes everything."""
    if prime is not None or rng.random() < 0.6:
        p = prime or rng.choice(SMALL_PRIMES)
        k, u = rng.sample(range(1, 4 if prime else 6), 2)
        scale = rng.randint(1, 3)
        g = (scale * (p**k - 1), scale * (p**k - p**u), 0, scale * (p**u - 1))
        z, image = {p: k}, {p: u}
    else:
        g = (1, 0, 0, 1)
        z = image = _supernatural(rng)
    argv = ("ext", "apply", *_positional(_matrix_literal(g), supernatural_literal(z, rng)))
    return Call(argv, 0, "exact", (supernatural_literal(image) + "\n",))


def member_call(rng: Random, prime: int | None = None) -> Call:
    z = _supernatural(rng)
    den_primes = rng.sample(SMALL_PRIMES, 2)
    u_den = rng.choice(den_primes) ** rng.randint(0, 2)
    v_den = den_primes[0] * den_primes[1]
    if prime is not None:
        v_den *= prime
        den_primes.append(prime)
    u = Fraction(rng.randint(-20, 20), u_den)
    v = Fraction(rng.randint(1, 20), v_den)
    expected = member_expected(z, u, v, den_primes)
    argv = ("ext", "member", *_positional(supernatural_literal(z, rng), str(u), str(v)))
    return Call(argv, 0, "exact", (("true" if expected else "false") + "\n",))


def goormaghtigh_call(rng: Random, bound: int) -> Call:
    argv = ("goormaghtigh", "--bound", str(bound))
    if rng.random() < 0.5:
        argv += ("--header",)
    return Call(argv, 0, "goormaghtigh", (bound,))


def failing_call(rng: Random, code: int) -> Call:
    """A call that must fail: exit 1 for a domain error, 2 for a bad literal."""
    if code == 1:
        if rng.random() < 0.5:
            a, b, k = rng.randint(1, 99), rng.randint(-99, 99), rng.randint(-9, 9)
            return Call(("hnf", *_positional(_matrix_literal((a, b, k * a, k * b)))), 1, "exact", ("",))
        p = rng.choice(SMALL_PRIMES)
        k = rng.randint(1, 3)
        g = (p**k, rng.randint(1, 9), -1, rng.randint(1, 9))  # a + c*p^k = 0
        out = json.dumps({"error": "NotAUnit", "prime": p}) + "\n"
        return Call(("ext", "apply", _matrix_literal(g), f"{p}^{k}"), 1, "exact", (out,))
    argv = rng.choice(
        (
            ("hnf", "1,2;3"),
            ("ext", "equiv", "4^2", "2^1"),
            ("ball", "M=0,r=0", "--radius", "3"),
            ("dist", "M=1/0,r=0", "M=1,r=0"),
            ("zeta", "--which", "P", "--terms", "0"),
        )
    )
    return Call(argv, 2, "exact", ("",))


# ---------------------------------------------------------------- workloads
# Every cycle of a workload issues the same calls at the same sizes; the seed
# and the cycle index draw only the contents.  So any number of whole cycles
# has the same mix, and a percentile of a run's latencies falls at the same
# place in it however many cycles the machine's speed allows.


def _cli_short(rng: Random) -> list[Call]:
    ext = [equiv_call, apply_call, member_call]
    calls = [hnf_call(rng) for _ in range(3)]
    calls += [dist_vertex_call(rng), dist_vertex_call(rng), dist_matrix_call(rng)]
    calls += [
        ball_call(rng, None, 12, "dot"),
        ball_call(rng, None, 30, "json"),
        ball_call(rng, _centre_literal(rng, *_primitive_class(rng, 10)), 5, "dot"),
    ]
    for which, terms, mode, fmt in (
        ("M", 500, "formula", "csv"),
        ("P", 300, "enumerate", "json"),
        ("Pbar", 400, "both", "csv"),
        ("P", 500, "both", "json"),
    ):
        calls.append(zeta_call(rng, which, terms, mode, fmt))
    calls += [f(rng) for f in ext] + [rng.choice(ext)(rng)]
    calls.append(goormaghtigh_call(rng, 10**6))
    calls += [failing_call(rng, 1), failing_call(rng, 2)]
    return calls


def _picture_balls(rng: Random) -> list[Call]:
    calls = [
        ball_call(rng, None, 100, "dot"),
        # The largest ball of the cycle, in json, sets the workload's peak memory.
        ball_call(rng, None, 155, "json"),
    ]
    for det, radius, fmt in ((40, 10, "json"), (400, 8, "dot")):
        calls.append(ball_call(rng, _centre_literal(rng, *_primitive_class(rng, det)), radius, fmt))
    # Far centres avoid the factors 2 and 3: a down-step at the centre
    # enumerates every class of determinant det/p, seconds at this size.
    for det, radius, fmt in ((20_735, 4, "json"), (200_005, 3, "dot"), (800_035, 2, "json")):
        assert math.gcd(det, 6) == 1
        calls.append(ball_call(rng, _centre_literal(rng, *_primitive_class(rng, det)), radius, fmt))
    return calls


def _number_theory(rng: Random) -> list[Call]:
    calls = [
        zeta_call(rng, "M", 30_000, "formula", "json"),
        zeta_call(rng, "Pbar", 200_000, "formula", "csv"),
        # The largest table of the cycle sets the workload's peak memory.
        zeta_call(rng, "P", 10**6, "formula", "csv"),
        zeta_call(rng, "P", 4000, "both", "csv"),
        zeta_call(rng, "M", 100_000, "both", "json"),
    ]
    for size, make in ((10**10, apply_call), (10**12, member_call), (10**13, equiv_call)):
        calls.append(make(rng, _random_prime(rng, size)))
    calls.append(goormaghtigh_call(rng, 10**8))
    return calls


_CYCLES = {"cli_short": _cli_short, "picture_balls": _picture_balls, "number_theory": _number_theory}


def cycle(workload: str, seed: int, index: int) -> list[Call]:
    """The calls of one cycle, in the order they are issued."""
    rng = Random(f"{workload}:{seed}:{index}")
    calls = _CYCLES[workload](rng)
    rng.shuffle(calls)
    return calls


# ---------------------------------------------------------------- checks


def _lines(out: bytes, header: bool) -> list[bytes]:
    lines = out.split(b"\n")
    if lines[-1] != b"":
        raise ValueError("output does not end with a newline")
    return lines[1 if header else 0 : -1]


def _check_zeta(out: bytes, err: bytes, which, terms, mode, fmt, header, sample_seed) -> bool:
    both = mode == "both"
    if fmt == "json":
        payload = json.loads(out)
        if both:
            if payload["mismatches"] != 0:
                return False
            columns = [payload["formula"], payload["enumerated"]]
        else:
            columns = [payload]
        get = lambda col, n: columns[col][n - 1]  # noqa: E731
        if any(len(c) != terms for c in columns):
            return False
    else:
        lines = _lines(out, header)
        if len(lines) != terms:
            return False
        if header and not out.startswith(b"n,formula,enumerated\n" if both else b"n,coefficient\n"):
            return False

        def get(col, n):
            fields = lines[n - 1].split(b",")
            if int(fields[0]) != n or len(fields) != (3 if both else 2):
                raise ValueError(f"bad row {lines[n - 1]!r}")
            return int(fields[1 + col])

    if both and b"mismatches: 0\n" not in err:
        return False
    if terms <= 500:
        sample = range(1, terms + 1)
    else:
        rng = Random(sample_seed)
        sample = [1, terms] + [rng.randint(1, terms) for _ in range(30)]
    return all(get(col, n) == expected_coefficient(which, n) for n in sample for col in range(1 + both))


def _check_ball(out: bytes, err: bytes, radius, fmt) -> bool:
    if fmt == "json":
        payload = json.loads(out)
        counts = (len(payload["vertices"]), len(payload["edges"]))
    else:
        if not out.startswith(b"graph picture {\n") or not out.endswith(b"}\n"):
            return False
        counts = (out.count(b'[label="M='), out.count(b" -- "))
    return counts == origin_ball_counts(radius) and err == b"vertices: %d edges: %d\n" % counts


def _check_goormaghtigh(out: bytes, err: bytes, bound) -> bool:
    rows = [",".join(map(str, r)) for r in GOORMAGHTIGH_ROWS if r[4] <= bound]
    body = "".join(r + "\n" for r in rows)
    return out.decode() in (body, "x,y,n,m,value\n" + body)


def _check_equiv(out: bytes, err: bytes, z1, z2) -> bool:
    z1, z2 = dict(z1), dict(z2)
    verdict = json.loads(out)
    if verdict["verdict"] == "Equivalent":
        return maps_to([x for row in verdict["witness"] for x in row], z1, z2)
    if set(z1) != set(z2):
        return verdict == {"verdict": "NotEquivalent", "reason": "prime-divisor-obstruction"}
    return z1 != z2 and verdict["verdict"] in ("NotEquivalent", "Indeterminate")


def _check_dist(out: bytes, err: bytes) -> bool:
    payload = json.loads(out)
    return payload["agree"] is True and payload["delta"] >= 1


def _check_hnf(out: bytes, err: bytes, *m) -> bool:
    return json.loads(out) == hnf_payload(*m)


def _check_exact(out: bytes, err: bytes, expected) -> bool:
    return out == expected.encode()


_CHECKS = {
    "ball": _check_ball,
    "dist": _check_dist,
    "equiv": _check_equiv,
    "exact": _check_exact,
    "goormaghtigh": _check_goormaghtigh,
    "hnf": _check_hnf,
    "zeta": _check_zeta,
}


def check(call: Call, code: int, out: bytes, err: bytes) -> bool:
    """Whether a finished call is correct by its exit code and invariant."""
    if code != call.exit:
        return False
    try:
        return _CHECKS[call.check](out, err, *call.params)
    except (ValueError, KeyError, IndexError, TypeError):
        return False


def load_golden(workload: str) -> dict[str, list]:
    """{argv key: [exit code, stdout sha256]} recorded by record_golden.py."""
    return json.loads((GOLDEN / f"{workload}.json").read_text())["calls"]


def matches_golden(golden: dict, call: Call, code: int, out: bytes) -> bool:
    expected = golden.get(call.key)
    return expected is None or [code, hashlib.sha256(out).hexdigest()] == expected
