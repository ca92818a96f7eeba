"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored in canonical form: integer coordinates over the power
basis {zeta_n^0, ..., zeta_n^(phi(n)-1)} reduced modulo the n-th cyclotomic
polynomial, a positive common denominator, and a minimal conductor.
Canonical values are hash-consed, so equal values are the same object:
a value compares and hashes by identity, and every value stays in the
intern table for the life of the process.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Optional, Union

__all__ = [
    "CycloNum",
    "ConductorLimitError",
    "ZERO",
    "ONE",
    "rational",
    "root_of_unity",
    "sqrt_rational",
    "parse_cyclo",
]

RationalLike = Union[int, Fraction]


class ConductorLimitError(ValueError):
    """Raised when an operation would exceed the conductor bound."""


_CONDUCTOR_LIMIT = 264


# ---------------------------------------------------------------------------
# number-theoretic tables


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    ps = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            ps.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        ps.append(m)
    return tuple(ps)


@lru_cache(maxsize=None)
def _phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result = result // p * (p - 1)
    return result


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + dd]
        assert c % den[dd] == 0
        q = c // den[dd]
        out[i] = q
        if q:
            for j, dj in enumerate(den):
                num[i + j] -= q * dj
    assert all(c == 0 for c in num)
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic integer polynomial."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    out = num
    for d in range(1, n):
        if n % d == 0:
            out = _poly_divexact(out, list(cyclotomic_poly(d)))
    return tuple(out)


@lru_cache(maxsize=None)
def _redrows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse reduction rows: zeta_n^k over the power basis for phi <= k <= 2*phi-2."""
    phi = _phi(n)
    poly = cyclotomic_poly(n)
    # t^phi = -(poly[0] + poly[1] t + ... + poly[phi-1] t^(phi-1))
    cur = [-poly[i] for i in range(phi)]
    rows = [tuple(cur)]
    for _ in range(phi - 2):
        top = cur[-1]
        nxt = [0] + cur[:-1]
        if top:
            base = rows[0]
            nxt = [nxt[i] + top * base[i] for i in range(phi)]
        cur = nxt
        rows.append(tuple(cur))
    sparse = []
    for row in rows:
        sparse.append(tuple((i, c) for i, c in enumerate(row) if c))
    return tuple(sparse)


@lru_cache(maxsize=None)
def _power_vec(n: int, k: int) -> tuple[int, ...]:
    """Dense coordinates of zeta_n^k over the power basis (k arbitrary)."""
    phi = _phi(n)
    k %= n
    if k < phi:
        vec = [0] * phi
        vec[k] = 1
        return tuple(vec)
    top_row = _redrows(n)[0]
    cur = [0] * phi
    for i, c in top_row:
        cur[i] = c
    for _ in range(phi + 1, k + 1):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i, c in top_row:
                cur[i] += top * c
    return tuple(cur)


def _fold(vec: list[int], n: int) -> list[int]:
    """Reduce a raw coefficient vector modulo Phi_n down to length phi(n).

    Callers never pass degree above 2*phi(n)-2 (product of two reduced
    vectors), which is exactly what the reduction rows cover.
    """
    phi = _phi(n)
    if len(vec) <= phi:
        return vec + [0] * (phi - len(vec))
    rows = _redrows(n)
    for k in range(len(vec) - 1, phi - 1, -1):
        c = vec[k]
        if c:
            for i, coef in rows[k - phi]:
                vec[i] += c * coef
    return vec[:phi]


@lru_cache(maxsize=None)
def _lift_cols(small: int, big: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis vectors of zeta_small^j inside Q(zeta_big), j < phi(small)."""
    assert big % small == 0
    step = big // small
    return tuple(_power_vec(big, j * step) for j in range(_phi(small)))


def _mat_inv_fraction(rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Inverse of an integer matrix as (integer matrix, positive denominator)."""
    k = len(rows)
    aug = [[Fraction(rows[i][j]) for j in range(k)] + [Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    den = 1
    for i in range(k):
        for j in range(k):
            den = den * aug[i][k + j].denominator // math.gcd(den, aug[i][k + j].denominator)
    out = [[int(aug[i][k + j] * den) for j in range(k)] for i in range(k)]
    return out, den


@lru_cache(maxsize=None)
def _descent(n: int, p: int) -> Optional[tuple]:
    """Solver for rewriting a conductor-n value in Q(zeta_(n/p)), if possible.

    Returns (m, rowsel, Binv, Bden, cols) where cols[j] is the conductor-n
    coordinate vector of zeta_m^j.  A value vector v lies in Q(zeta_m) iff
    x = Binv . v[rowsel] / Bden satisfies cols . x == v, in which case x is
    its conductor-m coordinate vector.
    """
    if n % p != 0:
        return None
    m = n // p
    cols = _lift_cols(m, n)
    pm, pn = _phi(m), _phi(n)
    # greedy pivot-row selection by Gaussian elimination over Q
    work = [[Fraction(cols[j][i]) for j in range(pm)] for i in range(pn)]
    rowsel: list[int] = []
    used: set[int] = set()
    for col in range(pm):
        piv = None
        for r in range(pn):
            if r not in used and work[r][col] != 0:
                piv = r
                break
        assert piv is not None
        rowsel.append(piv)
        used.add(piv)
        inv = 1 / work[piv][col]
        work[piv] = [x * inv for x in work[piv]]
        for r in range(pn):
            if r != piv and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[piv])]
    sel = tuple(rowsel)
    bmat = [[cols[j][i] for j in range(pm)] for i in sel]
    binv, bden = _mat_inv_fraction(bmat)
    return (m, sel, tuple(tuple(r) for r in binv), bden, cols)


# ---------------------------------------------------------------------------
# the value type


class CycloNum:
    """A canonical element of a cyclotomic field; immutable and hash-consed."""

    __slots__ = ("n", "num", "den", "_key")

    n: int
    num: tuple[int, ...]
    den: int

    def __new__(cls, *args):
        raise TypeError("use rational(), root_of_unity(), sqrt_rational() or parse_cyclo()")

    # -- construction internals ------------------------------------------

    @classmethod
    def _raw(cls, n: int, num: tuple[int, ...], den: int) -> "CycloNum":
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_key", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- properties --------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return self.n == 1 and self.num[0] == 0

    @property
    def is_one(self) -> bool:
        return self.n == 1 and self.num[0] == 1 and self.den == 1

    def to_rational(self) -> Optional[Fraction]:
        """The rational value, or None when the conductor exceeds 1."""
        if self.n == 1:
            return Fraction(self.num[0], self.den)
        return None

    @property
    def key(self) -> tuple:
        """Total-order sort key; canonical across runs.

        Memoized, so the keys of all the matrices in a sort share one tuple
        per distinct entry instead of holding a fresh tuple per entry.
        """
        k = self._key
        if k is None:
            k = (self.n, self.den, self.num)
            object.__setattr__(self, "_key", k)
        return k

    # -- arithmetic ---------------------------------------------------------

    __hash__ = object.__hash__  # hash-consed: identity is value equality

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, CycloNum):
            return False  # hash-consed: distinct objects are distinct values
        if isinstance(other, (int, Fraction)):
            return self.n == 1 and Fraction(self.num[0], self.den) == other
        return NotImplemented

    def __add__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = self, other
        if a.n == b.n:
            if a.den == b.den:
                vec = [x + y for x, y in zip(a.num, b.num)]
                return _canonical(a.n, vec, a.den)
            vec = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
            return _canonical(a.n, vec, a.den * b.den)
        n = _common_conductor(a.n, b.n)
        va = _lift_vec(a, n)
        vb = _lift_vec(b, n)
        vec = [x * b.den + y * a.den for x, y in zip(va, vb)]
        return _canonical(n, vec, a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CycloNum":
        return _canonical(self.n, [-c for c in self.num], self.den)

    def __sub__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.is_zero or b.is_zero:
            return ZERO
        if a.is_one:
            return b
        if b.is_one:
            return a
        if a.n == 1 and b.n == 1:
            return _canonical(1, [a.num[0] * b.num[0]], a.den * b.den)
        if a.n != b.n:
            n = _common_conductor(a.n, b.n)
            va, vb = _lift_vec(a, n), _lift_vec(b, n)
        else:
            n, va, vb = a.n, a.num, b.num
        if n == 1:
            return _canonical(1, [va[0] * vb[0]], a.den * b.den)
        conv = [0] * (len(va) + len(vb) - 1)
        for i, x in enumerate(va):
            if x:
                for j, y in enumerate(vb):
                    if y:
                        conv[i + j] += x * y
        vec = _fold(conv, n)
        return _canonical(n, vec, a.den * b.den)

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        """Multiplicative inverse; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero cyclotomic number")
        cached = _INV_CACHE.get(self)
        if cached is not None:
            return cached
        if self.n == 1:
            out = rational(Fraction(self.den, self.num[0]))
        else:
            out = _invert_general(self)
        _INV_CACHE[self] = out
        _INV_CACHE[out] = self
        return out

    def __truediv__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "CycloNum":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int) -> "CycloNum":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- formatting ---------------------------------------------------------

    def to_string(self) -> str:
        """Canonical text form in the catalog grammar (round-trips exactly)."""
        if self.n == 1:
            return _fmt_rational(Fraction(self.num[0], self.den))
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            q = Fraction(c, self.den)
            if k == 0:
                parts.append(_fmt_rational(q))
                continue
            power = f"E({self.n})" if k == 1 else f"E({self.n})^{k}"
            if q == 1:
                term = power
            elif q == -1:
                term = "-" + power
            else:
                term = f"{_fmt_rational(q)}*{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    __str__ = to_string

    def __repr__(self) -> str:
        return f"CycloNum({self.to_string()!r})"


def _fmt_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _coerce(x) -> "CycloNum":
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, Fraction)):
        return rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# canonicalization


# the one intern table: (n, num, den), canonical or raw -> the canonical value
_CANON_CACHE: dict[tuple, CycloNum] = {}
_INV_CACHE: dict[CycloNum, CycloNum] = {}


def _intern(n: int, num: tuple[int, ...], den: int) -> CycloNum:
    key = (n, num, den)
    obj = _CANON_CACHE.get(key)
    if obj is None:
        obj = CycloNum._raw(n, num, den)
        _CANON_CACHE[key] = obj
    return obj


def _canonical(n: int, vec: list[int], den: int) -> CycloNum:
    """Full canonicalization: conductor minimization plus content reduction."""
    assert den > 0
    key = (n, tuple(vec), den)
    obj = _CANON_CACHE.get(key)
    if obj is not None:
        return obj
    cn, cvec, cden = n, list(vec), den
    while cn > 1:
        if all(c == 0 for c in cvec[1:]):
            cn, cvec = 1, [cvec[0]]
            break
        for p in _prime_factors(cn):
            desc = _descent(cn, p)
            m, sel, binv, bden, cols = desc
            csel = [cvec[i] for i in sel]
            x = [sum(br[j] * csel[j] for j in range(len(csel))) for br in binv]
            ok = True
            pm = len(x)
            for i in range(len(cvec)):
                s = 0
                for j in range(pm):
                    xj = x[j]
                    if xj:
                        s += cols[j][i] * xj
                if s != bden * cvec[i]:
                    ok = False
                    break
            if ok:
                cn, cvec, cden = m, x, cden * bden
                break
        else:
            break
    g = cden
    for c in cvec:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                break
    if g > 1:
        cvec = [c // g for c in cvec]
        cden //= g
    if cn == 1 and cvec[0] == 0:
        cden = 1
    obj = _intern(cn, tuple(cvec), cden)
    _CANON_CACHE[key] = obj
    return obj


def _common_conductor(a: int, b: int) -> int:
    n = a * b // math.gcd(a, b)
    if n > _CONDUCTOR_LIMIT:
        raise ConductorLimitError(
            f"conductor {n} exceeds the limit {_CONDUCTOR_LIMIT}"
        )
    return n


def _lift_vec(x: CycloNum, n: int) -> list[int]:
    if x.n == n:
        return list(x.num)
    cols = _lift_cols(x.n, n)
    phi = _phi(n)
    out = [0] * phi
    for j, c in enumerate(x.num):
        if c:
            col = cols[j]
            for i in range(phi):
                if col[i]:
                    out[i] += c * col[i]
    return out


def _invert_general(x: CycloNum) -> CycloNum:
    """Extended Euclid of the value against Phi_n over Q."""
    n = x.n
    phi = [Fraction(c) for c in cyclotomic_poly(n)]
    a = [Fraction(c, x.den) for c in x.num]

    def deg(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i]:
                return i
        return -1

    # invariant: r0 = s0*a mod Phi, r1 = s1*a mod Phi
    r0, r1 = phi, list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        d1 = deg(r1)
        if d1 <= 0:
            break
        d0 = deg(r0)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        f = r0[d0] / r1[d1]
        shift = d0 - d1
        for i in range(d1 + 1):
            r0[i + shift] -= f * r1[i]
        if len(s0) < len(s1) + shift:
            s0 = s0 + [Fraction(0)] * (len(s1) + shift - len(s0))
        for i in range(len(s1)):
            s0[i + shift] -= f * s1[i]
        if deg(r0) < deg(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
    c = r1[0]
    if c == 0:
        raise ZeroDivisionError("value is not invertible modulo Phi_n")
    inv_poly = [s / c for s in s1]
    den = 1
    for q in inv_poly:
        den = den * q.denominator // math.gcd(den, q.denominator)
    vec = [int(q * den) for q in inv_poly]
    vec = _fold(vec, n)
    return _canonical(n, vec, den)


# ---------------------------------------------------------------------------
# public constructors


ZERO = _intern(1, (0,), 1)
ONE = _intern(1, (1,), 1)


def rational(x: RationalLike, den: int = 1) -> CycloNum:
    """Exact rational as a cyclotomic number."""
    q = Fraction(x, den) if den != 1 else Fraction(x)
    return _canonical(1, [q.numerator], q.denominator)


def root_of_unity(n: int, k: int = 1) -> CycloNum:
    """zeta_n^k in canonical form; the result has order n/gcd(n, k)."""
    if n < 1:
        raise ValueError("order of a root of unity must be a positive integer")
    k %= n
    g = math.gcd(n, k)
    n, k = n // g, k // g
    if n == 1:
        return ONE
    if n == 2:
        return rational(-1)
    if n > _CONDUCTOR_LIMIT:
        raise ConductorLimitError(f"conductor {n} exceeds the limit {_CONDUCTOR_LIMIT}")
    vec = list(_power_vec(n, k))
    return _canonical(n, vec, 1)


def _sqrt_prime(p: int) -> CycloNum:
    """Square root of a prime via Gauss sums; squared value is exactly p."""
    if p == 2:
        return root_of_unity(8, 1) - root_of_unity(8, 3)
    # quadratic Gauss sum: sum of legendre(k) * zeta_p^k
    phi = _phi(p)
    vec = [0] * phi
    for k in range(1, p):
        ls = pow(k, (p - 1) // 2, p)
        sign = 1 if ls == 1 else -1
        pv = _power_vec(p, k)
        for i in range(phi):
            if pv[i]:
                vec[i] += sign * pv[i]
    g = _canonical(p, vec, 1)
    if p % 4 == 1:
        return g
    # g*g == -p here; multiply by -i so the square is +p
    return g * root_of_unity(4, 3)


def sqrt_rational(r: RationalLike) -> CycloNum:
    """A cyclotomic number whose square is exactly r.

    Positive real root for r whose squarefree part is 1 mod 4 (and for
    squares); negative r gives i times the root of -r.
    """
    q = Fraction(r)
    if q < 0:
        return root_of_unity(4, 1) * sqrt_rational(-q)
    if q == 0:
        return ZERO
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den
    m = num * den
    square = 1
    free = 1
    d = 2
    mm = m
    while d * d <= mm:
        e = 0
        while mm % d == 0:
            mm //= d
            e += 1
        if e:
            square *= d ** (e // 2)
            if e % 2:
                free *= d
        d += 1 if d == 2 else 2
    if mm > 1:
        free *= mm
    out = rational(Fraction(square, den))
    for p in _prime_factors(free):
        out = out * _sqrt_prime(p)
    return out


# ---------------------------------------------------------------------------
# text grammar


_TOKEN_RE = re.compile(r"\s*(ER|E|\d+|[()+\-*/^])")


def _tokens(text: str) -> Iterator[str]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character in cyclotomic literal: {text[pos:]!r}")
            break
        yield m.group(1)
        pos = m.end()


class _Parser:
    def __init__(self, text: str):
        self.toks = list(_tokens(text))
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect: Optional[str] = None) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of cyclotomic literal")
        if expect is not None and tok != expect:
            raise ValueError(f"expected {expect!r}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> CycloNum:
        out = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens in cyclotomic literal: {self.toks[self.pos:]}")
        return out

    def expr(self) -> CycloNum:
        out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> CycloNum:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> CycloNum:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        out = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            k = int(self.take())
            out = out ** (-k if neg else k)
        return out if sign == 1 else -out

    def atom(self) -> CycloNum:
        tok = self.take()
        if tok == "(":
            out = self.expr()
            self.take(")")
            return out
        if tok == "E":
            self.take("(")
            n = int(self.take())
            self.take(")")
            return root_of_unity(n, 1)
        if tok == "ER":
            self.take("(")
            sign = 1
            while self.peek() in ("+", "-"):
                if self.take() == "-":
                    sign = -sign
            num = int(self.take())
            den = 1
            if self.peek() == "/":
                self.take()
                den = int(self.take())
            self.take(")")
            return sqrt_rational(Fraction(sign * num, den))
        if tok.isdigit():
            return rational(int(tok))
        raise ValueError(f"unexpected token {tok!r} in cyclotomic literal")


def parse_cyclo(text: str) -> CycloNum:
    """Parse the catalog grammar: E(n), ER(r), rationals, + - * / ^ and parens."""
    return _Parser(text).parse()
