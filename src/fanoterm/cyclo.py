"""Exact arithmetic in cyclotomic fields Q(zeta_n).

Values are stored in canonical form: integer coordinates over the power
basis {zeta_n^0, ..., zeta_n^(phi(n)-1)} reduced modulo the n-th cyclotomic
polynomial, a positive common denominator, and a minimal conductor.  The
conductor is read off the coordinates: ``_descend`` moves a value from
Q(zeta_n) down to Q(zeta_(n/p)) by direct tests on its coordinates, so no
linear system is solved; for p prime to n/p a value outside the subfield
is rejected at the first of a few precomputed sparse linear functionals
that does not vanish on it.
Canonical values are hash-consed, so equal values are the same object:
a value compares and hashes by identity, and every value stays in the
intern table for the life of the process, as does every term tuple that
``dot`` has memoized and every packing of the kernel.

Every product goes through one kernel, Kronecker substitution (Harvey,
J. Symbolic Comput. 44, 2009): a coordinate vector is packed as one big
integer with a fixed-width digit per coordinate, so a polynomial product
is one machine-level multiply.  A value's lift to conductor n is packed
once, at 64-bit digits, and memoized beside the value.  The digit width
of a product comes from a proven bound on its raw coefficients (the
operands' coordinate sizes, the scale and the number of terms), so no
digit carries into its neighbour; where 64 bits are too few, the terms
are packed wider.  The one Galois action, ``galois``, gives every
conjugate, and the inverse is the product of the other conjugates over
the rational norm, multiplied through the same kernel.  Values of
different conductors are combined only in ``dot``, which lifts them to
their common conductor and is the one place that enforces the conductor
limit on sums and products; ``+`` handles zero and equal conductors
itself and ``*`` zero, one and two rationals, and both send every other
case there.
"""

from __future__ import annotations

import math
import numbers
import re
import struct
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "CycloNum",
    "ConductorLimitError",
    "ZERO",
    "ONE",
    "dot",
    "galois",
    "rational",
    "root_of_unity",
    "sqrt_rational",
    "parse_cyclo",
]

RationalLike = Union[int, numbers.Rational]


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
def _powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Dense coordinates of zeta_n^k over the power basis, k = 0, ..., n-1."""
    poly = cyclotomic_poly(n)
    # t^phi = -(poly[0] + poly[1] t + ... + poly[phi-1] t^(phi-1))
    top_row = [(i, -c) for i, c in enumerate(poly[:-1]) if c]
    cur = (len(poly) - 1) * [0]
    cur[0] = 1
    out = []
    for _ in range(n):
        out.append(tuple(cur))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i, c in top_row:
                cur[i] += top * c
    return tuple(out)


def _power_vec(n: int, k: int) -> tuple[int, ...]:
    """Dense coordinates of zeta_n^k over the power basis (k arbitrary)."""
    return _powers(n)[k % n]


@lru_cache(maxsize=None)
def _redrows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse reduction rows: zeta_n^k over the power basis for phi <= k <= 2*phi-2."""
    phi = _phi(n)
    return tuple(tuple((i, c) for i, c in enumerate(_power_vec(n, k)) if c)
                 for k in range(phi, 2 * phi - 1))


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


# ---------------------------------------------------------------------------
# the product kernel (Kronecker substitution)
#
# A coordinate vector packs as the integer sum of c_i 2^(w i): its polynomial
# at t = 2^w.  Packing is a ring map, so the product of two packings is the
# packing of the raw product, and one machine-level multiply replaces the
# convolution.  The raw coefficients are read back as balanced w-bit digits,
# which is exact when every one of them lies in [-2^(w-1), 2^(w-1)).


_WIDTH = 64  # the digit width of the memoized packings


def _width(bits: int) -> int:
    """The least multiple of _WIDTH that holds, as balanced digits, every raw
    coefficient of absolute value below 2^bits."""
    return -(-(bits + 1) // _WIDTH) * _WIDTH


def _pack(vec: Sequence[int], w: int) -> int:
    acc = 0
    for c in reversed(vec):
        acc = (acc << w) + c
    return acc


@lru_cache(maxsize=None)
def _digit_layout(n: int, w: int) -> tuple[int, int, Optional[struct.Struct]]:
    """For the 2 phi(n) - 1 raw coefficients of a product at width w: the
    byte length, the offset adding 2^(w-1) to each digit, and the unpacker
    of 64-bit digits (None for wider ones)."""
    count = 2 * _phi(n) - 1
    offset = sum(1 << (w * k + w - 1) for k in range(count))
    return count * w // 8, offset, struct.Struct(f"<{count}Q") if w == 64 else None


def _unpack(acc: int, n: int, w: int) -> list[int]:
    """The raw coefficients packed in acc at width w, folded modulo Phi_n.
    The caller proves that each one lies in [-2^(w-1), 2^(w-1)): adding
    2^(w-1) to every digit then makes them all nonnegative, so the plain
    base-2^w digits of the sum are read off and the offset subtracted."""
    size, offset, unpacker = _digit_layout(n, w)
    raw = (acc + offset).to_bytes(size, "little")
    half = 1 << (w - 1)
    if unpacker is not None:
        return _fold([u - half for u in unpacker.unpack(raw)], n)
    step = w // 8
    return _fold([int.from_bytes(raw[i:i + step], "little") - half
                  for i in range(0, size, step)], n)


def _bit_bound(vec: Sequence[int]) -> int:
    """The bit length of the largest coordinate of vec in absolute value."""
    return max(map(abs, vec)).bit_length()


def _vec_product(va: Sequence[int], vb: Sequence[int], n: int) -> list[int]:
    """The product of two coordinate vectors of Q(zeta_n), through the
    kernel at the width their sizes prove safe."""
    w = _width(_bit_bound(va) + _bit_bound(vb) + _phi(n).bit_length())
    return _unpack(_pack(va, w) * _pack(vb, w), n, w)


@lru_cache(maxsize=None)
def _image_cols(m: int, n: int, step: int) -> tuple[tuple[int, ...], ...]:
    """Power-basis vectors in Q(zeta_n) of zeta_n^(j*step), j < phi(m): the
    images of the basis of Q(zeta_m) under zeta_m -> zeta_n^step."""
    return tuple(_power_vec(n, j * step) for j in range(_phi(m)))


def _descend(n: int, vec: list[int]) -> Optional[tuple[int, list[int]]]:
    """The first subfield Q(zeta_m), m = n/p for a prime p | n, that holds
    the value with conductor-n coordinates vec, as (m, its coordinates
    there), zeta_m being zeta_n^p; None when no such subfield holds it.

    For p | m, Phi_n(t) = Phi_m(t^p): the value lies in Q(zeta_m) exactly
    when its coordinates off the multiples of p vanish.  For p prime to m,
    zeta_n = zeta_m^a zeta_p^b (a = p^-1 mod m, b = m^-1 mod p) splits the
    value as the sum of A_r zeta_p^r, A_r in Q(zeta_m); as 1, zeta_p, ...,
    zeta_p^(p-2) is a basis over Q(zeta_m), it lies there exactly when
    A_1 = ... = A_(p-1), and then it is A_0 - A_(p-1).  That condition is
    first tested functional by functional (``_split_tests``), so a value
    outside the subfield is rejected at its first nonzero one, and only a
    value inside it is split.
    """
    for p in _prime_factors(n):
        m = n // p
        if m % p == 0:
            if not any(c for i, c in enumerate(vec) if i % p):
                return m, vec[::p]
            continue
        if any(sum([vec[i] * c for i, c in test]) for test in _split_tests(n, p)):
            continue
        a, b = pow(p, -1, m), pow(m, -1, p)
        powers = _powers(m)
        parts = [[0] * _phi(m) for _ in range(p)]  # A_0, ..., A_(p-1)
        for i, c in enumerate(vec):
            if c:
                part = parts[b * i % p]
                for j, x in enumerate(powers[a * i % m]):
                    if x:
                        part[j] += c * x
        return m, [x - y for x, y in zip(parts[0], parts[-1])]
    return None


@lru_cache(maxsize=None)
def _split_tests(n: int, p: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For a prime p prime to m = n/p: the linear functionals on conductor-n
    coordinates whose common zero set is A_1 = ... = A_(p-1) in the split
    of ``_descend``, coordinate j of A_r - A_(p-1) for r = 1, ..., p-2, each
    as its nonzero (coordinate index, coefficient) pairs.  Coordinate i
    enters only A_(b i mod p), so the two parts of a functional never share
    an index."""
    m = n // p
    a, b = pow(p, -1, m), pow(m, -1, p)
    powers = _powers(m)
    # rows[r][j]: the (i, coefficient) pairs of coordinate j of A_r
    rows = [[[] for _ in range(_phi(m))] for _ in range(p)]
    for i in range(_phi(n)):
        for j, x in enumerate(powers[a * i % m]):
            if x:
                rows[b * i % p][j].append((i, x))
    return tuple(tuple(sorted(rows[r][j] + [(i, -x) for i, x in rows[-1][j]]))
                 for r in range(1, p - 1) for j in range(_phi(m))
                 if rows[r][j] or rows[-1][j])


# ---------------------------------------------------------------------------
# the value type


class CycloNum:
    """A canonical element of a cyclotomic field; immutable and hash-consed."""

    __slots__ = ("n", "num", "den")

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
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- properties --------------------------------------------------------

    @property
    def conductor(self) -> int:
        return self.n

    @property
    def is_zero(self) -> bool:
        return self.n == 1 and self.num[0] == 0

    @property
    def is_one(self) -> bool:
        return self.n == 1 and self.num[0] == 1 and self.den == 1

    def to_rational(self):
        """The rational value as a Fraction, or None when the conductor exceeds 1."""
        if self.n == 1:
            from fractions import Fraction

            return Fraction(self.num[0], self.den)
        return None

    # -- arithmetic ---------------------------------------------------------

    __hash__ = object.__hash__  # hash-consed: identity is value equality

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        if isinstance(other, CycloNum):
            return False  # hash-consed: distinct objects are distinct values
        if isinstance(other, (int, numbers.Rational)):
            return self.n == 1 and self.num[0] * other.denominator == other.numerator * self.den
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
        if a.n != b.n:
            return _dot(((a, ONE), (b, ONE)))
        if a.den == b.den:
            vec = [x + y for x, y in zip(a.num, b.num)]
            return _canonical(a.n, vec, a.den)
        vec = [x * b.den + y * a.den for x, y in zip(a.num, b.num)]
        return _canonical(a.n, vec, a.den * b.den)

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
        if a.n == 1 == b.n:
            return _canonical(1, [a.num[0] * b.num[0]], a.den * b.den)
        return _dot(((a, b),))

    __rmul__ = __mul__

    def inv(self) -> "CycloNum":
        """Multiplicative inverse: the product of the other Galois conjugates
        divided by the rational norm; raises ZeroDivisionError on zero."""
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero cyclotomic number")
        # on coordinate vectors v = den * self: 1/self = den * rest / N(v)
        n = self.n
        rest = _power_vec(n, 0)
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = _vec_product(rest, _map_vec(self, n, k), n)
        norm = _vec_product(self.num, rest, n)[0]
        sign = 1 if norm > 0 else -1
        return _canonical(n, [sign * self.den * c for c in rest], abs(norm))

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
            return _fmt_rational(self.num[0], self.den)
        parts = []
        for k, c in enumerate(self.num):
            if not c:
                continue
            q = _reduced(c, self.den)
            if k == 0:
                parts.append(_fmt_rational(*q))
                continue
            power = f"E({self.n})" if k == 1 else f"E({self.n})^{k}"
            if q == (1, 1):
                term = power
            elif q == (-1, 1):
                term = "-" + power
            else:
                term = f"{_fmt_rational(*q)}*{power}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += term if term.startswith("-") else "+" + term
        return out

    __str__ = to_string

    def __repr__(self) -> str:
        return f"CycloNum({self.to_string()!r})"


def _fmt_rational(num: int, den: int) -> str:
    """num/den, in lowest terms with den > 0, as Fraction prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms with a positive denominator."""
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in {num}/0")
    g = math.gcd(num, den) * (-1 if den < 0 else 1)
    return num // g, den // g


def _coerce(x) -> "CycloNum":
    if isinstance(x, CycloNum):
        return x
    if isinstance(x, (int, numbers.Rational)):
        return rational(x)
    return NotImplemented


# ---------------------------------------------------------------------------
# canonicalization


# the one intern table: (n, num, den), canonical or raw -> the canonical value
_CANON_CACHE: dict[tuple, CycloNum] = {}


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
        if not any(cvec[1:]):
            cn, cvec = 1, [cvec[0]]
            break
        down = _descend(cn, cvec)
        if down is None:
            break
        cn, cvec = down
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


def _map_vec(x: CycloNum, n: int, step: int) -> list[int]:
    """Coordinates in Q(zeta_n) of the image of x under zeta_(x.n) -> zeta_n^step."""
    out = [0] * _phi(n)
    for c, col in zip(x.num, _image_cols(x.n, n, step)):
        if c:
            for i, v in enumerate(col):
                if v:
                    out[i] += c * v
    return out


def _lift_vec(x: CycloNum, n: int) -> Sequence[int]:
    return x.num if x.n == n else _map_vec(x, n, n // x.n)


# the memo of ``dot``: the tuple of its (a, b) terms -> their sum of products
_DOT_CACHE: dict[tuple, CycloNum] = {}

# the packings of the kernel: conductor n -> {value: (its lift to Q(zeta_n)
# packed at width _WIDTH, the ``_bit_bound`` of that lift)}
_PACKS: dict[int, dict[CycloNum, tuple[int, int]]] = {}


def dot(pairs: Sequence[tuple[CycloNum, CycloNum]]) -> CycloNum:
    """The sum of a * b over the pairs (a, b), canonicalized once: the raw
    products of the terms, lifted to their common conductor and scaled to
    one common denominator, are summed, unpacked once, folded once and
    canonicalized once.  When that conductor passes the limit, each product
    and partial sum is canonicalized instead, so a product in a smaller
    field descends to it first; ConductorLimitError is raised where that
    fails too, and at once when no product can descend (one pair, or every
    b is ONE).

    The result is memoized on the tuple of the terms, in their order and
    with their repeats; values are hash-consed, so the key holds the values
    themselves.  Each value is lifted and packed once per conductor."""
    key = tuple(pairs)
    out = _DOT_CACHE.get(key)
    if out is None:
        out = _DOT_CACHE[key] = _dot(key)
    return out


def _packed(x: CycloNum, n: int, memo: dict) -> tuple[int, int]:
    vec = _lift_vec(x, n)
    out = memo[x] = (_pack(vec, _WIDTH), _bit_bound(vec))
    return out


def _dot(pairs: tuple[tuple[CycloNum, CycloNum], ...]) -> CycloNum:
    if not pairs:
        return ZERO
    n = math.lcm(*{x.n for term in pairs for x in term})
    if n > _CONDUCTOR_LIMIT:
        if len(pairs) == 1 or all(b is ONE for _, b in pairs):
            raise ConductorLimitError(f"conductor {n} exceeds the limit {_CONDUCTOR_LIMIT}")
        return sum((a * b for a, b in pairs), ZERO)
    dens = [a.den * b.den for a, b in pairs]
    den = math.lcm(*dens)
    memo = _PACKS.get(n)
    if memo is None:
        memo = _PACKS[n] = {}
    acc = bits = 0
    for (a, b), dab in zip(pairs, dens):
        pa, ba = memo.get(a) or _packed(a, n, memo)
        pb, bb = memo.get(b) or _packed(b, n, memo)
        scale = den // dab
        acc += pa * pb * scale
        term_bits = ba + bb + scale.bit_length()
        if term_bits > bits:
            bits = term_bits
    # a raw coefficient sums at most phi(n) products per term, each below
    # 2^bits in absolute value
    w = _width(bits + (len(pairs) * _phi(n)).bit_length())
    if w != _WIDTH:
        acc = sum(_pack(_lift_vec(a, n), w) * _pack(_lift_vec(b, n), w) * (den // dab)
                  for (a, b), dab in zip(pairs, dens))
    return _canonical(n, _unpack(acc, n, w), den)


def galois(x: CycloNum, k: int) -> CycloNum:
    """The Galois conjugate of x under zeta_n -> zeta_n^k, n the conductor of
    x (the restriction of that automorphism of any larger cyclotomic field);
    k must be prime to n."""
    if math.gcd(k, x.n) != 1:
        raise ValueError(f"{k} is not prime to the conductor {x.n}")
    return _canonical(x.n, _map_vec(x, x.n, k % x.n), x.den)


# ---------------------------------------------------------------------------
# public constructors


ZERO = _intern(1, (0,), 1)
ONE = _intern(1, (1,), 1)


def rational(x: RationalLike, den: int = 1) -> CycloNum:
    """Exact rational x/den as a cyclotomic number; x is an int or any
    ``numbers.Rational``, such as a Fraction."""
    num, den = _reduced(x.numerator, x.denominator * den)
    return _canonical(1, [num], den)


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


def _sqrt_prime_star(p: int) -> CycloNum:
    """sqrt(2), or for an odd prime p the quadratic Gauss sum, the sum of
    legendre(k) * zeta_p^k, whose square is p* = (-1)^((p-1)/2) p: sqrt(p)
    for p = 1 mod 4 and i sqrt(p) for p = 3 mod 4, of conductor p."""
    if p == 2:
        return root_of_unity(8, 1) - root_of_unity(8, 3)
    vec = [0] * _phi(p)
    for k in range(1, p):
        sign = 1 if pow(k, (p - 1) // 2, p) == 1 else -1
        for i, c in enumerate(_power_vec(p, k)):
            if c:
                vec[i] += sign * c
    return _canonical(p, vec, 1)


def sqrt_rational(r: RationalLike) -> CycloNum:
    """A cyclotomic number whose square is exactly r: the positive real
    root for r > 0, and i times the positive root of -r for r < 0.

    With m the signed squarefree part of r, the root is a rational times
    the roots ``_sqrt_prime_star`` of the primes of m, times one power of
    i.  It lies in Q(sqrt(m)), whose conductor is its discriminant, |m| for
    m = 1 mod 4 and 4|m| otherwise, and no partial product has a larger
    one.  ConductorLimitError is raised, before any table is built, when
    that discriminant passes the limit.
    """
    return _sqrt_ratio(r.numerator, r.denominator)


def _sqrt_ratio(num: int, den: int) -> CycloNum:
    """``sqrt_rational`` of num/den."""
    num, den = _reduced(num, den)
    if num == 0:
        return ZERO
    # sqrt(num/den) = sqrt(num*den)/den; trial division by 2, ..., the limit
    # leaves a cofactor whose primes all pass the limit, so it must be a square
    m = abs(num) * den
    square, free = 1, []
    for p in range(2, _CONDUCTOR_LIMIT + 1):
        if m == 1:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        square *= p ** (e // 2)
        if e % 2:
            free.append(p)
    root = math.isqrt(m)
    if root * root != m:
        raise ConductorLimitError(f"square root has a conductor above the limit {_CONDUCTOR_LIMIT}")
    free_part = math.prod(free) * (-1 if num < 0 else 1)
    conductor = abs(free_part) * (1 if free_part % 4 == 1 else 4)
    if conductor > _CONDUCTOR_LIMIT:
        raise ConductorLimitError(f"conductor {conductor} exceeds the limit {_CONDUCTOR_LIMIT}")
    out = rational(square * root, den)
    for p in free:
        out = out * _sqrt_prime_star(p)
    # the product is i^t sqrt(|m|), t the number of primes 3 mod 4, and
    # the root of r is i^s sqrt(|m|), s = 1 for r < 0
    return out * root_of_unity(4, (num < 0) - sum(p % 4 == 3 for p in free))


# ---------------------------------------------------------------------------
# text grammar


_TOKEN_RE = re.compile(r"\s*(ER|E|\d+|[()+\-*/^])")

# the deepest parenthesis nesting the text parsers accept: each level costs a
# few stack frames, and this keeps them well inside Python's recursion limit
MAX_NESTING = 100

# the largest exponent after ^ that the text parser accepts: a rational's
# power is exact, so its cost grows with the exponent (the catalog's largest
# exponent is 22).  Exponents multiply through parentheses, so a power is
# also refused when its size bound, the exponent times the bit length of
# the base's coordinate sum or denominator, passes MAX_EXPONENT squared: a
# MAX_EXPONENT-bit base to the MAX_EXPONENT-th power.  A product or quotient
# is refused by the same bound on the sum of its operands' sizes, so a chain
# of allowed powers cannot grow with the text.
MAX_EXPONENT = 1000


def _bits(x: CycloNum) -> int:
    """The size bound of the text parser: the bit length of x's coordinate
    sum or of its denominator, whichever is larger."""
    return max(sum(map(abs, x.num)).bit_length(), x.den.bit_length())


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
    """Recursive descent over the tokens of one literal.  A sum's terms go
    to one ``dot``, so the sum is canonicalized once, and a binary minus
    is read as the sign of the next term's first factor; E(n)^k with
    k >= 0 is ``root_of_unity(n, k)``, with no product."""

    def __init__(self, text: str):
        self.toks = list(_tokens(text))
        self.pos = 0
        self.depth = 0

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
        terms = [(self.term(), ONE)]
        while self.peek() in ("+", "-"):
            if self.peek() == "+":
                self.take()
            terms.append((self.term(), ONE))
        return terms[0][0] if len(terms) == 1 else dot(terms)

    def term(self) -> CycloNum:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            if _bits(out) + _bits(rhs) > MAX_EXPONENT ** 2:
                raise ValueError(f"product in cyclotomic literal exceeds {MAX_EXPONENT ** 2} bits")
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> CycloNum:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        start = self.pos
        out = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            k = int(self.take())
            if k > MAX_EXPONENT:
                raise ValueError(f"exponent in cyclotomic literal exceeds {MAX_EXPONENT}")
            if k * _bits(out) > MAX_EXPONENT ** 2:
                raise ValueError(f"power in cyclotomic literal exceeds {MAX_EXPONENT ** 2} bits")
            if neg or self.toks[start] != "E":
                out = out ** (-k if neg else k)
            else:
                out = root_of_unity(int(self.toks[start + 2]), k)
        return out if sign == 1 else -out

    def atom(self) -> CycloNum:
        tok = self.take()
        if tok == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ValueError(f"cyclotomic literal nested deeper than {MAX_NESTING} parentheses")
            out = self.expr()
            self.take(")")
            self.depth -= 1
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
            return _sqrt_ratio(sign * num, den)
        if tok.isdigit():
            return rational(int(tok))
        raise ValueError(f"unexpected token {tok!r} in cyclotomic literal")


def parse_cyclo(text: str) -> CycloNum:
    """Parse the catalog grammar: E(n), ER(r), rationals, + - * / ^ and parens."""
    return _Parser(text).parse()
