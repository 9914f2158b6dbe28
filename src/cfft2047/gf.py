"""Arithmetic in GF(2^11).

Field elements are plain ints in [0, 2047]: bit i holds the coefficient of
x^i, so the polynomial basis is little-endian and 0/1 are the additive and
multiplicative identities. Elements are never wrapped in objects; instead a
:class:`Field` instance holds the exp/log tables and is passed alongside the
values to every routine that multiplies. Addition is just ``^``. The tables
are built once per generator polynomial and shared, read-only, by every
Field over it.

The default modulus is x^11 + x^2 + 1. Construction verifies that x
generates the full multiplicative group of order 2047, which simultaneously
certifies irreducibility and primitivity (a reducible degree-11 modulus
caps the order of x strictly below 2047 by CRT on its factors).
"""

from __future__ import annotations

import numpy as np

DEFAULT_GENPOLY = (1 << 11) | (1 << 2) | 1  # x^11 + x^2 + 1

# genpoly -> (exp, log, exp2, logv, expv), filled by the first Field built
# over each generator polynomial that passes the primitivity check
_TABLES: dict = {}


class Field:
    """GF(2^11) defined by a degree-11 generator polynomial over GF(2)."""

    def __init__(self, genpoly: int = DEFAULT_GENPOLY):
        if genpoly.bit_length() - 1 != 11 or not genpoly & 1:
            raise ValueError(
                "generator polynomial must have degree 11 and constant term 1"
            )
        self.m = 11
        self.genpoly = genpoly
        self.n = (1 << self.m) - 1  # multiplicative group order, 2047
        self.alpha = 2  # the class of x
        tables = _TABLES.get(genpoly)
        if tables is None:
            tables = _TABLES[genpoly] = self._build_tables()
        self._exp, self._log, self._exp2, self._logv, self._expv = tables

    def _build_tables(self):
        """The exp/log tables, immutable so that every Field over the same
        generator polynomial can share them. Raises, storing nothing, when
        x is not primitive."""
        exp = [0] * self.n
        v = 1
        for i in range(self.n):
            exp[i] = v
            v = self._mulx(v)
        if v != 1 or len(set(exp)) != self.n:
            raise ValueError("x is not primitive for this generator polynomial")
        log = [0] * (self.n + 1)
        for i, e in enumerate(exp):
            log[e] = i
        # Doubled table: exp2[la + lb] avoids a reduction mod n in mul().
        exp2 = exp + exp

        # Vectorised tables. log(0) is a sentinel large enough that any sum
        # involving it lands in the zero-filled tail of the exp table, so a
        # single gather handles zeros with no masking.
        sentinel = 2 * self.n
        logv = np.empty(self.n + 1, dtype=np.int32)
        logv[0] = sentinel
        logv[1:] = log[1:]
        expv = np.zeros(4 * self.n + 1, dtype=np.int16)
        expv[: 2 * self.n] = exp2
        logv.flags.writeable = expv.flags.writeable = False
        return tuple(exp), tuple(log), tuple(exp2), logv, expv

    def _mulx(self, a: int) -> int:
        a <<= 1
        if a >> self.m:
            a ^= self.genpoly
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp2[self._log[a] + self._log[b]]

    def pow(self, a: int, e: int) -> int:
        """Repeated-squaring exponentiation; e is reduced mod n for a != 0."""
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        if e == 0:
            return 1
        if a == 0:
            return 0
        e %= self.n
        if e == 0:
            return 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._exp[(self.n - self._log[a]) % self.n]

    def frobenius(self, a: int) -> int:
        """The squaring map a -> a^2; eleven applications are the identity."""
        return self.mul(a, a)

    def trace(self, a: int) -> int:
        """Tr(a) = a + a^2 + a^4 + ... + a^(2^10), always 0 or 1."""
        acc = 0
        v = a
        for _ in range(self.m):
            acc ^= v
            v = self.mul(v, v)
        return acc

    def mul_vec(self, a, b):
        """Elementwise product of two arrays of field elements (numpy)."""
        a = np.asarray(a)
        b = np.asarray(b)
        return self._expv[self._logv[a] + self._logv[b]]

    def alpha_pow_vec(self, e):
        """alpha^e elementwise for an array of exponents in [0, 2n) (numpy)."""
        return self._expv[np.asarray(e)]

    def __repr__(self) -> str:
        return f"Field(genpoly={self.genpoly:#x})"


class CountingField(Field):
    """The same field, counting every call of mul() in mult_count: also
    those inside pow(), trace() and frobenius(), but not mul_vec(). The
    bilinear evaluators multiply two runtime values only through mul(), so
    there the count is exactly the pointwise-multiplication count."""

    def __init__(self, field: Field):
        vars(self).update(vars(field))  # shares the field's tables
        self.mult_count = 0

    def mul(self, a, b):
        self.mult_count += 1
        return super().mul(a, b)
