import random

import numpy as np
import pytest

from cfft2047 import Field, CountingField, DEFAULT_GENPOLY
from cfft2047 import gf

from conftest import schoolbook_mul, random_vector


def test_constants(field):
    assert field.m == 11
    assert field.n == 2047
    assert field.alpha == 2
    assert field.genpoly == 0b100000000101


def test_add_examples(field):
    assert field.add(5, 5) == 0
    assert field.add(3, 5) == 6
    rng = random.Random(0)
    for _ in range(100):
        a = rng.randrange(2048)
        assert field.add(a, 0) == a


def test_mul_examples(field):
    assert field.mul(2, 2) == 4
    # x^10 * x = x^11 = x^2 + 1
    assert field.mul(1024, 2) == 5
    assert field.mul(1, 1) == 1
    assert field.mul(0, 123) == 0


def test_mul_against_schoolbook(field):
    rng = random.Random(1)
    for _ in range(1000):
        a = rng.randrange(2048)
        b = rng.randrange(2048)
        assert field.mul(a, b) == schoolbook_mul(a, b)


def test_field_axioms(field):
    rng = random.Random(2)
    for _ in range(10_000):
        a = rng.randrange(2048)
        b = rng.randrange(2048)
        c = rng.randrange(2048)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, b ^ c) == field.mul(a, b) ^ field.mul(a, c)


def test_alpha_order(field):
    # iterated multiplication is the independent oracle for pow(2, 2047)
    t = 1
    for _ in range(2047):
        t = field.mul(t, 2)
    assert t == 1
    assert field.pow(2, 2047) == 1
    for d in (1, 23, 89):
        assert field.pow(2, d) != 1


def test_pow(field):
    assert field.pow(2, 11) == 5
    assert field.pow(0, 0) == 1
    assert field.pow(0, 5) == 0
    rng = random.Random(3)
    for _ in range(200):
        a = rng.randrange(1, 2048)
        assert field.pow(a, 0) == 1
        e = rng.randrange(5000)
        assert field.pow(a, e) == field.pow(a, e % 2047)
    with pytest.raises(ValueError):
        field.pow(2, -1)


def test_inv(field):
    assert field.inv(1) == 1
    rng = random.Random(4)
    for _ in range(1000):
        a = rng.randrange(1, 2048)
        inv = field.inv(a)
        assert inv == field.pow(a, 2046)
        assert field.mul(a, inv) == 1
    for _ in range(50):
        k = rng.randrange(2047)
        assert field.inv(field.pow(2, k)) == field.pow(2, 2047 - k)
    with pytest.raises(ZeroDivisionError):
        field.inv(0)


def test_trace(field):
    assert field.trace(0) == 0
    assert field.trace(1) == 1  # eleven ones in characteristic 2
    for a in range(2048):
        t = field.trace(a)
        assert t in (0, 1)
        assert field.trace(field.mul(a, a)) == t
    rng = random.Random(5)
    for _ in range(1000):
        a = rng.randrange(2048)
        b = rng.randrange(2048)
        assert field.trace(a ^ b) == field.trace(a) ^ field.trace(b)


def test_frobenius(field):
    assert field.frobenius(2) == 4
    rng = random.Random(6)
    for _ in range(1000):
        a = rng.randrange(2048)
        b = rng.randrange(2048)
        assert field.frobenius(a) == field.pow(a, 2)
        assert field.frobenius(a ^ b) == field.frobenius(a) ^ field.frobenius(b)
        v = a
        for _ in range(11):
            v = field.frobenius(v)
        assert v == a


def test_mul_vec_matches_scalar(field):
    rng = random.Random(7)
    a = np.array(random_vector(rng, 500) + [0, 0, 1], dtype=np.int16)
    b = np.array(random_vector(rng, 500) + [0, 7, 0], dtype=np.int16)
    out = field.mul_vec(a, b)
    for x, y, z in zip(a, b, out):
        assert field.mul(int(x), int(y)) == int(z)


def test_bad_genpoly_rejected():
    with pytest.raises(ValueError):
        Field(0x11)  # degree 4
    with pytest.raises(ValueError):
        Field((1 << 12) | 1)  # degree 12
    with pytest.raises(ValueError):
        Field((1 << 11) | 2)  # constant term 0
    with pytest.raises(ValueError):
        Field((1 << 11) | (1 << 2) | (1 << 1) | 1)  # divisible by x + 1


TABLES = ("_exp", "_log", "_exp2", "_logv", "_expv")


def test_fields_share_read_only_tables():
    a, b, cf = Field(), Field(DEFAULT_GENPOLY), CountingField(Field())
    for name in TABLES:
        assert getattr(a, name) is getattr(b, name) is getattr(cf, name)
    for name in ("_exp", "_log", "_exp2"):
        with pytest.raises(TypeError):
            getattr(a, name)[3] = 0
    for name in ("_logv", "_expv"):
        with pytest.raises(ValueError):
            getattr(a, name)[3] = 0
    assert a.mul(3, 7) == b.mul(3, 7) == cf.mul(3, 7) == schoolbook_mul(3, 7)
    assert cf.mult_count == 1


def test_non_primitive_genpoly_raises_on_every_construction():
    bad = (1 << 11) | (1 << 2) | (1 << 1) | 1  # divisible by x + 1
    for _ in range(2):
        with pytest.raises(ValueError, match="not primitive"):
            Field(bad)
    assert bad not in gf._TABLES


def test_counting_field(field):
    cf = CountingField(field)
    assert cf.mult_count == 0
    cf.mul(3, 5)
    cf.mul(0, 5)
    assert cf.mult_count == 2
    assert cf.add(3, 5) == 6
    assert cf.pow(2, 11) == 5
    assert cf.trace(1) == 1
    assert cf.inv(1) == 1
    assert cf.frobenius(2) == 4


def test_counting_field_counts_every_mul_call(field):
    cf = CountingField(field)
    assert isinstance(cf, Field)
    cf.pow(2, 11)  # 11 = 0b1011: four squarings and three products into r
    assert cf.mult_count == 7
    cf.trace(3)  # one squaring per conjugate
    assert cf.mult_count == 7 + 11
    cf.frobenius(3)
    assert cf.mult_count == 7 + 11 + 1
    assert cf.mul_vec([3, 5], [7, 9]).tolist() == [field.mul(3, 7), field.mul(5, 9)]
    cf.inv(3)
    assert cf.mult_count == 7 + 11 + 1  # neither mul_vec nor inv goes through mul
