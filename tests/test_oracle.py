import random

import pytest

from cfft2047 import oracle

from conftest import random_vector, unit_vector


def test_naive_dft_small(field):
    assert oracle.naive_dft(field, [0] * 23) == [0] * 23
    assert oracle.naive_dft(field, unit_vector(23, 0)) == [1] * 23
    with pytest.raises(ValueError):
        oracle.naive_dft(field, [0] * 7)


def test_naive_dft_against_double_loop(field):
    # completely independent power-sum evaluation
    rng = random.Random(0)
    n = 23
    root = field.pow(field.alpha, field.n // n)
    for _ in range(20):
        f = random_vector(rng, n)
        want = []
        for j in range(n):
            acc = 0
            for i in range(n):
                acc ^= field.mul(f[i], field.pow(root, i * j))
            want.append(acc)
        assert oracle.naive_dft(field, f) == want


def test_dft_matrix_columns_are_unit_vector_dfts(field):
    m = oracle.dft_matrix(field, 23)
    assert m.shape == (23, 23)
    for i in range(23):
        assert m[:, i].tolist() == oracle.naive_dft(field, unit_vector(23, i))
    assert oracle.dft_matrix(field, 1).tolist() == [[1]]
    with pytest.raises(ValueError):
        oracle.dft_matrix(field, 7)


def test_naive_conv(field):
    rng = random.Random(1)
    y = random_vector(rng, 11)
    assert oracle.naive_cyclic_conv(field, unit_vector(11, 0), y) == y
    for _ in range(100):
        x = random_vector(rng, 11)
        y = random_vector(rng, 11)
        assert oracle.naive_cyclic_conv(field, x, y) == oracle.naive_cyclic_conv(
            field, y, x
        )
    with pytest.raises(ValueError):
        oracle.naive_cyclic_conv(field, [0] * 4, [0] * 5)


def test_naive_conv_int():
    y = [3, -1, 4, 1, -5, 9, 2, -6, 5, 3, 5]
    assert oracle.naive_cyclic_conv_int([1] + [0] * 10, y) == y
    assert oracle.naive_cyclic_conv_int([1] * 11, [1] * 11) == [11] * 11


def test_naive_toeplitz(field):
    rng = random.Random(2)
    u = random_vector(rng, 5)
    ident = [0, 0, 0, 0, 1, 0, 0, 0, 0]
    assert oracle.naive_toeplitz(field, ident, u) == u
    assert oracle.naive_toeplitz(field, [0] * 9, u) == [0] * 5
    with pytest.raises(ValueError):
        oracle.naive_toeplitz(field, [0] * 8, u)


def test_naive_linearized_eval(field):
    rng = random.Random(3)
    for _ in range(100):
        coeffs = random_vector(rng, 11)
        point = rng.randrange(2048)
        want = 0
        for j, c in enumerate(coeffs):
            want ^= field.mul(c, field.pow(point, 1 << j))
        assert oracle.naive_linearized_eval(field, coeffs, point) == want
