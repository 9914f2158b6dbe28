"""Brute-force references written from the definitions alone.

Nothing here touches the bilinear matrices or the plan machinery; these
functions are the ground truth the optimized paths are tested against.
They favour obviousness over speed.
"""

from __future__ import annotations

import numpy as np


def naive_dft(field, f):
    """F_j = f(alpha_n^j) by Horner's rule at every point: n^2 products.

    alpha_n = alpha^(2047/n) is a primitive n-th root of unity; n must
    divide 2047.
    """
    n = len(f)
    if n < 1 or field.n % n:
        raise ValueError(f"transform length {n} does not divide {field.n}")
    root = field.pow(field.alpha, field.n // n)
    points = np.array([field.pow(root, j) for j in range(n)], dtype=np.int16)
    acc = np.zeros(n, dtype=np.int16)
    for c in reversed(list(f)):
        acc = field.mul_vec(acc, points) ^ np.int16(c)
    return [int(v) for v in acc]


def dft_matrix(field, n):
    """The n x n uint16 matrix M with M[j, i] = alpha_n^(i * j): the DFT of
    f is M f. n must divide 2047."""
    if n < 1 or field.n % n:
        raise ValueError(f"transform length {n} does not divide {field.n}")
    root = field.pow(field.alpha, field.n // n)
    powers = np.array([field.pow(root, k) for k in range(n)], dtype=np.uint16)
    return powers[np.outer(range(n), range(n)) % n]


def naive_cyclic_conv(field, x, y):
    """z_i = sum_j x_j y_{(i-j) mod k} over the field."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    k = len(x)
    out = []
    for i in range(k):
        acc = 0
        for j in range(k):
            acc ^= field.mul(x[j], y[(i - j) % k])
        out.append(acc)
    return out


def naive_cyclic_conv_int(x, y):
    """Same convolution over the integers."""
    if len(x) != len(y):
        raise ValueError("length mismatch")
    k = len(x)
    return [sum(x[j] * y[(i - j) % k] for j in range(k)) for i in range(k)]


def naive_toeplitz(field, r, u):
    """k x k Toeplitz product with row i = (r[k-1-i], ..., r[2k-2-i])."""
    k = len(u)
    if len(r) != 2 * k - 1:
        raise ValueError("need 2k-1 coefficients for k inputs")
    out = []
    for i in range(k):
        acc = 0
        for j in range(k):
            acc ^= field.mul(r[k - 1 - i + j], u[j])
        out.append(acc)
    return out


def naive_linearized_eval(field, coeffs, point):
    """Evaluate sum_j coeffs[j] * point^(2^j) directly."""
    acc = 0
    v = point
    for c in coeffs:
        acc ^= field.mul(c, v)
        v = field.mul(v, v)
    return acc
