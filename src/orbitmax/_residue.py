"""Internal: exact integer sums in int64 residues, rebuilt by the Chinese
remainder theorem (von zur Gathen and Gerhard, *Modern Computer Algebra*,
ch. 5).

A pinned d >= 2 step reads out a few non-negative integers, each at
most a bound known before any work; ``Moduli.for_bound`` picks its
moduli by the rule beside ``exact._INT64_MAX``.  Residues carry the
moduli on a leading axis, so each array operation serves every modulus
at once.  Below 2**31 a product of two residues stays below 2**62 and
a sum of up to 2**32 residues fits in int64, so a product is reduced at
once and a sum once it is taken.  ``values`` rebuilds the read-out
values from their residues in Python ints.

Only the d >= 2 pinned paths import this module, so sphere and d = 1
processes do not compile it.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Sequence

import numpy as np

from .exact import _INT64_MAX

# the largest primes below 2**31, descending, extended by ``_prime``
_PRIMES = [2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
           2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
           2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
           2147483249]


def _prime(i: int) -> int:
    """The i-th largest prime below 2**31, by trial division past the
    listed ones."""
    while len(_PRIMES) <= i:
        p = _PRIMES[-1] - 2
        while any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
            p -= 2
        _PRIMES.append(p)
    return _PRIMES[i]


def f_bound(flat_a: Sequence[int], flat_b: Sequence[int]) -> int:
    """A bound on |<B, gA>| over every g: each entry of one side meets a
    distinct entry of the other, so min(sum|a| max|b|, sum|b| max|a|).
    Zero entries add nothing, so each side may pass its nonzero ones."""
    abs_a, abs_b = [abs(v) for v in flat_a], [abs(v) for v in flat_b]
    return min(sum(abs_a) * max(abs_b, default=0),
               sum(abs_b) * max(abs_a, default=0))


class Moduli:
    """Residue arithmetic exact for every value read out in [0, bound].

    Arrays of residues have the moduli on their leading axis (``size``
    rows); ``primes`` is empty for the one modulus 2**64."""

    def __init__(self, count: int) -> None:
        self.primes = tuple(_prime(i) for i in range(count))
        self.size = max(count, 1)
        self.mods = np.array(self.primes, dtype=np.int64).reshape(-1, 1)
        modulus = math.prod(self.primes)
        # x = sum of r_i * c_i modulo the product, c_i = 1 mod p_i, 0 mod the others
        self._crt = [modulus // p * pow(modulus // p, -1, p) for p in self.primes]
        self._modulus = modulus

    @staticmethod
    def for_bound(bound: int) -> "Moduli":
        count, product = 0, 1
        if bound > _INT64_MAX:
            while product <= bound:
                product *= _prime(count)
                count += 1
        return _moduli(count)

    def of(self, values: Sequence[int]) -> np.ndarray:
        """Residues of Python ints, shape (size, len(values))."""
        if not self.primes:
            return np.array([[(v + 2 ** 63) % 2 ** 64 - 2 ** 63 for v in values]],
                            dtype=np.int64).reshape(1, -1)
        return np.array([[v % p for v in values] for p in self.primes],
                        dtype=np.int64).reshape(self.size, -1)

    def exact(self, arr: np.ndarray) -> np.ndarray:
        """Residues of an exact 1-d int64 array, shape (size, len(arr))."""
        return arr[None] if not self.primes else arr[None] % self.mods

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        """Sums of residues (shape (size, count)) reduced again, in place."""
        return arr if not self.primes else np.remainder(arr, self.mods, out=arr)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a * b)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.reduce(a - b)

    def power(self, a: np.ndarray, m: int) -> np.ndarray:
        """a**m for m >= 1, by squaring."""
        out = a
        for bit in bin(m)[3:]:
            out = self.mul(out, out)
            if bit == "1":
                out = self.mul(out, a)
        return out

    def values(self, res: np.ndarray) -> list[int]:
        """The integers in [0, bound] with residues ``res`` (size, count)."""
        if not self.primes:
            return res[0].tolist()
        return [sum(map(operator.mul, col, self._crt)) % self._modulus
                for col in zip(*res.tolist())]


@functools.lru_cache(maxsize=None)
def _moduli(count: int) -> Moduli:
    return Moduli(count)


_LIMB = 22  # bits per limb: nnz < 2**19 products of two limbs fit in int64


def _limbs(values: Sequence[int]) -> np.ndarray:
    """Signed int64 limbs of integers in base 2**_LIMB, shape (L, len):
    values = sum over k of limb[k] * 2**(_LIMB k), the lower limbs in
    0..2**_LIMB - 1 and the last signed, of magnitude at most 2**_LIMB."""
    count = max(-(-max(map(abs, values), default=0).bit_length() // _LIMB), 1)
    rows = []
    for _ in range(count - 1):
        rows.append([v & (1 << _LIMB) - 1 for v in values])
        values = [v >> _LIMB for v in values]
    return np.array(rows + [values], dtype=np.int64).reshape(count, -1)


def gathered_sums(a: Sequence[int], flat_b: Sequence[int], moduli: Moduli):
    """(sums, gathers): ``sums(index)`` is the residues, shape (size,
    rows), of B[index] @ a for an index array of shape (rows, len(a))
    into ``flat_b``, exact for entries of any size, and each call gathers
    ``gathers`` arrays the shape of the index, one per limb of B.

    The sums are taken from the exact int64 products B_l[index] @ a_k of
    the two sides' limbs (``_limbs``), each reduced and shifted by
    2**(_LIMB (k + l)) in residues, so the gathers do not grow with the
    moduli."""
    vals, flat = _limbs(a), _limbs(flat_b)
    shifts = moduli.of([1 << _LIMB * s for s in range(len(vals) + len(flat))])

    def sums(index: np.ndarray) -> np.ndarray:
        out = np.zeros((moduli.size, len(index)), dtype=np.int64)
        for l, gathered in enumerate(flat[:, index]):
            for k, limb in enumerate(vals):
                out += moduli.mul(moduli.exact(gathered @ limb),
                                  shifts[:, k + l:k + l + 1])
        return moduli.reduce(out)

    return sums, len(flat)


def scatter_add(out: np.ndarray, index: np.ndarray, vals: np.ndarray) -> None:
    """out[:, index] += vals for 2-d ``out`` and ``vals`` with one row per
    modulus (or one row of exact values), repeated indices summed."""
    for row, v in zip(out, vals):
        np.add.at(row, index, v)
