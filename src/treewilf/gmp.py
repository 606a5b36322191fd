"""Convolution slices of big nonnegative integers, multiplied by GMP through ctypes.

The series solver imports this module only when a bivariate slice first has
operands big enough to gain from GMP, so importing the package loads neither
ctypes nor libgmp.  library() returns None when libgmp cannot be loaded or
fails its self-check, or on a big-endian host, and the solver then
multiplies with int.  GMP reads each operand in place from a copy of its
limbs and allocates only the one sum that library() makes per process.
"""

from __future__ import annotations

import ctypes
import sys
from ctypes import byref, c_int, c_void_p
from functools import cache
from types import SimpleNamespace


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: allocated limbs, signed used limbs, limb pointer."""
    _fields_ = [("alloc", c_int), ("size", c_int), ("d", c_void_p)]


_MPZ_BYTES = ctypes.sizeof(_Mpz)


@cache
def _array(length: int):
    # ctypes caches an array type only weakly, and a dropped type is cyclic
    # garbage; holding each one keeps a solve free of reference cycles
    return _Mpz * length


@cache
def library() -> SimpleNamespace | None:
    """The libgmp calls Slices makes and the sum they add into, or None if
    libgmp cannot be loaded or multiplies wrongly, or the host is big-endian
    (a limb view is the little-endian bytes of an int).  The soname is
    loaded directly: find_library would run ldconfig in a child process."""
    if sys.byteorder != "little":
        return None
    try:
        lib = ctypes.CDLL("libgmp.so.10")
        gmp = SimpleNamespace(limb_bytes=c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8)
        # addmul runs once per pair of operands: declared argtypes double its
        # cost, so its three mpz references go unchecked
        for name, argtypes in (("init", [c_void_p]), ("clear", [c_void_p]), ("addmul", None)):
            func = getattr(lib, "__gmpz_" + name)
            func.argtypes = argtypes
            func.restype = None
            setattr(gmp, name, func)
        gmp.sum = _Mpz()
        gmp.acc = byref(gmp.sum)
        gmp.init(gmp.acc)
        if _self_check(gmp):
            return gmp
        gmp.clear(gmp.acc)
    except (OSError, AttributeError, ValueError, ctypes.ArgumentError):
        pass
    return None


def _self_check(gmp: SimpleNamespace) -> bool:
    a, b, c = 3 ** 400 + 1, 7 ** 300, (1 << 64) + 5
    slices = Slices(gmp, [[0, a, 0, c], [0, b, a, 1]])
    return (slices.slice(0, 1, 3) == a * a
            and slices.slice(0, 1, 4) == a + c * b
            and slices.slice(1, 1, 4) == 2 * b + a * a)


class Slices:
    """Convolution slices of the rows of a solve, by GMP.

    rows[s][k] must not change once a slice has read it: the solver reads a
    degree only after it is final.  The first time a slice reads a nonzero
    entry, its limbs are copied once into bytes this object keeps, and the
    entry's mpz is a read-only view of them, as GMP's MPZ_ROINIT_N makes
    one: alloc 0, so GMP never writes or frees it.  Every slice adds into
    the process's one sum, which is safe because a slice runs to completion
    before the next starts.
    """

    def __init__(self, gmp: SimpleNamespace, rows: list[list[int]]):
        self._gmp = gmp
        self._rows = rows
        self._arrays = [_array(len(row))() for row in rows]  # one mpz view per entry
        self._mpz: list[list] = [[] for _ in rows]  # per entry read, its view's byref or None for 0
        self._limbs: list[bytes] = []  # what the views point into

    def _entries(self, s: int, m: int) -> list:
        done, row, array = self._mpz[s], self._rows[s], self._arrays[s]
        limb_bytes = self._gmp.limb_bytes
        for k in range(len(done), m):
            v, ref = row[k], None
            if v:
                size = -(-v.bit_length() // (8 * limb_bytes))
                data = v.to_bytes(size * limb_bytes, "little")
                self._limbs.append(data)
                mpz = array[k]
                mpz.size = size
                mpz.d = ctypes.cast(data, c_void_p).value
                ref = byref(array, k * _MPZ_BYTES)
            done.append(ref)
        return done

    def slice(self, s: int, t: int, m: int) -> int:
        """The sum of rows[s][i] * rows[t][m - i] over 0 < i < m."""
        xs, ys = self._entries(s, m), self._entries(t, m)
        gmp = self._gmp
        total, acc, addmul = gmp.sum, gmp.acc, gmp.addmul
        total.size = 0
        for x, y in zip(xs[1:m], ys[m - 1:0:-1]):
            if x and y:
                addmul(acc, x, y)
        return int.from_bytes(ctypes.string_at(total.d, total.size * gmp.limb_bytes), "little")
