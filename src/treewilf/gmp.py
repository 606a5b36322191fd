"""Convolution slices of big nonnegative integers, multiplied by GMP through ctypes.

The series solver imports this module only when a bivariate slice first has
operands big enough to gain from GMP, so importing the package loads neither
ctypes nor libgmp.  library() returns None when libgmp cannot be loaded or
fails its self-check, and the solver then multiplies with int.
"""

from __future__ import annotations

import ctypes
from ctypes import POINTER, byref, c_char, c_int, c_size_t, c_ulong
from functools import cache
from types import SimpleNamespace


class _Mpz(ctypes.Structure):
    """GMP's __mpz_struct: allocated limbs, signed used limbs, limb pointer."""
    _fields_ = [("alloc", c_int), ("size", c_int), ("d", ctypes.c_void_p)]


_MPZ_REF = ctypes.c_void_p  # byref of an _Mpz, or of a slot in an array of them
_MPZ_BYTES = ctypes.sizeof(_Mpz)


@cache
def _array(ctype, length: int):
    # ctypes caches an array type only weakly, and a dropped type is cyclic
    # garbage; holding each one keeps a solve free of reference cycles
    return ctype * length


@cache
def library() -> SimpleNamespace | None:
    """The libgmp calls Slices makes, or None if libgmp cannot be loaded or
    multiplies wrongly.  The soname is loaded directly: find_library would
    run ldconfig in a child process."""
    try:
        lib = ctypes.CDLL("libgmp.so.10")
        gmp = SimpleNamespace(limb_bytes=c_int.in_dll(lib, "__gmp_bits_per_limb").value // 8)
        for name, argtypes in (
                ("init", [_MPZ_REF]),
                ("clear", [_MPZ_REF]),
                ("set_ui", [_MPZ_REF, c_ulong]),
                ("import_", [_MPZ_REF, c_size_t, c_int, c_size_t, c_int, c_size_t, ctypes.c_char_p]),
                ("export", [POINTER(c_char), POINTER(c_size_t), c_int, c_size_t, c_int, c_size_t,
                            _MPZ_REF]),
                # one call per pair of operands: declared argtypes double its
                # cost, so its three mpz references go unchecked
                ("addmul", None)):
            func = getattr(lib, "__gmpz_" + name.rstrip("_"))
            func.argtypes = argtypes
            func.restype = None
            setattr(gmp, name, func)
        return gmp if _self_check(gmp) else None
    except (OSError, AttributeError, ValueError, ctypes.ArgumentError):
        return None


def _self_check(gmp: SimpleNamespace) -> bool:
    a, b, c = 3 ** 400 + 1, 7 ** 300, (1 << 64) + 5
    rows = [[0, a, 0, c], [0, b, a, 1]]
    slices = Slices(gmp, rows)
    try:
        return (slices.slice(0, 1, 3) == a * a
                and slices.slice(0, 1, 4) == a + c * b
                and slices.slice(1, 1, 4) == 2 * b + a * a)
    finally:
        slices.close()


class Slices:
    """Convolution slices of the rows of a solve, by GMP.

    rows[s][k] must not change once a slice has read it: the solver reads a
    degree only after it is final.  Each nonzero entry is converted to an mpz
    the first time a slice reads it and kept until close(), which frees
    every mpz this object made.
    """

    def __init__(self, gmp: SimpleNamespace, rows: list[list[int]]):
        self._gmp = gmp
        self._rows = rows
        self._arrays = [_array(_Mpz, len(row))() for row in rows]  # one mpz slot per entry
        self._mpz: list[list] = [[] for _ in rows]  # per entry read, its slot's byref or None for 0
        self._sum = _Mpz()
        self._acc = byref(self._sum)
        gmp.init(self._acc)
        self._buf = _array(c_char, 1 << 12)()
        self._count = c_size_t()

    def _entries(self, s: int, m: int) -> list:
        done, row, array = self._mpz[s], self._rows[s], self._arrays[s]
        init, imp = self._gmp.init, self._gmp.import_
        for k in range(len(done), m):
            v, ref = row[k], None
            if v:
                data = v.to_bytes((v.bit_length() + 7) // 8, "little")
                ref = byref(array, k * _MPZ_BYTES)
                init(ref)
                imp(ref, len(data), -1, 1, 0, 0, data)
            done.append(ref)
        return done

    def slice(self, s: int, t: int, m: int) -> int:
        """The sum of rows[s][i] * rows[t][m - i] over 0 < i < m."""
        xs, ys = self._entries(s, m), self._entries(t, m)
        gmp, acc = self._gmp, self._acc
        addmul = gmp.addmul
        gmp.set_ui(acc, 0)
        for x, y in zip(xs[1:m], ys[m - 1:0:-1]):
            if x and y:
                addmul(acc, x, y)
        size = self._sum.size * gmp.limb_bytes
        if size > len(self._buf):  # grow by doubling, so few buffer types are made
            self._buf = _array(c_char, 1 << (size - 1).bit_length())()
        gmp.export(self._buf, byref(self._count), -1, 1, 0, 0, acc)
        return int.from_bytes(ctypes.string_at(self._buf, self._count.value), "little")

    def close(self) -> None:
        clear = self._gmp.clear
        for row in self._mpz:
            for ref in row:
                if ref is not None:
                    clear(ref)
        self._mpz = self._arrays = []
        clear(self._acc)
