"""Exact complex-rational linear algebra.

An ExactMatrix stores Gaussian-rational entries as two integer numerator
arrays (real and imaginary parts) over a single positive denominator. Every
operation that could overflow is bound-checked before it runs, and the bound
picks one of three arithmetic paths:

* int64, when every value the operation forms stays at most 2^62 in
  magnitude;
* Python big integers (numpy object dtype) otherwise, so results are always
  exact;
* for matrix products of int64 operands, one float64 GEMM when every partial
  sum is provably at most 2^53. A dot product of k integer terms, each at most
  a*b in magnitude, has every partial sum at most k*a*b in magnitude,
  whatever order the terms are added in and whether or not they are fused
  multiply-adds. Every integer of magnitude at most 2^53 is a float64, so
  each product, each partial sum and the result are exact. Floats carry
  only such integers, never approximations.

Most matrices the checks form are real, and an ExactMatrix records whether
its imaginary part is zero. The constructor alone decides how a real matrix
is stored: an imaginary part of None means "known real", any other is
scanned once, and a real matrix's imaginary part is then a shared,
read-only zero view that takes no memory. Operations build results from
their operands' parts, (re,) when real and (re, im) otherwise, so a real
result is never scanned.

One rule covers complex arithmetic: each kernel states a map f, bilinear
over the integers, and a bound on each value f forms from one part of each
operand, and _bilinear extends f to Gaussian integers. Only two complex
operands make a result part a sum of two such values, f(ar, br) - f(ai, bi)
or f(ar, bi) + f(ai, br), so only they double the bound that picks int64 or
big integers. A product's f is the integer matmul under k*max|A|*max|B|:
one integer product for real operands, two with one real factor, four for
two complex ones. The float gate reads that bound undoubled, as each part
product is its own exact float64 product, back in int64 before two are
added.

Each matrix carries its peak, a bound on max|numerator|, and every result
takes the one its kernel knows: a product, kron or entrywise product the
bound _bilinear returns, a sum the sum of its operands' peaks rescaled to
the common denominator, a selection or a move its source's, and a
concatenation the largest of its inputs', rescaled alike. Only a matrix
built from bare arrays is scanned for it, on first use. A kernel reads
the bound that picks its path from its operands' peaks (_gate_bound), and
only when that bound lies above the gate it faces (2^53 for a product,
2^62 for every other kernel) is each operand whose peak is only a bound
scanned, once, and the path picked from exact peaks. So every path is the
one exact peaks pick, and a matrix is scanned only where a carried bound
crosses a gate. A matrix records that its peak is exact: moves that keep
every entry (negation, conjugation, transposition, reshaping, a diagonal)
keep that mark, and moves that drop entries (selections, take,
square_blocks) leave the peak a bound.

An ExactMatrix may carry leading batch axes: its numerator arrays then
have more than two axes, the last two holding one member, and shape, nrows
and ncols describe one member while batch_shape gives the leading axes.
Batch axes broadcast as numpy broadcasts them, so a product, sum or
difference of batched matrices is one operation on whole arrays, and a
single matrix is the case without batch axes. Each entry of each member of
a product is still one dot product of k terms, so the bound
k*max|A|*max|B|, read over the whole arrays, decides the path exactly as
for one product, whatever the batch size. A linear combination
sum_k c_k M_k of the members along one batch axis (combine) is one such
product too: the members' numerators, read row-major, are the rows of one
r x (m n) integer matrix F over one denominator, and the coefficients'
transpose times F, regrouped, is every combination at once. Its inner
dimension is the number r of members, so its bound is r*max|c|*max|F|.
Elimination (rref and the inverse, solve and kernel built on it), kron,
hstack, vstack and entry access take a single matrix and raise ValueError
on batch axes.

Kronecker-structured products are one such product each as well; no
Kronecker product is formed only to be summed or multiplied:

* kron_sum(lefts, rights) = sum_k A_k (x) B_k over r pairs, with the A_k
  m x n and the B_k p x q. Flattened as combine flattens its members, the
  A_k make an r x mn integer matrix A and the B_k an r x pq one B, each over
  its lcm denominator. Entry ((i, j), (k, l)) of A^T B is the sum's entry
  ((i, k), (j, l)), so regrouping the axes (m, n, p, q) of A^T B into
  (m, p, n, q) gives the mp x nq result. Its inner dimension is r, so its
  bound is r*max|A|*max|B|. The B_k may carry batch axes before the
  terms' axis, and then every member is one batch of the one product.
* kron_sum_entries(lefts, rights, rows, cols) is the same sum at the given
  rows and columns only, the sum never formed: row (i, k) and column
  (j, l) read sum_t A_t[i, j] * B_t[k, l], so the entries are r gathers of
  each factor's numerators and r entrywise products, added up, for every
  member of batched B_k at once. Each entry is a sum of r products, so the
  bound is r*max|A|*max|B|, and it picks int64 or big integers as above;
  the result is over the product of the two denominators and normalised
  once. When rows and cols are every index in order it is kron_sum, which
  costs no more.
* times_kron_identity(mat, x, s, left) = mat @ (x (x) I_s) when left and
  mat @ (I_s (x) x) otherwise, with x h x q. The r x (h s) matrix mat is
  regrouped into an (r s) x h one, multiplied by x once, and the (r s) x q
  product is regrouped back into r x (q s) or r x (s q); for I_s (x) x both
  regroups keep the row-major order. Its inner dimension is h, not h*s, so
  its bound h*max|mat|*max|x| is s times smaller than that of the product
  with the Kronecker product, which is never formed.

Every product goes through ExactMatrix @, so each takes the float64, int64
or big-integer path as above. Regrouping only moves entries, so each
kernel normalises once, in its product. GramStack.pairs reads
algebra-valued inner products the same way: for y with m columns,
<x_i|y_j> = (x_i^H G_c y_j)_c is the coordinate Grams, held as one
d x n x n batched matrix and read as one (d n) x n matrix, times y,
regrouped into an n x (d m) matrix, times x^H, for every pair of columns
at once.

A selection of rows and columns of x (x) I_s or I_s (x) x needs no product
at all: kron_identity_entries reads entry ((a, u), (b, v)) of x (x) I_s as
x[a, b] when u = v and zero otherwise (and entry ((u, a), (v, b)) of
I_s (x) x alike), one gather of x's numerators into a zero array, at the
entries where u = v only. It does no arithmetic, so its bound is max|x|
and its result is real when x is.

Products with a diagonal matrix need no matrix product either. For
P = diag(p), P @ x scales row i of x by p[i], the entrywise product of x
with p as a column (entrywise, numpy broadcasting every axis), and the
commutator x @ diag(q) - diag(p) @ x has entry (i, j) equal to
x[i, j] * (q[j] - p[i]) (diagonal_commutator): the difference of the two
diagonals is an m x n mask, and the result is one entrywise product of
numerator arrays. Over the common denominator of p and q the mask's
entries are at most 2*max|p|, so a commutator entry is at most
2*max|x|*max|p|, and a row-scaled entry at most max|p|*max|x|. Both
kernels are exact for any diagonal, not only a 0/1 one, and their results
are real when both operands are.

The module also provides deterministic reduced row echelon form, kernel and
solve built on it, and Gram-form utilities: exact positive-semidefiniteness
with a rational negativity witness, and adjoints of linear maps with respect
to possibly non-standard inner products.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .scalars import GaussianRational

# Largest magnitude allowed to persist in an int64 array. Products are
# checked against this before they happen.
_INT64_SAFE = 1 << 62

# Largest partial sum a float64 matrix product may form: every integer up
# to 2^53 in magnitude is exactly representable.
_FLOAT_EXACT = 1 << 53


class NotHermitian(ValueError):
    """Raised when an operation requires a Hermitian matrix."""


class SingularGram(ValueError):
    """Raised when a Gram matrix that must be invertible is not."""


class NotDiagonal(ValueError):
    """Raised when an operation requires diagonal matrices."""


# _gcd_reduce and _max_abs work on int64 and on object (Python int) arrays
# alike.
def _gcd_reduce(arr) -> int:
    return int(np.gcd.reduce(np.abs(arr), axis=None)) if arr.size else 0


def _max_abs(arr) -> int:
    return int(np.abs(arr).max()) if arr.size else 0


# The two dtypes of a stored numerator array; numpy's dtypes of builtin
# types are singletons, so an identity test recognises them.
_INT64 = np.dtype(np.int64)
_OBJECT = np.dtype(object)


def _demote(arr):
    """Drop an object array back to int64 when its values are at most
    _INT64_SAFE in magnitude. The conversion stops at the first value past
    int64; int64's abs wraps at -2^63, so its extremes are read instead."""
    if arr.dtype is _OBJECT:
        try:
            small = arr.astype(np.int64)
        except OverflowError:
            return arr
        if not small.size or -_INT64_SAFE <= small.min() and small.max() <= _INT64_SAFE:
            return small
    return arr


def _stored(arr):
    """arr as a numerator array: int64 unless it holds Python ints. An
    int64 or object array is kept as handed over rather than copied, as
    stored arrays are never written in place."""
    if isinstance(arr, np.ndarray) and (arr.dtype is _INT64 or arr.dtype is _OBJECT):
        return arr
    arr = np.asarray(arr)
    return arr if arr.dtype == object else arr.astype(np.int64)


@functools.lru_cache(maxsize=4096)
def _zero(shape):
    """A read-only int64 zero array of the given shape that takes no
    memory: the imaginary part of a matrix known to be real. Stored arrays
    are never written in place, so every real result of one shape shares
    one."""
    return np.broadcast_to(np.int64(0), shape)


def _broadcast(arr, shape):
    """arr broadcast to shape, as a read-only view; arr itself when it has
    that shape already (stored arrays are never written in place)."""
    return arr if arr.shape == shape else np.broadcast_to(arr, shape)


def _to_object(arr):
    return arr if arr.dtype is _OBJECT else arr.astype(object)


def _common(bound: int, *arrays):
    """The arrays unchanged when all are int64 and bound is at most
    _INT64_SAFE; otherwise all of them as object arrays. Every kernel
    passes through here, so the test is a plain loop, which costs less per
    call than a generator."""
    if bound <= _INT64_SAFE:
        for a in arrays:
            if a.dtype is _OBJECT:
                break
        else:
            return arrays
    return tuple(_to_object(a) for a in arrays)


def _int_array(values, shape):
    """Python ints as an int64 array when every value is at most _INT64_SAFE
    in magnitude, otherwise as an object array."""
    fits = max(map(abs, values), default=0) <= _INT64_SAFE
    return np.array(values, dtype=np.int64 if fits else object).reshape(shape)


def _peak_of(parts) -> int:
    """max |value| over the integer arrays parts."""
    return max(map(_max_abs, parts))


def _bilinear(f, a, b, bound: int):
    """(parts, peak) of the Gaussian-integer extension of f to the operands
    a and b, each given by its parts: (re,) for a real operand and (re, im)
    otherwise (see ExactMatrix._parts). f is bilinear over the integers and
    bound bounds each value it forms from one part of a and one of b. Only
    two complex operands make a result part the sum of two such values, so
    only they double the bound. The bound so found picks int64 or big
    integers for every part at once and is returned as peak, a bound on
    each result part."""
    if len(a) + len(b) == 2:
        x, y = _common(bound, *a, *b)
        return (f(x, y),), bound
    if len(a) == len(b) == 2:
        bound *= 2
        ar, ai, br, bi = _common(bound, *a, *b)
        return (f(ar, br) - f(ai, bi), f(ar, bi) + f(ai, br)), bound
    # one real operand: its one part with each part of the other
    parts = _common(bound, *a, *b)
    return tuple(f(x, y) for x in parts[:len(a)] for y in parts[len(a):]), bound


def _int64_gate(a, b) -> int:
    """The int64 gate of a bilinear kernel's per-value bound on a and b:
    2^62, halved for two complex operands, whose result parts add two such
    values (see _bilinear)."""
    return _INT64_SAFE >> (not (a._real or b._real))


def _gate_bound(bound, gate, a, b=None) -> int:
    """bound(pa, pb) for the peaks pa, pb of the operands a and b, or
    bound(pa) when there is no b: the value a kernel compares with gate to
    pick its path. It is read from the carried peaks; when it lies above
    gate and some of them are only bounds, each such operand is scanned,
    once, and bound is read again from exact peaks, so the path is the one
    exact peaks pick. An operand with an object part takes big integers
    whatever the bound, so then no operand is scanned."""
    value = bound(a._peak_abs()) if b is None else bound(a._peak_abs(), b._peak_abs())
    if value <= gate:
        return value
    mats = (a,) if b is None else (a, b)
    if all(m._exact for m in mats) or any(p.dtype is _OBJECT for m in mats for p in m._parts()):
        return value
    return bound(*(m._exact_peak() for m in mats))


def _float_matmul(x, y):
    """x @ y in one float64 GEMM, exact when every partial sum is at most
    2^53 (see the module docstring); object operands stay object."""
    if x.dtype is _OBJECT:
        return x @ y
    return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64)


def _product(a, b):
    """(parts, peak) of a @ b, over the denominator a._den * b._den; batch
    axes broadcast. The bound k*max|A|*max|B| alone picks each part
    product's path: one float64 GEMM at most 2^53, otherwise an int64 or
    big-integer matmul (see the module docstring)."""
    k = a._re.shape[-1]
    bound = _gate_bound(lambda p, q: k * p * q, _FLOAT_EXACT, a, b)
    return _bilinear(_float_matmul if bound <= _FLOAT_EXACT else np.matmul,
                     a._parts(), b._parts(), bound)


def _concatenated(mats, join) -> "ExactMatrix":
    """The matrices mats rescaled to their lcm denominator and promoted
    together, join applied to the list of their real parts and, unless
    every matrix is real, to that of their imaginary parts. The result's
    peak is the largest of theirs, rescaled, when every one is known."""
    den = math.lcm(*(m._den for m in mats))
    n = 1 if all(m._real for m in mats) else 2
    arrays = _common(0, *(x for m in mats for x in m._scaled_to(den)[:n]))
    peaks = [m._peak for m in mats]
    peak = None if None in peaks else max(p * (den // m._den) for p, m in zip(peaks, mats))
    return ExactMatrix(*(join(arrays[j::n]) for j in range(n)), den=den, _peak=peak)


def _sum(a, b, op):
    """(re, im, den, bound) of op(a, b), op being np.add or np.subtract,
    im None for two real operands; batch axes broadcast. bound, which
    bounds each part of the result, is the sum of the operands' peaks,
    rescaled to the common denominator (see _gate_bound)."""
    den = a._den * b._den // math.gcd(a._den, b._den)
    are, aim = a._scaled_to(den)
    bre, bim = b._scaled_to(den)
    fa, fb = den // a._den, den // b._den
    bound = _gate_bound(lambda p, q: p * fa + q * fb, _INT64_SAFE, a, b)
    if a._real and b._real:
        are, bre = _common(bound, are, bre)
        return op(are, bre), None, den, bound
    are, aim, bre, bim = _common(bound, are, aim, bre, bim)
    return op(are, bre), op(aim, bim), den, bound


def _index_array(idx):
    """Row or column indices as a one-axis intp array; an intp array is
    returned as it is, with no copy."""
    return np.asarray(idx, dtype=np.intp).reshape(-1)


def _indices(idx):
    """Row or column indices as an index array, or as a slice for a range,
    which selects a view."""
    if isinstance(idx, range):
        return slice(idx.start, idx.stop, idx.step)
    return _index_array(idx)


def _checked_indices(idx, size: int):
    """idx as an index array, every index in range(size): a gather reads
    only such indices, as a negative one would wrap around."""
    idx = _index_array(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError("index outside the Kronecker product")
    return idx


class ExactMatrix:
    """Matrices over the Gaussian rationals with one shared denominator:
    integer numerator arrays _re and _im over one positive denominator
    _den. The last two axes of the arrays are a matrix, and any leading
    axes are batch axes (see the module docstring); shape, nrows and ncols
    are one member's.

    _real is true when the imaginary part is zero, and only the
    constructor sets it: im None means the caller knows the matrix is real,
    and any other imaginary part is scanned once. A real matrix's imaginary
    part is the shared read-only view of _zero. _peak bounds max |numerator|
    over both parts, and _exact says it is that maximum. Each operation
    hands its result the bound it knows (see the module docstring); a
    matrix given none is scanned on first use, and one whose bound crosses
    a gate is scanned for its exact peak, each once. Stored arrays are
    never written in place, so both stay true for the object's lifetime."""

    __slots__ = ("_re", "_im", "_den", "_real", "_peak", "_exact")

    def __init__(self, re, im=None, den: int = 1, _normalize: bool = True,
                 _peak: int | None = None, _exact: bool = False):
        re = _stored(re)
        im = None if im is None else _stored(im)
        if re.ndim < 2 or (im is not None and im.shape != re.shape):
            raise ValueError("real and imaginary parts must be equal-shape arrays "
                             "of at least two axes")
        if den <= 0:
            raise ValueError("denominator must be positive")
        # None is a caller's word that the matrix is real, and the scan is
        # skipped; a zero part found by the scan is stored as one too
        if im is not None and not im.any():
            im = None
        self._real = im is None
        self._re = re
        self._im = _zero(re.shape) if im is None else im
        self._den = int(den)
        self._peak = _peak
        self._exact = _exact
        if _normalize:
            self._normalize()

    def _normalize(self):
        """Divide the numerators and the denominator by their common factor
        g, and drop object arrays back to int64 when they fit. The gcd scan
        stops as soon as it reaches 1, and a real matrix has no imaginary
        part to take it from."""
        parts, g = self._parts(), self._den
        for part in parts:
            if g > 1:
                g = math.gcd(g, _gcd_reduce(part))
        if g > 1:
            parts = tuple(part // g for part in _common(g, *parts))
            self._den //= g
            if self._peak is not None:
                self._peak //= g
        self._re = _demote(parts[0])
        if not self._real:
            self._im = _demote(parts[1])

    def _peak_abs(self) -> int:
        """The carried bound on max |numerator| over both parts, scanned
        when none is known. Only _gate_bound reads it."""
        return self._exact_peak() if self._peak is None else self._peak

    def _exact_peak(self) -> int:
        """max |numerator| over both parts, scanned once."""
        if not self._exact:
            self._peak = _peak_of(self._parts())
            self._exact = True
        return self._peak

    def _parts(self) -> tuple:
        """The numerator arrays: (re,) for a real matrix, (re, im)
        otherwise."""
        return (self._re,) if self._real else (self._re, self._im)

    def _scaled_to(self, den: int):
        """Numerator arrays rescaled to the given common denominator."""
        f = den // self._den
        if f == 1:
            return self._re, self._im
        # f itself must fit too: an int64 array times a bigint raises even
        # when the array is zero.
        bound = _gate_bound(lambda p: f * max(p, 1), _INT64_SAFE, self)
        parts = tuple(part * f for part in _common(bound, *self._parts()))
        return parts if len(parts) == 2 else (parts[0], self._im)

    def _single(self, what: str):
        if self._re.ndim != 2:
            raise ValueError(f"{what} takes a single matrix, not one with batch axes")

    def _moved(self, move, keeps_every_entry: bool = True) -> "ExactMatrix":
        """move applied to both numerator arrays, for a move that only
        places entries: the denominator and peak are kept, the result is
        not normalised again, and a real matrix stays real unscanned. An
        exact peak stays exact only when the move keeps every entry; one
        that drops entries leaves it a bound."""
        return ExactMatrix(*map(move, self._parts()), den=self._den, _normalize=False,
                           _peak=self._peak, _exact=self._exact and keeps_every_entry)

    # -- construction ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        """Build from nested lists of ints, Fractions or GaussianRationals."""
        parts = []
        for row in rows:
            vals = [GaussianRational.from_value(v) for v in row]
            parts.append([(v.re.numerator, v.re.denominator, v.im.numerator, v.im.denominator)
                          for v in vals])
        return cls.from_entries(parts)

    @classmethod
    def from_entries(cls, rows) -> "ExactMatrix":
        """Build from rows of (reNum, reDen, imNum, imDen) integer entries.

        Denominators must be nonzero; they may be negative or share factors
        with their numerators. Each numerator is rescaled to the lcm of the
        denominators and the result is reduced once, as a whole matrix.
        """
        m = len(rows)
        n = len(rows[0]) if m else 0
        if any(len(row) != n for row in rows):
            raise ValueError("ragged rows")
        if m == 0 or n == 0:
            return cls.zeros(m, n)
        re_num, re_den, im_num, im_den = zip(*(e for row in rows for e in row))
        den = math.lcm(*re_den, *im_den)
        re = [a * (den // b) for a, b in zip(re_num, re_den)]
        im = [a * (den // b) for a, b in zip(im_num, im_den)]
        return cls(_int_array(re, (m, n)), _int_array(im, (m, n)), den)

    @classmethod
    def from_flat_entries(cls, flat, shape) -> "ExactMatrix":
        """The matrix of the given shape, batch axes first, from the
        integers flat holds: each entry's reNum, reDen, imNum, imDen in
        turn, row-major over shape. Every numerator is rescaled to the lcm
        of all the denominators and the result is reduced once, as
        from_entries builds a matrix, but the integers are read at once:
        they become one int64 array (object when one does not fit), the lcm
        is taken of their distinct denominators as Python ints, and the
        rescaled numerators are int64 only when max|numerator| * lcm stays
        at most 2^62. Denominators must be nonzero."""
        try:
            ints = np.array(flat, dtype=np.int64)
        except OverflowError:
            ints = np.array(flat, dtype=object)
        nums, dens = ints[0::2], ints[1::2]
        den = math.lcm(*set(dens.tolist()))
        if max(int(nums.max()), -int(nums.min()), 1) * den > _INT64_SAFE:
            nums, dens = _to_object(nums), _to_object(dens)
        # real and imaginary parts alternate
        re = nums[0::2] * (den // dens[0::2])
        im = nums[1::2] * (den // dens[1::2])
        return cls(re.reshape(shape), im.reshape(shape), den)

    @classmethod
    def zeros(cls, *shape) -> "ExactMatrix":
        """Zero matrices: shape is the batch shape followed by the matrix
        shape."""
        return cls(_zero(shape), None, 1, _normalize=False, _peak=0, _exact=True)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(np.eye(n, dtype=np.int64), None, 1, _normalize=False, _peak=min(n, 1),
                   _exact=True)

    @classmethod
    def column(cls, values) -> "ExactMatrix":
        return cls.from_rows([[v] for v in values])

    @classmethod
    def stack(cls, mats, shape) -> "ExactMatrix":
        """The equal-shape matrices mats, in C order over the batch shape
        shape, as one batched matrix over their lcm denominator."""
        mats = list(mats)
        if not mats:
            raise ValueError("need at least one matrix to stack")
        full = tuple(shape) + mats[0]._re.shape
        return _concatenated(mats, lambda parts: np.stack(parts).reshape(full))

    def to_diagonal(self) -> "ExactMatrix":
        """Every member, a column, as the square diagonal matrix whose
        diagonal it is."""
        if self.ncols != 1:
            raise ValueError("only a column has a diagonal matrix")
        at = np.arange(self.nrows)

        def spread(part):
            out = np.zeros(part.shape[:-1] + (at.size,), part.dtype)
            out[..., at, at] = part[..., 0]
            return out

        return self._moved(spread)

    def is_diagonal(self) -> bool:
        """Whether every member is zero off its diagonal: each part has as
        many nonzero entries as its diagonals, counted without a mask or a
        copy; a real matrix has no imaginary part to count."""
        return all(np.count_nonzero(p) == np.count_nonzero(np.diagonal(p, axis1=-2, axis2=-1))
                   for p in self._parts())

    def reciprocals(self) -> "ExactMatrix":
        """A single matrix's entries inverted one by one, every entry being
        nonzero: 1 / ((a + i b) / d) = d (a - i b) / (a^2 + b^2)."""
        self._single("reciprocals")
        re, im = self._re.tolist(), self._im.tolist()
        norms = [[a * a + b * b for a, b in zip(*row)] for row in zip(re, im)]
        if not all(map(all, norms)):
            raise SingularGram("matrix has a zero entry")
        d = self._den
        return ExactMatrix.from_entries(
            [[(d * a, q, -d * b, q) for a, b, q in zip(*row)] for row in zip(re, im, norms)])

    # -- basics ----------------------------------------------------------

    @property
    def shape(self):
        """One member's shape."""
        return self._re.shape[-2:]

    @property
    def batch_shape(self) -> tuple:
        return self._re.shape[:-2]

    @property
    def nrows(self) -> int:
        return self._re.shape[-2]

    @property
    def ncols(self) -> int:
        return self._re.shape[-1]

    def __getitem__(self, key) -> GaussianRational:
        self._single("entry access")
        i, j = key
        return GaussianRational(
            Fraction(int(self._re[i, j]), self._den),
            Fraction(int(self._im[i, j]), self._den),
        )

    def __iter__(self):
        """The members along the first batch axis, each read as take reads
        it. There is no __len__, so a batch is true as every object is."""
        shape = self.batch_shape
        if not shape:
            raise TypeError("only a batched matrix iterates, over its first batch axis")
        return (self.take(shape, i) for i in range(shape[0]))

    def is_zero(self) -> bool:
        return self._real and not self._re.any()

    def nonzero(self):
        """Per member, whether it has a nonzero entry: a boolean array of
        the batch shape."""
        bad = (self._re != 0).any(axis=(-2, -1))
        return bad if self._real else bad | (self._im != 0).any(axis=(-2, -1))

    def nonzero_rows(self) -> list:
        """The indices of the rows with a nonzero entry, in order."""
        nonzero = (self._re != 0).any(axis=1)
        if not self._real:
            nonzero |= (self._im != 0).any(axis=1)
        return np.flatnonzero(nonzero).tolist()

    def equal_rows(self) -> list:
        """A single matrix's rows grouped by value: lists of row indices,
        each in order, ordered by their first rows. All entries share one
        denominator, so rows are equal exactly when their numerators are."""
        self._single("equal_rows")
        classes = {}
        for i, key in enumerate(map(tuple, np.concatenate([self._re, self._im], 1).tolist())):
            classes.setdefault(key, []).append(i)
        return list(classes.values())

    def is_real(self) -> bool:
        """Whether every entry is real."""
        return self._real

    def is_nonnegative(self) -> bool:
        """Whether every entry is real and at least zero."""
        return self._real and not (self._re < 0).any()

    def __eq__(self, other):
        """Equal values and shapes, batch axes included. Over one
        denominator the numerators decide; otherwise both are read over the
        lcm of the two, so a matrix that is not normalised compares by
        value too."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self._re.shape != other._re.shape:
            return False
        den = math.lcm(self._den, other._den)
        return all(bool(np.array_equal(a, b))
                   for a, b in zip(self._scaled_to(den), other._scaled_to(den)))

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def __repr__(self):
        return f"ExactMatrix({'x'.join(map(str, self._re.shape))}, den={self._den})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        return self._summed(other, np.add)

    def __sub__(self, other):
        return self._summed(other, np.subtract)

    def _summed(self, other, op):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        re, im, den, bound = _sum(self, other, op)
        return ExactMatrix(re, im, den, _peak=bound)

    def __neg__(self):
        return self._moved(np.negative)

    def __matmul__(self, other):
        """The product of every pair of members, batch axes broadcast: one
        exact product of the numerator arrays (see the module docstring)."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        parts, peak = _product(self, other)
        return ExactMatrix(*parts, den=self._den * other._den, _peak=peak)

    def scale(self, c) -> "ExactMatrix":
        """Every entry times the scalar c: an entrywise product with c as a
        1 x 1 matrix, whose parts are arrays, so a big integer factor
        promotes as any other operand does."""
        c = GaussianRational.from_value(c)
        q = math.lcm(c.re.denominator, c.im.denominator)
        parts = [int(c.re * q)] + ([int(c.im * q)] if c.im else [])
        factor = ExactMatrix(*(_int_array([v], (1, 1)) for v in parts), den=q,
                             _normalize=False, _peak=max(map(abs, parts)), _exact=True)
        return entrywise(factor, self)

    def scaled(self, coeffs: "ExactMatrix") -> "ExactMatrix":
        """Each member times its own scalar: member (i, j) of this matrix
        broadcast to the batch shape coeffs.shape, times coeffs[i, j]. One
        entrywise product (see entrywise) under the bound
        max|coeffs| * max|self|."""
        return entrywise(coeffs._moved(lambda a: a[..., None, None]), self)

    def combine(self, coeffs: "ExactMatrix") -> "ExactMatrix":
        """For members M_0, ..., M_{r-1} along one batch axis: the members
        sum_k coeffs[k, j] * M_k over the columns j of coeffs. The members'
        numerators read as one r x (m n) matrix, so this is one exact
        product (see the module docstring)."""
        m, n = self.shape
        flat = self.take((coeffs.nrows,), ...).flattened()
        return (coeffs.T @ flat).regrouped((coeffs.ncols, m, n), (0, 1, 2))

    def conj(self) -> "ExactMatrix":
        if self._real:
            return self
        return ExactMatrix(self._re, -self._im, self._den, _normalize=False, _peak=self._peak,
                           _exact=self._exact)

    @property
    def T(self) -> "ExactMatrix":
        """Every member's transpose."""
        return self._moved(lambda a: np.swapaxes(a, -1, -2))

    @property
    def H(self) -> "ExactMatrix":
        """Every member's conjugate transpose."""
        return self.T.conj()

    def is_hermitian(self) -> bool:
        return self == self.H

    # -- shaping ---------------------------------------------------------

    def _selected(self, rows, cols) -> "ExactMatrix":
        """Every member's entries at the given rows and columns, each an
        index array or a slice, normalised again. A slice selects a view,
        and an index array gathers along its axis with take, which lays the
        result out in C order; numpy's fancy indexing would move the batch
        axes innermost."""
        def selected(part):
            part = part[..., rows, :] if isinstance(rows, slice) else part.take(rows, axis=-2)
            return part[..., cols] if isinstance(cols, slice) else part.take(cols, axis=-1)

        return ExactMatrix(*map(selected, self._parts()), den=self._den, _peak=self._peak)

    def take_rows(self, idx) -> "ExactMatrix":
        return self._selected(_indices(idx), slice(None))

    def take_cols(self, idx) -> "ExactMatrix":
        return self._selected(slice(None), _indices(idx))

    def submatrix(self, rows, cols) -> "ExactMatrix":
        return self._selected(_index_array(rows), _index_array(cols))

    def take(self, shape, index) -> "ExactMatrix":
        """The members broadcast to the batch shape shape, then indexed by
        index on the batch axes: a view, normalised as a whole as this
        matrix is (one member alone may share a factor with the
        denominator)."""
        full = tuple(shape) + self.shape
        # a part of a complex matrix may be real, which the constructor finds
        return self._moved(lambda a: _broadcast(a, full)[index], False)

    def reshaped(self, shape, new_shape) -> "ExactMatrix":
        """The members broadcast to the batch shape shape, the batch axes
        then reshaped to new_shape (row-major, as numpy reshapes)."""
        mat = self.shape
        full = tuple(shape) + mat
        return self._moved(lambda a: _broadcast(a, full).reshape(tuple(new_shape) + mat))

    def regrouped(self, shape, axes) -> "ExactMatrix":
        """The entries read row-major as an array of the given shape, its
        axes permuted; the last two permuted axes are the matrices. Moving
        entries keeps the normalisation and peak."""
        return self._moved(lambda a: a.reshape(shape).transpose(axes))

    def flattened(self) -> "ExactMatrix":
        """The members along one batch axis as the rows of one r x (m n)
        matrix, each member read row-major. Moving entries keeps the
        normalisation and peak."""
        r = self._re.shape[0]
        m, n = self.shape
        return self.regrouped((r, m * n), (0, 1))

    def diagonal_columns(self) -> "ExactMatrix":
        """Every member's diagonal, as a column, for diagonal members. A
        diagonal holds all the nonzero entries, so it keeps the
        normalisation and peak."""
        if self.nrows != self.ncols:
            raise ValueError("only square matrices have diagonals")
        if not self.is_diagonal():
            raise NotDiagonal("some member has a nonzero entry off its diagonal")
        return self._moved(lambda a: np.diagonal(a, axis1=-2, axis2=-1)[..., None])

    def square_blocks(self, dims) -> list:
        """For members of one row holding square blocks side by side, each
        read row-major as flattened reads a member: one batched matrix per
        block, of dims[i] x dims[i] members. Each is a view of this matrix,
        normalised as a whole as this matrix is (see take)."""
        if self.nrows != 1 or self.ncols != sum(n * n for n in dims):
            raise ValueError("blocks do not fill the row")
        blocks, at = [], 0
        for n in dims:
            shape = self.batch_shape + (n, n)
            blocks.append(self._moved(lambda a: a[..., 0, at:at + n * n].reshape(shape), False))
            at += n * n
        return blocks

    def zero_one_diagonals(self):
        """Per member, whether it is a diagonal matrix whose entries are all
        0 or 1, and which of its diagonal entries are 1: boolean arrays of
        the batch shape and of the batch shape plus (n,). An entry is 1
        exactly when its real numerator equals the denominator and its
        imaginary one is 0, so this reads the numerators and forms no value."""
        n = self.ncols
        if self.nrows != n:
            raise ValueError("only square matrices have diagonals")
        ones = self._re == self._den
        allowed = (self._re == 0) | (ones & np.eye(n, dtype=bool))
        if not self._real:
            allowed &= self._im == 0
        return allowed.all(axis=(-2, -1)), np.diagonal(ones, axis1=-2, axis2=-1)

    def scattered(self, rows, cols, shape) -> "ExactMatrix":
        """Every member as the matrix of the given shape whose entry
        (rows[i], cols[j]) is the member's entry (i, j), and whose other
        entries are zero: the inverse of submatrix(rows, cols) on those
        positions."""
        at = (Ellipsis,) + np.ix_(_index_array(rows), _index_array(cols))

        def placed(part):
            out = np.zeros(part.shape[:-2] + tuple(shape), part.dtype)
            out[at] = part
            return out

        return self._moved(placed)

    @staticmethod
    def _joined(mats, join) -> "ExactMatrix":
        mats = list(mats)
        for m in mats:
            m._single("hstack and vstack")
        return _concatenated(mats, join)

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        return ExactMatrix._joined(mats, np.hstack)

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        return ExactMatrix._joined(mats, np.vstack)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        self._single("kron")
        other._single("kron")
        (m, n), (p, q) = self.shape, other.shape

        def outer(a, b):
            return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)

        bound = _gate_bound(lambda p, q: p * q, _int64_gate(self, other), self, other)
        parts, peak = _bilinear(outer, self._parts(), other._parts(), bound)
        return ExactMatrix(*parts, den=self._den * other._den, _peak=peak)

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots) where R is an ExactMatrix with unit pivots and
        pivots is a tuple of pivot column indices. Pivot choice is
        deterministic: scan columns left to right, take the nonzero entry
        with the smallest row index. Elimination is fraction-free and rows
        stay integer; only the final scaling introduces the one shared
        denominator. Each row update and the scaling is one bilinear map
        of the parts (see _bilinear), one integer product for a real matrix.
        """
        self._single("rref")
        m, n = self.shape
        w = [part.copy() for part in self._parts()]
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            mask = w[0][:, c] != 0
            for part in w[1:]:
                mask |= part[:, c] != 0
            pr = r + int(mask[r:].argmax())
            if not mask[pr]:
                continue
            if pr != r:
                for part in w:
                    part[[r, pr]] = part[[pr, r]]
            # row r now holds the pivot, and row pr the zero that row r held
            mask[[r, pr]] = False
            touched = mask.nonzero()[0]
            if touched.size:
                block = tuple(part[np.concatenate(([r], touched))] for part in w)
                col = tuple(part[:, c] for part in block)
                bound = (_peak_of(x[:1] for x in col) * _peak_of(x[1:] for x in block)
                         + _peak_of(x[1:] for x in col) * _peak_of(x[:1] for x in block))
                new, _ = _bilinear(_eliminated, col, block, bound)
                g = functools.reduce(np.gcd, (np.gcd.reduce(np.abs(x), axis=1) for x in new))
                g[g == 0] = 1
                if any(x.dtype is _OBJECT for x in new):
                    w = [_to_object(part) for part in w]
                for part, x in zip(w, new):
                    part[touched] = x // g[:, None]
            pivots.append(c)
            r += 1
        # Divide pivot row i by its pivot p_i: times conj(p_i) f_i over the
        # shared denominator D = lcm |p_i|^2, with f_i = D / |p_i|^2.
        k = len(pivots)
        piv = [[int(part[i, c]) for part in w] for i, c in enumerate(pivots)]
        norms = [sum(v * v for v in p) for p in piv]
        den = math.lcm(*norms)
        f = [den // q for q in norms]
        factor = tuple(_int_array([sign * p[j] * g for p, g in zip(piv, f)], (k, 1))
                       for j, sign in enumerate((1, -1)[:len(w)]))
        # The pivot is in its row, so row i's products are at most peak_i^2 f_i.
        peak = functools.reduce(np.maximum, (np.abs(part[:k]).max(axis=1, initial=0) for part in w))
        bound = max((int(p) ** 2 * g for p, g in zip(peak, f)), default=0)
        rows, _ = _bilinear(np.multiply, factor, tuple(part[:k] for part in w), bound)
        return ExactMatrix(*(np.concatenate([x, np.zeros((m - k, n), x.dtype)]) for x in rows),
                           den=den), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> "ExactMatrix":
        """Columns form a basis of the right kernel."""
        R, pivots = self.rref()
        n = self.ncols
        free = [j for j in range(n) if j not in pivots]
        if not free:
            return ExactMatrix.zeros(n, 0)
        # Column k is e_free[k] minus, at each pivot, row i's entry in free[k].
        cols = range(len(free))
        at_pivots = R.submatrix(range(len(pivots)), free).scattered(pivots, cols, (n, len(free)))
        return ExactMatrix.identity(n).take_cols(free) - at_pivots

    def solve(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Solve self @ X = rhs, free variables set to zero.

        Raises SingularGram if the system is inconsistent.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row mismatch")
        n, k = self.ncols, rhs.ncols
        aug = ExactMatrix.hstack([self, rhs])
        R, pivots = aug.rref()
        if any(p >= n for p in pivots):
            raise SingularGram("inconsistent linear system")
        return R.submatrix(range(len(pivots)), range(n, n + k)).scattered(pivots, range(k), (n, k))

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        R, pivots = ExactMatrix.hstack([self, ExactMatrix.identity(self.nrows)]).rref()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots[: self.nrows]):
            raise SingularGram("matrix is singular")
        return R.take_cols(range(self.nrows, 2 * self.nrows))


def entrywise(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a times b entry by entry, numpy broadcasting every axis, the matrix
    axes included. One elementwise product of the numerator arrays, under
    the bound max|a|*max|b|, which is also the stored peak."""
    bound = _gate_bound(lambda p, q: p * q, _int64_gate(a, b), a, b)
    parts, peak = _bilinear(np.multiply, a._parts(), b._parts(), bound)
    return ExactMatrix(*parts, den=a._den * b._den, _peak=peak)


def _eliminated(col, block):
    """One elimination step of rref: p R - v (x) P, for the pivot row
    P = block[0] and the rows R = block[1:] it clears, whose entries in the
    pivot column are col = [p; v]. Bilinear in (col, block), each value at
    most max|p|*max|R| + max|v|*max|P|."""
    return col[0] * block[1:] - np.outer(col[1:], block[0])


def diagonal_commutator(x: ExactMatrix, left: ExactMatrix | None,
                        right: ExactMatrix | None) -> ExactMatrix:
    """x @ diag(right) - diag(left) @ x member by member, for x of m x n
    members and left, right diagonal columns (..., m, 1) and (..., n, 1),
    None standing for a zero diagonal; batch axes broadcast. Entry (i, j)
    is x[i, j] * (right[j] - left[i]): the diagonals' difference, an m x n
    mask, then one entrywise product and no matrix product (see the module
    docstring)."""
    if right is None:
        return entrywise(x, -left)
    row = right.T
    if left is None:
        return entrywise(x, row)
    re, im, den, bound = _sum(row, left, np.subtract)
    return entrywise(x, ExactMatrix(re, im, den, _normalize=False, _peak=bound))


def regroup(x: ExactMatrix, shape, axes, rows: int, cols: int) -> ExactMatrix:
    """Each member's entries read row-major as an array of the given shape,
    its axes permuted, as a rows x cols matrix; batch axes stay. Moving
    entries keeps x's normalisation, so the result is not normalised
    again."""
    batch = x.batch_shape
    axes = tuple(range(len(batch))) + tuple(len(batch) + a for a in axes)
    return x._moved(lambda a: a.reshape(batch + tuple(shape)).transpose(axes)
                    .reshape(batch + (rows, cols)))


def as_batch(mats) -> ExactMatrix:
    """Equal-shape matrices as one batched matrix whose last batch axis
    runs over them: a list (or any iterable) of matrices is stacked, and a
    batched matrix is taken as it is. The one place a list the package is
    handed becomes a batch."""
    if isinstance(mats, ExactMatrix):
        return mats
    mats = list(mats)
    return ExactMatrix.stack(mats, (len(mats),))


def _kron_terms(lefts, rights):
    """(lefts, rights, r) for sum_k lefts[k] (x) rights[k]: lefts with the
    one batch axis of the r terms, rights with it last."""
    lefts, rights = as_batch(lefts), as_batch(rights)
    if len(lefts.batch_shape) != 1:
        raise ValueError("left factors take one batch axis, over the terms")
    r = lefts.batch_shape[0]
    if rights.batch_shape[-1:] != (r,):
        raise ValueError("need as many right factors as left factors")
    return lefts, rights, r


def kron_sum(lefts, rights) -> ExactMatrix:
    """sum_k lefts[k] (x) rights[k] as one exact product (see the module
    docstring). Each factor list is a list of equal-shape matrices or a
    batched matrix; a batched right factor may carry batch axes before the
    terms' axis, and the result then has them too."""
    lefts, rights, r = _kron_terms(lefts, rights)
    (m, n), (p, q) = lefts.shape, rights.shape
    batch = rights.batch_shape[:-1]
    a = lefts.flattened()
    b = rights.regrouped(batch + (r, p * q), tuple(range(len(batch) + 2)))
    # entry ((i, j), (k, l)) of a^T b is sum_t lefts[t][i, j] * rights[t][k, l]
    return regroup(a.T @ b, (m, n, p, q), (0, 2, 1, 3), m * p, n * q)


def kron_sum_entries(lefts, rights, rows, cols) -> ExactMatrix:
    """The entries of sum_k lefts[k] (x) rights[k] at the given rows and
    columns, the factors taken as kron_sum takes them, gathered from the
    factors without forming the sum (see the module docstring). When rows
    and cols are every index in order, this is kron_sum."""
    lefts, rights, r = _kron_terms(lefts, rights)
    (m, n), (p, q) = lefts.shape, rights.shape
    rows, cols = _checked_indices(rows, m * p), _checked_indices(cols, n * q)
    if (rows.size == m * p and cols.size == n * q
            and (rows == np.arange(m * p)).all() and (cols == np.arange(n * q)).all()):
        return kron_sum(lefts, rights)
    (i, k), (j, l) = np.divmod(rows, p), np.divmod(cols, q)

    def summed(x, y):
        # sum_t x[t][i, j] * y[..., t][k, l] at every (row, column)
        total = x[0][i[:, None], j] * y[..., 0, k[:, None], l]
        for t in range(1, r):
            total += x[t][i[:, None], j] * y[..., t, k[:, None], l]
        return total

    bound = _gate_bound(lambda p, q: r * p * q, _int64_gate(lefts, rights), lefts, rights)
    parts, peak = _bilinear(summed, lefts._parts(), rights._parts(), bound)
    return ExactMatrix(*parts, den=lefts._den * rights._den, _peak=peak)


def times_kron_identity(mat: ExactMatrix, x: ExactMatrix, s: int, left: bool) -> ExactMatrix:
    """mat @ (x (x) I_s) when left is true and mat @ (I_s (x) x) otherwise,
    as one exact product with inner dimension x.nrows, without forming the
    Kronecker product (see the module docstring)."""
    h, q = x.shape
    r = mat.nrows
    if mat.ncols != h * s:
        raise ValueError("matrix columns do not match the Kronecker product")
    # for x (x) I_s, column (t, v) of row i moves to column t of row (i, v),
    # and column j of row (i, v) of the product back to column (j, v) of row
    # i; for I_s (x) x, column (v, t) of row i already is column t of row
    # (i, v) in row-major order, and so is the way back
    shape, axes = ((r, h, s), (0, 2, 1)) if left else ((r, s, h), (0, 1, 2))
    folded = regroup(mat, shape, axes, r * s, h)
    return regroup(folded @ x, (r, s, q), axes, r, q * s)


def kron_identity_entries(x, s: int, left: bool, rows, cols):
    """The entries of x (x) I_s (left) or I_s (x) x (otherwise) at the given
    rows and columns, gathered from x without forming the Kronecker product
    (see the module docstring). Every member of a batched x is read by the
    one gather, into a result of the same batch shape."""
    p, q = x._re.shape[-2:]
    rows, cols = _checked_indices(rows, p * s), _checked_indices(cols, q * s)
    if left:
        (a, u), (b, v) = np.divmod(rows, s), np.divmod(cols, s)
    else:
        (u, a), (v, b) = np.divmod(rows, p), np.divmod(cols, q)
    # only the entries where u = v can be nonzero, one in s of all
    hit_rows, hit_cols = np.nonzero(u[:, None] == v[None, :])
    at = Ellipsis, a[hit_rows], b[hit_cols]

    def gathered(part):
        out = np.zeros(part.shape[:-2] + (rows.size, cols.size), part.dtype)
        out[..., hit_rows, hit_cols] = part[at]
        return out

    return ExactMatrix(*map(gathered, x._parts()), den=x._den, _peak=x._peak)


def gram_adjoint(t: ExactMatrix, gram_dom: ExactMatrix, gram_cod: ExactMatrix) -> ExactMatrix:
    """Adjoint of t : dom -> cod for the inner products <x|y> = x^H G y.

    Solves G_dom @ t_adj = t^H @ G_cod, so <t x | y>_cod = <x | t_adj y>_dom
    holds identically. G_dom must be invertible.
    """
    if t.nrows != gram_cod.nrows or t.ncols != gram_dom.nrows:
        raise ValueError("shape mismatch between map and Gram matrices")
    return gram_dom.inverse() @ t.H @ gram_cod


def psd_check(G: ExactMatrix):
    """Exact positive-semidefiniteness test for a Hermitian matrix: raises
    NotHermitian for any other matrix, and is hermitian_psd_check
    otherwise."""
    if not G.is_hermitian():
        raise NotHermitian("psd_check requires a Hermitian matrix")
    return hermitian_psd_check(G)


def hermitian_psd_check(G: ExactMatrix):
    """Exact positive-semidefiniteness test for a matrix already known to
    be Hermitian, which is not tested again (psd_check tests it).

    Returns (True, None) when x^H G x >= 0 for every vector x, otherwise
    (False, w) with an explicit witness vector w (list of GaussianRational)
    such that w^H G w < 0. Pivoted LDL^H over the rationals; no floats.
    The diagonal and the off-diagonal scan are read as array tests on the
    numerators, whose order and signs are those of the entries (the
    denominator is positive); ties go to the smallest index.
    """
    work = G
    events = []  # ("swap", i) and ("pivot", d, b) in execution order
    witness = None
    while True:
        m = work.nrows
        if m == 0:
            return True, None
        if not work._real and work._im.diagonal().any():
            raise NotHermitian("non-real diagonal")
        diag = work._re.diagonal()
        # most-negative diagonal entry is an immediate witness
        lo = int(np.argmin(diag))
        if diag[lo] < 0:
            witness = [GaussianRational() for _ in range(m)]
            witness[lo] = GaussianRational(1)
            break
        hi = int(np.argmax(diag))
        if diag[hi] == 0:
            # all diagonals vanish; any nonzero off-diagonal certifies
            # failure, the first one above the diagonal in row-major order
            nonzero = work._re != 0
            if not work._real:
                nonzero |= work._im != 0
            off = np.argwhere(np.triu(nonzero, 1))
            if not len(off):
                return True, None
            i, j = (int(x) for x in off[0])
            a = work[i, j]
            witness = [GaussianRational() for _ in range(m)]
            witness[i] = -a
            witness[j] = GaussianRational(1)
            break
        # pivot: swap position hi to the front, split, form Schur complement
        if hi != 0:
            perm = list(range(m))
            perm[0], perm[hi] = perm[hi], perm[0]
            work = work.submatrix(perm, perm)
            events.append(("swap", hi))
        d = work[0, 0]
        rest = list(range(1, m))
        b = work.submatrix(rest, [0])
        C = work.submatrix(rest, rest)
        events.append(("pivot", d, b))
        # d is the largest diagonal entry, so real and positive
        work = C - (b @ b.H).scale(1 / d.re)
    # lift the witness back through the pivots, undoing swaps as they appear
    for ev in reversed(events):
        if ev[0] == "pivot":
            _, d, b = ev
            y = ExactMatrix.from_rows([[w] for w in witness])
            t = -(b.H @ y)[0, 0] / d
            witness = [t] + witness
        else:
            hi = ev[1]
            witness[0], witness[hi] = witness[hi], witness[0]
    w = ExactMatrix.from_rows([[v] for v in witness])
    val = (w.H @ G @ w)[0, 0]
    if not (val.is_real and val.re < 0):
        raise AssertionError("internal error: psd witness failed exact recheck")
    return False, witness


class GramStack:
    """An algebra-valued sesquilinear form on C^dim.

    Stored as one scalar Gram matrix per coordinate of the (commutative)
    target algebra, held as one batched matrix grams of shape
    (num_coords, dim, dim): <x|y> has c-th coordinate x^H grams[c] y. Built
    from a list of coordinate Grams or from such a batched matrix.
    """

    __slots__ = ("grams",)

    def __init__(self, coords):
        coords = as_batch(coords)
        if len(coords.batch_shape) != 1 or coords.nrows != coords.ncols:
            raise ValueError("coordinate Gram matrices must be square and equal-size")
        if not coords.batch_shape[0]:
            raise ValueError("need at least one coordinate matrix")
        self.grams = coords

    @property
    def dim(self) -> int:
        return self.grams.nrows

    @property
    def num_coords(self) -> int:
        return self.grams.batch_shape[0]

    @property
    def coords(self) -> list:
        """The coordinate Grams, one matrix each."""
        return list(self.grams)

    def pairs(self, x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
        """The algebra elements <x_i|y_j> for every column x_i of x and y_j
        of y, as the columns (i, j), i slowest, of a num_coords x
        (x.ncols * y.ncols) matrix.

        Two exact products: the Grams read as one (num_coords * dim) x dim
        matrix times y, whose row (c, k) is row k of grams[c] @ y, regrouped
        into a dim x (num_coords * y.ncols) matrix; x^H times that,
        regrouped into the result."""
        if x.nrows != self.dim or y.nrows != self.dim:
            raise ValueError("pairs takes vectors of the form's dimension")
        d, n, a, b = self.num_coords, self.dim, x.ncols, y.ncols
        column = self.grams.regrouped((d * n, n), (0, 1))
        gy = regroup(column @ y, (d, n, b), (1, 0, 2), n, d * b)
        return regroup(x.H @ gy, (a, d, b), (1, 0, 2), d, a * b)

    def column_pairs(self, x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
        """The algebra elements <x_k|y_k> for every column k of x and of y,
        as the columns of a num_coords x ncols matrix: the columns (k, k) of
        pairs(x, y) without the others. The Grams times y in one batched
        exact product, each coordinate's block times conj(x) entry by
        entry, then the column sums of every block as one product with a
        row of ones."""
        if x.shape != y.shape or x.nrows != self.dim:
            raise ValueError("column_pairs takes two equal-shape matrices of the form's dimension")
        n = self.dim
        ones = ExactMatrix(np.ones((1, n), np.int64), None, _normalize=False, _peak=min(n, 1),
                           _exact=True)
        return (ones @ entrywise(x.conj(), self.grams @ y)).flattened()

    def scalarized(self) -> ExactMatrix:
        """The scalar Gram obtained by the coordinate-sum trace."""
        ones = ExactMatrix(np.ones((self.num_coords, 1), np.int64), None, _normalize=False,
                           _peak=1, _exact=True)
        return self.grams.combine(ones).take((1,), 0)

    def restrict(self, idx) -> "GramStack":
        return GramStack(self.grams.submatrix(idx, idx))

    def transform(self, matrix: ExactMatrix) -> "GramStack":
        """Push the form through a linear map of target algebras.

        Coordinate c of the result is sum_k matrix[c, k] * grams[k].
        """
        if matrix.ncols != self.num_coords:
            raise ValueError("coordinate count mismatch")
        return GramStack(self.grams.combine(matrix.T))

    def __eq__(self, other):
        if not isinstance(other, GramStack):
            return NotImplemented
        return self.grams == other.grams
