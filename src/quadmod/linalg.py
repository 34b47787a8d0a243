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
  sum is provably at most 2^53 and the product is large enough for BLAS to
  beat numpy's int64 loop. A dot product of k integer terms, each at most
  a*b in magnitude, has every partial sum at most k*a*b in magnitude,
  whatever order the terms are added in and whether or not they are fused
  multiply-adds. Every integer of magnitude at most 2^53 is a float64, so
  each product, each partial sum and the result are exact. Floats carry
  only such integers, never approximations.

Most matrices the checks form are real, and an ExactMatrix records whether
its imaginary part is zero. Real operands take real arithmetic: one integer
product instead of four, one outer product per kron. The one product kernel
multiplies integer arrays: a product of real matrices with inner dimension
k is one such product under the bound k*max|A|*max|B|, and a complex product
is the one stacked real product [[Are, -Aim], [Aim, Are]] @ [Bre; Bim],
whose inner dimension 2k gives the bound 2k*max|A|*max|B|.

A linear combination sum_k c_k M_k over a fixed family of matrices is one
such product too. MatrixFamily flattens the numerators of the family, once,
into one integer matrix F over one denominator, one row per member; the
combination is then the coefficient row times F, reshaped back into the
members' blocks. Its inner dimension is the number r of members, so it
takes the float64 product under the bound r*max|c|*max|F| (doubled for
complex operands, as above), int64 under 2^62 and big integers otherwise.
Several combinations, one per coefficient column, share the product.

Kronecker-structured products are one such product each as well; no
Kronecker product is formed only to be summed or multiplied:

* kron_sum(lefts, rights) = sum_k A_k (x) B_k over r pairs, with the A_k
  m x n and the B_k p x q. Flattened as MatrixFamily flattens a family, the
  A_k make an r x mn integer matrix A and the B_k an r x pq one B, each over
  its lcm denominator. Entry ((i, j), (k, l)) of A^T B is the sum's entry
  ((i, k), (j, l)), so regrouping the axes (m, n, p, q) of A^T B into
  (m, p, n, q) gives the mp x nq result. Its inner dimension is r, so its
  bound is r*max|A|*max|B|.
* times_kron_identity(mat, x, s) = mat @ (x (x) I_s), with x h x q. The
  r x (h s) matrix mat is regrouped into an (r s) x h one, multiplied by x
  once, and the (r s) x q product is regrouped back into r x (q s). Its
  inner dimension is h, not h*s, so its bound h*max|mat|*max|x| is s times
  smaller than that of the product with x (x) I_s, which is never formed.
* identity_kron_times(s, x, mat) = (I_s (x) x) @ mat, with x a x h, is the
  mirror image: the (s h) x n matrix mat is regrouped into h x (s n), x
  times it is regrouped back into (s a) x n, and the bound is
  h*max|x|*max|mat|.

The bounds double for complex operands, and every product goes through
ExactMatrix @, so each takes the float64, int64 or big-integer path as
above. Regrouping only moves entries, so each kernel normalises once, in
its product. GramStack.pair reads an algebra-valued inner product the same
way: <x|y> = (x^H G_c y)_c is the coordinate Grams, stacked once into one
(d n) x n matrix, times y, read as a d x n matrix, times conj(x).

The module also provides deterministic reduced row echelon form, kernel and
solve built on it, and Gram-form utilities: exact positive-semidefiniteness
with a rational negativity witness, and adjoints of linear maps with respect
to possibly non-standard inner products.
"""

from __future__ import annotations

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

# Smallest m*k*n sent to the float64 product. Below it the stacking copies
# can cost more than numpy's int64 matmul loop saves: on a 2-CPU x86-64 host
# with OpenBLAS 0.3.31 the float path won on every shape measured from 2048
# up, and lost on some between 1000 and 2048 (6x36x6, 1x36x36).
_FLOAT_MIN_WORK = 2048


class NotHermitian(ValueError):
    """Raised when an operation requires a Hermitian matrix."""


class SingularGram(ValueError):
    """Raised when a Gram matrix that must be invertible is not."""


# _gcd_reduce and _max_abs work on int64 and on object (Python int) arrays
# alike.
def _gcd_reduce(arr) -> int:
    return int(np.gcd.reduce(np.abs(arr), axis=None)) if arr.size else 0


def _max_abs(arr) -> int:
    return int(np.abs(arr).max()) if arr.size else 0


def _demote(arr):
    """Drop an object array back to int64 when its values fit."""
    if arr.dtype == object and _max_abs(arr) <= _INT64_SAFE:
        return arr.astype(np.int64)
    return arr


def _to_object(arr):
    return arr if arr.dtype == object else arr.astype(object)


def _common(bound: int, *arrays):
    """The arrays unchanged when all are int64 and bound is at most
    _INT64_SAFE; otherwise all of them as object arrays."""
    if bound <= _INT64_SAFE and all(a.dtype != object for a in arrays):
        return arrays
    return tuple(_to_object(a) for a in arrays)


def _rmul(a, b):
    """a @ b for integer arrays, exact on every path."""
    m, k = a.shape
    n = b.shape[1]
    bound = k * _max_abs(a) * _max_abs(b)
    if (a.dtype != object and b.dtype != object
            and bound <= _FLOAT_EXACT and m * k * n >= _FLOAT_MIN_WORK):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    a, b = _common(bound, a, b)
    return a @ b


def _int_array(values, shape):
    """Python ints as an int64 array when every value is at most _INT64_SAFE
    in magnitude, otherwise as an object array."""
    fits = max(map(abs, values), default=0) <= _INT64_SAFE
    return np.array(values, dtype=np.int64 if fits else object).reshape(shape)


def _cmul(are, aim, bre, bim):
    """(are + i aim) @ (bre + i bim) as the one real product
    [[Are, -Aim], [Aim, Are]] @ [Bre; Bim] = [Re; Im], whose inner dimension
    is 2k."""
    a = np.vstack([np.hstack([are, -aim]), np.hstack([aim, are])])
    c = _rmul(a, np.vstack([bre, bim]))
    m = are.shape[0]
    return c[:m], c[m:]


def _product(a: "ExactMatrix", b: "ExactMatrix"):
    """Numerator arrays of a @ b, over the denominator a._den * b._den."""
    if a._real and b._real:
        re = _rmul(a._re, b._re)
        return re, np.zeros(re.shape, np.int64)
    return _cmul(a._re, a._im, b._re, b._im)


class ExactMatrix:
    """Matrix over the Gaussian rationals with a shared denominator.

    _real is true when the imaginary part is zero; the imaginary part is
    then an int64 zero array."""

    __slots__ = ("_re", "_im", "_den", "_real")

    def __init__(self, re, im, den: int = 1, _normalize: bool = True):
        re = np.asarray(re)
        im = np.asarray(im)
        if re.shape != im.shape or re.ndim != 2:
            raise ValueError("real and imaginary parts must be equal-shape 2d arrays")
        if den <= 0:
            raise ValueError("denominator must be positive")
        # Stored arrays are never written in place, so an int64 array is
        # kept as handed over rather than copied.
        if re.dtype != object:
            re = re.astype(np.int64, copy=False)
        if im.dtype != object:
            im = im.astype(np.int64, copy=False)
        self._real = not im.any()
        self._re = re
        self._im = im
        self._den = int(den)
        if _normalize:
            self._normalize()

    def _normalize(self):
        # Stop as soon as the gcd reaches 1; a real matrix has no imaginary
        # part to take it from.
        g = self._den
        if g > 1:
            g = math.gcd(g, _gcd_reduce(self._re))
        if g > 1 and not self._real:
            g = math.gcd(g, _gcd_reduce(self._im))
        if g > 1:
            re, im = _common(g, self._re, self._im)
            self._re = re // g
            self._im = im // g
            self._den //= g
        self._re = _demote(self._re)
        self._im = _demote(self._im)

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
    def zeros(cls, m: int, n: int) -> "ExactMatrix":
        return cls(np.zeros((m, n), dtype=np.int64), np.zeros((m, n), dtype=np.int64), 1, _normalize=False)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64), 1, _normalize=False)

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        return cls.column(values).to_diagonal()

    @classmethod
    def column(cls, values) -> "ExactMatrix":
        return cls.from_rows([[v] for v in values])

    def to_diagonal(self) -> "ExactMatrix":
        """The square diagonal matrix whose diagonal is this column."""
        if self.ncols != 1:
            raise ValueError("only a column has a diagonal matrix")
        return ExactMatrix(np.diagflat(self._re), np.diagflat(self._im), self._den, _normalize=False)

    def diagonal_column(self) -> "ExactMatrix":
        """The diagonal of a square matrix, as a column."""
        if self.nrows != self.ncols:
            raise ValueError("only a square matrix has a diagonal")
        return ExactMatrix(np.diag(self._re)[:, None], np.diag(self._im)[:, None], self._den)

    def is_diagonal(self) -> bool:
        off = ~np.eye(*self.shape, dtype=bool)
        return not (self._re[off].any() or self._im[off].any())

    # -- basics ----------------------------------------------------------

    @property
    def shape(self):
        return self._re.shape

    @property
    def nrows(self) -> int:
        return self._re.shape[0]

    @property
    def ncols(self) -> int:
        return self._re.shape[1]

    def __getitem__(self, key) -> GaussianRational:
        i, j = key
        return GaussianRational(
            Fraction(int(self._re[i, j]), self._den),
            Fraction(int(self._im[i, j]), self._den),
        )

    def to_rows(self):
        return [[self[i, j] for j in range(self.ncols)] for i in range(self.nrows)]

    def integer_rows(self):
        """The entries as nested lists of ints, or None when some entry is
        not an integer."""
        if self._den != 1 or not self._real:
            return None
        return self._re.tolist()

    def is_zero(self) -> bool:
        return self._real and not self._re.any()

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and self._den == other._den
            and bool(np.array_equal(self._re, other._re))
            and bool(np.array_equal(self._im, other._im))
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is unhashable")

    def __repr__(self):
        return f"ExactMatrix({self.nrows}x{self.ncols}, den={self._den})"

    # -- arithmetic ------------------------------------------------------

    def _scaled_to(self, den: int):
        """Numerator arrays rescaled to the given common denominator."""
        f = den // self._den
        if f == 1:
            return self._re, self._im
        # f itself must fit too: an int64 array times a bigint raises even
        # when the array is zero.
        if self._real:
            re, = _common(f * max(_max_abs(self._re), 1), self._re)
            return re * f, self._im
        bound = f * max(_max_abs(self._re), _max_abs(self._im), 1)
        re, im = _common(bound, self._re, self._im)
        return re * f, im * f

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        den = self._den * other._den // math.gcd(self._den, other._den)
        are, aim = self._scaled_to(den)
        bre, bim = other._scaled_to(den)
        if self._real and other._real:
            are, bre = _common(_max_abs(are) + _max_abs(bre), are, bre)
            return ExactMatrix(are + bre, aim, den)
        bound = max(_max_abs(are) + _max_abs(bre), _max_abs(aim) + _max_abs(bim))
        are, aim, bre, bim = _common(bound, are, aim, bre, bim)
        return ExactMatrix(are + bre, aim + bim, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExactMatrix(-self._re, -self._im, self._den, _normalize=False)

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("inner dimension mismatch")
        if self.ncols == 0:
            return ExactMatrix.zeros(self.nrows, other.ncols)
        return ExactMatrix(*_product(self, other), self._den * other._den)

    def scale(self, c) -> "ExactMatrix":
        c = GaussianRational.from_value(c)
        q = math.lcm(c.re.denominator, c.im.denominator)
        cre, cim = int(c.re * q), int(c.im * q)
        if self._real and not cim:
            re, = _common(max(_max_abs(self._re), 1) * abs(cre), self._re)
            return ExactMatrix(cre * re, self._im, self._den * q)
        # The factor must fit as well as the products (see _scaled_to).
        bound = 2 * max(_max_abs(self._re), _max_abs(self._im), 1) * max(abs(cre), abs(cim))
        re, im = _common(bound, self._re, self._im)
        return ExactMatrix(cre * re - cim * im, cre * im + cim * re, self._den * q)

    def conj(self) -> "ExactMatrix":
        return ExactMatrix(self._re, -self._im, self._den, _normalize=False)

    @property
    def T(self) -> "ExactMatrix":
        return ExactMatrix(self._re.T.copy(), self._im.T.copy(), self._den, _normalize=False)

    @property
    def H(self) -> "ExactMatrix":
        return ExactMatrix(self._re.T.copy(), -self._im.T.copy(), self._den, _normalize=False)

    def is_hermitian(self) -> bool:
        return self == self.H

    # -- shaping ---------------------------------------------------------

    def take_rows(self, idx) -> "ExactMatrix":
        idx = list(idx)
        return ExactMatrix(self._re[idx, :], self._im[idx, :], self._den)

    def take_cols(self, idx) -> "ExactMatrix":
        idx = list(idx)
        return ExactMatrix(self._re[:, idx], self._im[:, idx], self._den)

    def submatrix(self, rows, cols) -> "ExactMatrix":
        rows, cols = list(rows), list(cols)
        return ExactMatrix(
            self._re[np.ix_(rows, cols)], self._im[np.ix_(rows, cols)], self._den
        )

    @staticmethod
    def _joined(mats, join) -> "ExactMatrix":
        mats = list(mats)
        den = math.lcm(*(m._den for m in mats))
        parts = _common(0, *(a for m in mats for a in m._scaled_to(den)))
        return ExactMatrix(join(parts[0::2]), join(parts[1::2]), den)

    @staticmethod
    def hstack(mats) -> "ExactMatrix":
        return ExactMatrix._joined(mats, np.hstack)

    @staticmethod
    def vstack(mats) -> "ExactMatrix":
        return ExactMatrix._joined(mats, np.vstack)

    @staticmethod
    def block_diag(mats) -> "ExactMatrix":
        mats = list(mats)
        m = sum(x.nrows for x in mats)
        n = sum(x.ncols for x in mats)
        out = ExactMatrix.zeros(m, n)
        r = c = 0
        for x in mats:
            out = out.set_block(r, c, x)
            r += x.nrows
            c += x.ncols
        return out

    def set_block(self, i: int, j: int, block: "ExactMatrix") -> "ExactMatrix":
        """Return a copy with the block written at row i, column j."""
        den = math.lcm(self._den, block._den)
        are, aim, bre, bim = _common(0, *self._scaled_to(den), *block._scaled_to(den))
        are, aim = are.copy(), aim.copy()
        are[i : i + block.nrows, j : j + block.ncols] = bre
        aim[i : i + block.nrows, j : j + block.ncols] = bim
        return ExactMatrix(are, aim, den)

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        if self._real and other._real:
            a, b = _common(_max_abs(self._re) * _max_abs(other._re), self._re, other._re)
            (m, n), (p, q) = a.shape, b.shape
            re = (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)
            return ExactMatrix(re, np.zeros(re.shape, np.int64), self._den * other._den)
        bound = 2 * max(_max_abs(self._re), _max_abs(self._im)) * max(
            _max_abs(other._re), _max_abs(other._im)
        )
        a_re, a_im, b_re, b_im = _common(bound, self._re, self._im, other._re, other._im)
        re = np.kron(a_re, b_re) - np.kron(a_im, b_im)
        im = np.kron(a_re, b_im) + np.kron(a_im, b_re)
        return ExactMatrix(re, im, self._den * other._den)

    # -- elimination -----------------------------------------------------

    def rref(self):
        """Reduced row echelon form.

        Returns (R, pivots) where R is an ExactMatrix with unit pivots and
        pivots is a tuple of pivot column indices. Pivot choice is
        deterministic: scan columns left to right, take the nonzero entry
        with the smallest row index. Elimination is fraction-free and rows
        stay integer; only the final scaling introduces the one shared
        denominator.
        """
        m, n = self.shape
        wre, wim = (a.copy() for a in _common(0, self._re, self._im))
        pivots = []
        r = 0
        for c in range(n):
            if r == m:
                break
            pr = -1
            for i in range(r, m):
                if wre[i, c] or wim[i, c]:
                    pr = i
                    break
            if pr < 0:
                continue
            if pr != r:
                wre[[r, pr], :] = wre[[pr, r], :]
                wim[[r, pr], :] = wim[[pr, r], :]
            pre, pim = wre[r, c], wim[r, c]
            mask = (wre[:, c] != 0) | (wim[:, c] != 0)
            mask[r] = False
            touched = np.nonzero(mask)[0]
            if touched.size:
                sub_re = wre[touched]
                sub_im = wim[touched]
                vre = wre[touched, c]
                vim = wim[touched, c]
                prow_re = wre[r, :]
                prow_im = wim[r, :]
                mp = max(abs(int(pre)), abs(int(pim)))
                msub = max(_max_abs(sub_re), _max_abs(sub_im))
                mv = max(_max_abs(vre), _max_abs(vim))
                mprow = max(_max_abs(prow_re), _max_abs(prow_im))
                if 2 * mp * msub + 2 * mv * mprow > _INT64_SAFE and wre.dtype != object:
                    wre, wim = _to_object(wre), _to_object(wim)
                    sub_re, sub_im = _to_object(sub_re), _to_object(sub_im)
                    vre, vim = _to_object(vre), _to_object(vim)
                    prow_re, prow_im = _to_object(prow_re), _to_object(prow_im)
                    pre, pim = wre[r, c], wim[r, c]
                new_re = pre * sub_re - pim * sub_im - (np.outer(vre, prow_re) - np.outer(vim, prow_im))
                new_im = pre * sub_im + pim * sub_re - (np.outer(vre, prow_im) + np.outer(vim, prow_re))
                g = np.gcd(
                    np.gcd.reduce(np.abs(new_re), axis=1),
                    np.gcd.reduce(np.abs(new_im), axis=1),
                )
                g[g == 0] = 1
                new_re //= g[:, None]
                new_im //= g[:, None]
                wre[touched] = new_re
                wim[touched] = new_im
            pivots.append(c)
            r += 1
        # Divide pivot row i by its pivot p_i = row * conj(p_i) / |p_i|^2,
        # over the shared denominator D = lcm |p_i|^2.
        k = len(pivots)
        piv_re = [int(wre[i, c]) for i, c in enumerate(pivots)]
        piv_im = [int(wim[i, c]) for i, c in enumerate(pivots)]
        norms = [a * a + b * b for a, b in zip(piv_re, piv_im)]
        den = math.lcm(*norms)
        f = [den // q for q in norms]
        # The pivot is in its row, so row i's products are at most 2 peak^2 f_i.
        peak = np.maximum(
            np.abs(wre[:k]).max(axis=1, initial=0), np.abs(wim[:k]).max(axis=1, initial=0)
        )
        bound = max((2 * int(p) ** 2 * g for p, g in zip(peak, f)), default=0)
        wre, wim = _common(bound, wre, wim)
        cre = np.array([a * g for a, g in zip(piv_re, f)], dtype=wre.dtype).reshape(k, 1)
        cim = np.array([-b * g for b, g in zip(piv_im, f)], dtype=wre.dtype).reshape(k, 1)
        re, im = np.zeros_like(wre), np.zeros_like(wim)
        re[:k] = cre * wre[:k] - cim * wim[:k]
        im[:k] = cre * wim[:k] + cim * wre[:k]
        return ExactMatrix(re, im, den), tuple(pivots)

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
        shape = (n, len(free))
        kre, kim, rre, rim = _common(
            R._den, np.zeros(shape, np.int64), np.zeros(shape, np.int64), R._re, R._im
        )
        kre[free, range(len(free))] = R._den
        kre[list(pivots)] = -rre[: len(pivots)][:, free]
        kim[list(pivots)] = -rim[: len(pivots)][:, free]
        return ExactMatrix(kre, kim, R._den)

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
        xre, xim = np.zeros((n, k), R._re.dtype), np.zeros((n, k), R._im.dtype)
        xre[list(pivots)] = R._re[: len(pivots), n:]
        xim[list(pivots)] = R._im[: len(pivots), n:]
        return ExactMatrix(xre, xim, R._den)

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        R, pivots = ExactMatrix.hstack([self, ExactMatrix.identity(self.nrows)]).rref()
        if len(pivots) != self.nrows or any(p >= self.nrows for p in pivots[: self.nrows]):
            raise SingularGram("matrix is singular")
        return R.take_cols(range(self.nrows, 2 * self.nrows))


def _flatten(members):
    """The numerators of members M_0, ..., M_{r-1}, each a list of blocks
    with the same shapes in every member, as one r x L ExactMatrix over one
    denominator (row k holds the entries of M_k's blocks, row-major, block
    after block), together with the block shapes."""
    members = [list(m) for m in members]
    if not members or not members[0]:
        raise ValueError("need at least one member with at least one block")
    shapes = [b.shape for b in members[0]]
    if any([b.shape for b in m] != shapes for m in members):
        raise ValueError("members must have blocks of the same shapes")
    den = math.lcm(*(b._den for m in members for b in m))
    scaled = [[b._scaled_to(den) for b in m] for m in members]
    re = [np.concatenate([s[0].ravel() for s in m]) for m in scaled]
    im = [np.concatenate([s[1].ravel() for s in m]) for m in scaled]
    parts = _common(0, *re, *im)
    r = len(members)
    return ExactMatrix(np.stack(parts[:r]), np.stack(parts[r:]), den), shapes


class MatrixFamily:
    """A fixed family of members M_0, ..., M_{r-1}, each a list of blocks
    with the same shapes in every member, ready for linear combinations.

    The numerators of all members are flattened once into one r x L integer
    matrix over one denominator, L being the total size of a member's
    blocks; combine then costs one exact product (see the module docstring).
    """

    __slots__ = ("_flat", "_shapes")

    def __init__(self, members):
        self._flat, self._shapes = _flatten(members)

    def combine(self, coeffs: ExactMatrix) -> list:
        """sum_k coeffs[k, j] * M_k for each column j of coeffs, each as the
        list of its blocks."""
        if coeffs.nrows != self._flat.nrows:
            raise ValueError("coefficient rows do not match the family")
        re, im = _product(coeffs.T, self._flat)
        den = coeffs._den * self._flat._den
        out = []
        for j in range(coeffs.ncols):
            blocks = []
            at = 0
            for p, q in self._shapes:
                cut = slice(at, at + p * q)
                blocks.append(ExactMatrix(re[j, cut].reshape(p, q), im[j, cut].reshape(p, q), den))
                at += p * q
            out.append(blocks)
        return out


def weighted_sum(mats, coeffs: ExactMatrix) -> ExactMatrix:
    """sum_c coeffs[c, 0] * mats[c], for a column vector of coefficients."""
    mats = list(mats)
    if coeffs.shape != (len(mats), 1):
        raise ValueError("coefficient column does not match matrix list")
    return MatrixFamily([m] for m in mats).combine(coeffs)[0][0]


def _permuted(x: ExactMatrix, shape, axes, rows: int, cols: int) -> ExactMatrix:
    """The entries of x read row-major as an array of the given shape, its
    axes permuted, as a rows x cols matrix. Moving entries keeps x's
    normalisation, so the result is not normalised again."""
    re = x._re.reshape(shape).transpose(axes).reshape(rows, cols)
    if x._real:
        return ExactMatrix(re, np.zeros(re.shape, np.int64), x._den, _normalize=False)
    im = x._im.reshape(shape).transpose(axes).reshape(rows, cols)
    return ExactMatrix(re, im, x._den, _normalize=False)


def kron_sum(lefts, rights) -> ExactMatrix:
    """sum_k lefts[k] (x) rights[k] as one exact product (see the module
    docstring); the lefts share one shape, and so do the rights."""
    lefts, rights = list(lefts), list(rights)
    if len(lefts) != len(rights):
        raise ValueError("need as many right factors as left factors")
    a, [(m, n)] = _flatten([x] for x in lefts)
    b, [(p, q)] = _flatten([x] for x in rights)
    # entry ((i, j), (k, l)) of a^T b is sum_t lefts[t][i, j] * rights[t][k, l]
    return _permuted(a.T @ b, (m, n, p, q), (0, 2, 1, 3), m * p, n * q)


def times_kron_identity(mat: ExactMatrix, x: ExactMatrix, s: int) -> ExactMatrix:
    """mat @ (x (x) I_s) as one exact product with inner dimension x.nrows,
    without forming the Kronecker product (see the module docstring)."""
    h, q = x.shape
    r = mat.nrows
    if mat.ncols != h * s:
        raise ValueError("matrix columns do not match the Kronecker product")
    # column (t, v) of row i moves to column t of row (i, v) ...
    folded = _permuted(mat, (r, h, s), (0, 2, 1), r * s, h)
    # ... and column j of row (i, v) of the product back to column (j, v) of row i
    return _permuted(folded @ x, (r, s, q), (0, 2, 1), r, q * s)


def identity_kron_times(s: int, x: ExactMatrix, mat: ExactMatrix) -> ExactMatrix:
    """(I_s (x) x) @ mat as one exact product with inner dimension x.ncols,
    without forming the Kronecker product (see the module docstring)."""
    a, p = x.shape
    n = mat.ncols
    if mat.nrows != s * p:
        raise ValueError("matrix rows do not match the Kronecker product")
    # row (i, t) of mat moves to row t of column block i ...
    folded = _permuted(mat, (s, p, n), (1, 0, 2), p, s * n)
    # ... and row k of column block i of the product back to row (i, k)
    return _permuted(x @ folded, (a, s, n), (1, 0, 2), s * a, n)


def gram_adjoint(t: ExactMatrix, gram_dom: ExactMatrix, gram_cod: ExactMatrix) -> ExactMatrix:
    """Adjoint of t : dom -> cod for the inner products <x|y> = x^H G y.

    Solves G_dom @ t_adj = t^H @ G_cod, so <t x | y>_cod = <x | t_adj y>_dom
    holds identically. G_dom must be invertible.
    """
    if t.nrows != gram_cod.nrows or t.ncols != gram_dom.nrows:
        raise ValueError("shape mismatch between map and Gram matrices")
    return gram_dom.inverse() @ t.H @ gram_cod


def psd_check(G: ExactMatrix):
    """Exact positive-semidefiniteness test for a Hermitian matrix.

    Returns (True, None) when x^H G x >= 0 for every vector x, otherwise
    (False, w) with an explicit witness vector w (list of GaussianRational)
    such that w^H G w < 0. Pivoted LDL^H over the rationals; no floats.
    """
    if not G.is_hermitian():
        raise NotHermitian("psd_check requires a Hermitian matrix")
    work = G
    events = []  # ("swap", i) and ("pivot", d, b) in execution order
    witness = None
    while True:
        m = work.nrows
        if m == 0:
            return True, None
        diag = [work[i, i].re for i in range(m)]
        if any(work[i, i].im for i in range(m)):
            raise NotHermitian("non-real diagonal")
        # most-negative diagonal entry is an immediate witness
        lo = min(range(m), key=lambda i: (diag[i], i))
        if diag[lo] < 0:
            witness = [GaussianRational() for _ in range(m)]
            witness[lo] = GaussianRational(1)
            break
        hi = max(range(m), key=lambda i: (diag[i], -i))
        if diag[hi] == 0:
            # all diagonals vanish; any nonzero off-diagonal certifies failure
            off = None
            for i in range(m):
                for j in range(i + 1, m):
                    if not work[i, j].is_zero:
                        off = (i, j)
                        break
                if off:
                    break
            if off is None:
                return True, None
            i, j = off
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
        work = C - (b @ b.H).scale(GaussianRational(1) / d)
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
    target algebra: <x|y> has c-th coordinate x^H coords[c] y.
    """

    __slots__ = ("coords", "_stacked")

    def __init__(self, coords):
        coords = list(coords)
        if not coords:
            raise ValueError("need at least one coordinate matrix")
        dim = coords[0].nrows
        for g in coords:
            if g.shape != (dim, dim):
                raise ValueError("coordinate Gram matrices must be square and equal-size")
        self.coords = coords
        # the coordinate Grams stacked in one column, built by the first
        # pair; valid for good, as nothing reassigns coords or writes arrays
        self._stacked = None

    @property
    def dim(self) -> int:
        return self.coords[0].nrows

    @property
    def num_coords(self) -> int:
        return len(self.coords)

    def pair(self, x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
        """Algebra element <x|y> of two column vectors, as a column vector.

        Two exact products: the stacked Grams times y, whose row block c is
        coords[c] @ y, read as the rows of a num_coords x dim matrix, times
        conj(x)."""
        if x.shape != (self.dim, 1) or y.shape != (self.dim, 1):
            raise ValueError("pair takes two column vectors of the form's dimension")
        if self._stacked is None:
            self._stacked = ExactMatrix.vstack(self.coords)
        d, n = self.num_coords, self.dim
        return _permuted(self._stacked @ y, (d, n), (0, 1), d, n) @ x.conj()

    def value(self, p: int, q: int) -> ExactMatrix:
        return ExactMatrix.from_rows([[g[p, q]] for g in self.coords])

    def scalarized(self) -> ExactMatrix:
        """The scalar Gram obtained by the coordinate-sum trace."""
        out = self.coords[0]
        for g in self.coords[1:]:
            out = out + g
        return out

    def is_hermitian(self) -> bool:
        return all(g.is_hermitian() for g in self.coords)

    def restrict(self, idx) -> "GramStack":
        idx = list(idx)
        return GramStack([g.submatrix(idx, idx) for g in self.coords])

    def transform(self, matrix: ExactMatrix) -> "GramStack":
        """Push the form through a linear map of target algebras.

        Coordinate c of the result is sum_k matrix[c, k] * coords[k].
        """
        if matrix.ncols != self.num_coords:
            raise ValueError("coordinate count mismatch")
        combos = MatrixFamily([g] for g in self.coords).combine(matrix.T)
        return GramStack(blocks[0] for blocks in combos)

    def __eq__(self, other):
        if not isinstance(other, GramStack):
            return NotImplemented
        return self.coords == other.coords
