import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod import cli, fock, linalg
from quadmod.fock import build_fock
from quadmod.linalg import (
    ExactMatrix,
    GramStack,
    NotDiagonal,
    NotHermitian,
    SingularGram,
    gram_adjoint,
    psd_check,
)
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.scalars import GaussianRational as GR


def F(a, b=1):
    return Fraction(a, b)


def rows_of(m):
    """A single matrix's entries, row by row."""
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def test_scalar_arithmetic():
    a = GR(F(1, 2), F(3, 4))
    b = GR(2, -1)
    assert a + b == GR(F(5, 2), F(-1, 4))
    assert a * b == GR(F(7, 4), 1)
    assert (a / b) * b == a
    assert GR(0, 1) ** 2 == GR(-1)
    assert GR(0, 1) ** 4 == GR(1)
    assert b.abs2() == 5


def test_matrix_roundtrip_and_entries():
    m = ExactMatrix.from_rows([[F(1, 2), GR(0, F(1, 3))], [3, 0]])
    assert m[0, 0] == GR(F(1, 2))
    assert m[0, 1] == GR(0, F(1, 3))
    assert m[1, 0] == GR(3)
    assert rows_of(m)[1][1].is_zero
    rows = [[1, -(2**70)], [0, 3], [1, -(2**70)]]
    assert ExactMatrix.from_rows(rows) == ExactMatrix.from_entries(
        [[(v, 1, 0, 1) for v in row] for row in rows])


def test_matmul_against_scalar_arithmetic():
    rng = random.Random(7)
    for _ in range(25):
        a = [[GR(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
              for _ in range(3)] for _ in range(2)]
        b = [[GR(F(rng.randint(-9, 9), rng.randint(1, 4)), F(rng.randint(-9, 9), rng.randint(1, 4)))
              for _ in range(2)] for _ in range(3)]
        prod = [[sum((a[i][k] * b[k][j] for k in range(3)), GR()) for j in range(2)]
                for i in range(2)]
        got = ExactMatrix.from_rows(a) @ ExactMatrix.from_rows(b)
        assert got == ExactMatrix.from_rows(prod)


def test_add_sub_scale():
    a = ExactMatrix.from_rows([[1, 2], [3, 4]])
    b = ExactMatrix.from_rows([[F(1, 2), 0], [0, F(1, 2)]])
    assert a + b - b == a
    assert a.scale(F(1, 3))[1, 1] == GR(F(4, 3))
    assert (a.scale(GR(0, 1)) @ a.scale(GR(0, 1))) == (a @ a).scale(-1)


def test_big_integer_promotion_stays_exact():
    big = 2**40
    a = ExactMatrix.from_rows([[big, big], [big, big]])
    sq = a @ a
    assert sq[0, 0] == GR(2 * big * big)
    cube = sq @ a
    assert cube[1, 1] == GR(4 * big**3)


def test_hermitian_check():
    h = ExactMatrix.from_rows([[2, GR(0, 1)], [GR(0, -1), 3]])
    assert h.is_hermitian()
    assert not ExactMatrix.from_rows([[0, 1], [0, 0]]).is_hermitian()


def test_rref_frozen_example():
    m = ExactMatrix.from_rows([
        [0, 2, 4, 6],
        [1, 1, 1, 1],
        [2, 2, 2, 3],
    ])
    r, pivots = m.rref()
    assert pivots == (0, 1, 3)
    expected = ExactMatrix.from_rows([
        [1, 0, -1, 0],
        [0, 1, 2, 0],
        [0, 0, 0, 1],
    ])
    assert r == expected


def test_rref_complex_pivot_scaling():
    m = ExactMatrix.from_rows([[GR(0, 2), 2]])
    r, pivots = m.rref()
    assert pivots == (0,)
    assert r[0, 0] == GR(1)
    assert r[0, 1] == GR(0, -1)


def test_rank_kernel_solve_inverse():
    m = ExactMatrix.from_rows([
        [1, 2, 3],
        [2, 4, 6],
        [1, 0, 1],
    ])
    assert m.rank() == 2
    k = m.kernel_basis()
    assert k.shape == (3, 1)
    assert (m @ k).is_zero()

    a = ExactMatrix.from_rows([[2, 1], [1, 1]])
    inv = a.inverse()
    assert a @ inv == ExactMatrix.identity(2)
    assert inv == ExactMatrix.from_rows([[1, -1], [-1, 2]])

    rhs = ExactMatrix.from_rows([[1], [0]])
    x = a.solve(rhs)
    assert a @ x == rhs

    singular = ExactMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularGram):
        singular.inverse()
    with pytest.raises(SingularGram):
        singular.solve(ExactMatrix.from_rows([[1], [0]]))


def test_kernel_random_consistency():
    rng = random.Random(11)
    for _ in range(30):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [[GR(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(cols)]
             for _ in range(rows)]
        )
        k = m.kernel_basis()
        assert m.rank() + k.ncols == cols
        if k.ncols:
            assert (m @ k).is_zero()


def test_kron_mixed_product():
    a = ExactMatrix.from_rows([[1, GR(0, 1)], [0, 2]])
    b = ExactMatrix.from_rows([[3, 1], [1, 0]])
    c = ExactMatrix.from_rows([[1, 1], [0, GR(0, -1)]])
    d = ExactMatrix.from_rows([[2, 0], [1, 1]])
    assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_gram_adjoint_frozen_example():
    # one-step shift on a 2-dim space where the second basis vector has
    # squared length 2: the adjoint picks up the 1/2 weight
    t = ExactMatrix.from_rows([[0, 1], [0, 0]])
    g = ExactMatrix.column([1, 2]).to_diagonal()
    adj = gram_adjoint(t, g, g)
    assert adj == ExactMatrix.from_rows([[0, 0], [F(1, 2), 0]])


def test_gram_adjoint_defining_property():
    rng = random.Random(3)
    g_dom = ExactMatrix.from_rows([[2, GR(0, 1)], [GR(0, -1), 3]])
    g_cod = ExactMatrix.column([1, F(1, 2), 4]).to_diagonal()
    for _ in range(10):
        t = ExactMatrix.from_rows(
            [[GR(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(2)]
             for _ in range(3)]
        )
        adj = gram_adjoint(t, g_dom, g_cod)
        # <t x | y>_cod = <x | adj y>_dom for all x, y comes down to
        # t^H G_cod == G_dom adj
        assert t.H @ g_cod == g_dom @ adj


def test_gram_adjoint_requires_invertible_domain():
    t = ExactMatrix.identity(2)
    g = ExactMatrix.from_rows([[1, 1], [1, 1]])
    with pytest.raises(SingularGram):
        gram_adjoint(t, g, ExactMatrix.identity(2))


def test_psd_check_accepts():
    ok, w = psd_check(ExactMatrix.identity(3))
    assert ok and w is None
    ok, _ = psd_check(ExactMatrix.zeros(2, 2))
    assert ok
    ok, _ = psd_check(ExactMatrix.from_rows([[2, GR(0, 1)], [GR(0, -1), 2]]))
    assert ok
    # rank-one projector built from (1, i)
    ok, _ = psd_check(ExactMatrix.from_rows([[1, GR(0, -1)], [GR(0, 1), 1]]))
    assert ok


def _assert_negative_witness(g, w):
    col = ExactMatrix.from_rows([[v] for v in w])
    val = (col.H @ g @ col)[0, 0]
    assert val.is_real and val.re < 0


def test_psd_check_rejects_with_witness():
    g1 = ExactMatrix.from_rows([[1, 2], [2, 1]])
    ok, w = psd_check(g1)
    assert not ok
    _assert_negative_witness(g1, w)

    g2 = ExactMatrix.from_rows([[0, 1], [1, 0]])
    ok, w = psd_check(g2)
    assert not ok
    _assert_negative_witness(g2, w)

    g3 = ExactMatrix.from_rows([[-1]])
    ok, w = psd_check(g3)
    assert not ok
    _assert_negative_witness(g3, w)

    g4 = ExactMatrix.from_rows([
        [1, 0, 2],
        [0, 1, 0],
        [2, 0, 1],
    ])
    ok, w = psd_check(g4)
    assert not ok
    _assert_negative_witness(g4, w)

    # zero diagonal with complex off-diagonal entry
    g5 = ExactMatrix.from_rows([[0, GR(0, 1)], [GR(0, -1), 0]])
    ok, w = psd_check(g5)
    assert not ok
    _assert_negative_witness(g5, w)


def test_psd_check_random_diagonal_congruence():
    # congruences of diagonal matrices have known signature
    rng = random.Random(19)
    for trial in range(20):
        n = rng.randint(1, 4)
        diag = [rng.choice([0, 1, 2, 3]) for _ in range(n)]
        if trial % 2:
            diag[rng.randrange(n)] = -rng.randint(1, 3)
        d = ExactMatrix.column(diag).to_diagonal()
        u = ExactMatrix.from_rows(
            [[GR(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(n)]
             for _ in range(n)]
        )
        while u.rank() < n:
            u = u + ExactMatrix.identity(n)
        g = u.H @ d @ u
        ok, w = psd_check(g)
        assert ok == all(v >= 0 for v in diag)
        if not ok:
            _assert_negative_witness(g, w)


def test_psd_check_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        psd_check(ExactMatrix.from_rows([[0, 1], [0, 0]]))


# -- bigint factors on int64 arrays --------------------------------------

TINY = Fraction(1, 2**63 + 1)


@pytest.mark.parametrize(
    "build, entry, value",
    [
        (lambda t: ExactMatrix.zeros(1, 1) + t, (0, 0), TINY),
        (lambda t: ExactMatrix.zeros(1, 1).scale(Fraction(2**64)), (0, 0), 0),
        (lambda t: ExactMatrix.hstack([ExactMatrix.zeros(1, 1), t]), (0, 1), TINY),
        # a zero matrix over a bigint denominator reduces to denominator 1
        (lambda t: ExactMatrix.zeros(1, 1).scale(Fraction(1, 2**64)), (0, 0), 0),
    ],
    ids=["add", "scale", "hstack", "normalize"],
)
def test_bigint_factors_promote_instead_of_overflowing(build, entry, value):
    assert build(ExactMatrix.column([TINY]).to_diagonal())[entry] == GR(value)


def test_rref_with_bigint_real_and_int64_imaginary_parts():
    a = ExactMatrix.from_rows([[GR(2**70, 1), 1], [GR(0, 2**40), 1]])
    r, pivots = a.rref()
    assert pivots == (0, 1)
    assert r == ExactMatrix.identity(2)
    assert a @ a.inverse() == ExactMatrix.identity(2)


# -- matmul against an object-dtype reference ----------------------------


def _object_product(are, aim, bre, bim):
    are, aim, bre, bim = (x.astype(object) for x in (are, aim, bre, bim))
    return are @ bre - aim @ bim, are @ bim + aim @ bre


@st.composite
def gated_operands(draw):
    """Integer operands whose product bound 2*k*max|A|*max|B| is 2^53, just
    above it, or 2^56, over shapes from a single entry to 24 x 32 x 24."""
    j = draw(st.integers(0, 5))
    k = 2**j
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    p = (52 - j) // 2
    b = 2 ** (52 - j - p)
    # 2^p puts the bound at 2^53; the others take the int64 path, and the
    # last makes odd partial sums above 2^53 that a float64 would round
    a = draw(st.sampled_from([2**p, 2**p + 1, 2 ** (p + 3) - 1]))
    # entries near the maximum with aligned signs make large, odd partial sums
    aligned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(shape, top, sign):
        return sign * rng.integers(top // 2 if aligned else -top, top, shape, endpoint=True)

    are, aim = part((m, k), a, 1), part((m, k), a, 1)
    bre, bim = part((k, n), b, 1), part((k, n), b, -1)
    are[0, 0], bre[0, 0] = a, b  # pin the maxima, so the bound is as stated
    return are, aim, bre, bim


@settings(max_examples=150, deadline=None)
@given(gated_operands())
def test_matmul_matches_object_reference_at_the_float_gate(ops):
    are, aim, bre, bim = ops
    got = ExactMatrix(are, aim) @ ExactMatrix(bre, bim)
    assert got == ExactMatrix(*_object_product(are, aim, bre, bim))


def test_matmul_worst_case_partial_sums_stay_exact():
    # every product is (2^24 - 1)(2^24 + 1) = 2^48 - 1 and all 2k = 32 terms
    # add up with the same sign: the largest sum the float gate admits
    m, k, n = 16, 16, 16
    a, b = 2**24 - 1, 2**24 + 1
    assert 2 * k * a * b <= linalg._FLOAT_EXACT
    are = np.full((m, k), a)
    aim = np.full((m, k), a)
    bre = np.full((k, n), b)
    bim = np.full((k, n), -b)
    got = ExactMatrix(are, aim) @ ExactMatrix(bre, bim)
    assert got[0, 0] == GR(2 * k * a * b, 0)
    assert got == ExactMatrix(*_object_product(are, aim, bre, bim))


# -- rref and inverse against a Fraction Gauss-Jordan reference ----------


def _reference_rref(rows):
    """Gauss-Jordan over GaussianRational (Fraction) entries."""
    rows = [[GR.from_value(v) for v in row] for row in rows]
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if not rows[i][c].is_zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        p = rows[r][c]
        rows[r] = [v / p for v in rows[r]]
        for i in range(m):
            if i != r and not rows[i][c].is_zero:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, tuple(pivots)


gaussian_entries = st.builds(
    lambda re, im, den: GR(Fraction(re, den), Fraction(im, den)),
    st.one_of(st.integers(-4, 4), st.integers(-(2**40), 2**40)),
    st.one_of(st.just(0), st.integers(-4, 4), st.integers(-(2**40), 2**40)),
    st.sampled_from([1, 1, 2, 3, 7]),
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(gaussian_entries, min_size=n, max_size=n), min_size=m, max_size=m
            )
        )
    )
)
def test_rref_matches_fraction_reference(rows):
    r, pivots = ExactMatrix.from_rows(rows).rref()
    ref, ref_pivots = _reference_rref(rows)
    assert pivots == ref_pivots
    assert r == ExactMatrix.from_rows(ref)


# Gaussian integers with norms of 2^62 to 2^63: on a diagonal, elimination leaves
# them alone and the shared pivot denominator, the lcm of their norms, is
# above 2^62, which forces the object path.
BIG_GAUSSIAN_PIVOTS = st.tuples(st.integers(2**31, 2**31 + 2**20), st.integers(2**15, 2**31)).map(
    lambda t: GR(*t)
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.lists(BIG_GAUSSIAN_PIVOTS, min_size=n, max_size=n, unique=True),
            st.lists(st.lists(gaussian_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.booleans(),
        )
    )
)
def test_inverse_matches_fraction_reference(case):
    diag, rows, diagonal = case
    n = len(diag)
    if diagonal:
        rows = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    a = ExactMatrix.from_rows(rows)
    aug = [list(row) + [GR(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    ref, pivots = _reference_rref(aug)
    assert ExactMatrix.from_rows(aug).rref() == (ExactMatrix.from_rows(ref), pivots)
    if pivots != tuple(range(n)):
        with pytest.raises(SingularGram):
            a.inverse()
        return
    inv = a.inverse()
    assert inv == ExactMatrix.from_rows([row[n:] for row in ref])
    assert a @ inv == ExactMatrix.identity(n)


def test_inverse_with_pivot_norm_lcm_above_int64():
    p1, p2 = GR(2**31 + 11, 2**31 - 1), GR(2**31 - 19, 2**30 + 3)
    assert math.lcm(int(p1.abs2()), int(p2.abs2())) > 2**62
    inv = ExactMatrix.column([p1, p2]).to_diagonal().inverse()
    assert inv == ExactMatrix.column([GR(1) / p1, GR(1) / p2]).to_diagonal()


# -- real operands take the real path ------------------------------------


def _real_matrix(arr):
    return ExactMatrix(arr, np.zeros(arr.shape, np.int64))


def _gate_path(call):
    """call() and the path of its first part product, read from the
    operands the kernel's integer map receives: "object" or "int64" by their
    dtype, and "float" when int64 operands are converted to float64."""
    paths = []

    class Watched(np.ndarray):
        def astype(self, dtype, *args, **kwargs):
            if np.dtype(dtype) == np.float64:
                paths[-1] = "float"
            return super().astype(dtype, *args, **kwargs)

    bilinear = linalg._bilinear

    def spy(f, a, b, bound):
        def watched(x, y):
            paths.append("object" if x.dtype == object else "int64")
            return np.asarray(f(x.view(Watched), y.view(Watched)))

        return bilinear(watched, a, b, bound)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_bilinear", spy)
        got = call()
    return got, paths[0] if paths else None


def _real_product(a, b):
    """The product of the nonzero real matrices a and b, with the path it
    took (see _gate_path)."""
    return _gate_path(lambda: _real_matrix(a) @ _real_matrix(b))


@st.composite
def real_gated_operands(draw):
    """Real integer operands whose product bound k*max|A|*max|B| is 2^53,
    just above it, or 2^56, over shapes from a single entry to 24 x 128 x 24."""
    j = draw(st.integers(0, 7))
    k = 2**j
    m = draw(st.integers(1, 24))
    n = draw(st.integers(1, 24))
    p = (53 - j) // 2
    b = 2 ** (53 - j - p)
    a = draw(st.sampled_from([2**p, 2**p + 1, 2 ** (p + 3) - 1]))
    aligned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(shape, top):
        return rng.integers(top // 2 if aligned else -top, top, shape, endpoint=True)

    x, y = part((m, k), a), part((k, n), b)
    x[0, 0], y[0, 0] = a, b  # pin the maxima, so the bound is as stated
    return x, y


@settings(max_examples=150, deadline=None)
@given(real_gated_operands())
def test_real_matmul_matches_object_reference_at_the_float_gate(ops):
    a, b = ops
    got, path = _real_product(a, b)
    assert got == _real_matrix(a.astype(object) @ b.astype(object))
    # the bound alone picks the path, whatever the shape
    bound = a.shape[1] * int(np.abs(a).max()) * int(np.abs(b).max())
    assert path == ("int64" if bound > linalg._FLOAT_EXACT else "float")


def test_real_matmul_worst_case_at_the_float_gate_stays_exact():
    # k = 2048 products of 2^42 * 1 with one sign per row: every partial sum
    # reaches 2^53, the largest the float gate admits
    k = 2048
    a = np.full((2, k), 2**42)
    a[1] *= -1
    b = np.ones((k, 1), np.int64)
    assert k * 2**42 == linalg._FLOAT_EXACT
    got, path = _real_product(a, b)
    assert path == "float"
    assert got == _real_matrix(np.array([[2**53], [-(2**53)]]))


def test_real_matmul_just_above_the_float_gate_takes_int64():
    # the bound is 2^53 + 2^11 and the row sums to the odd 2^53 + 2047,
    # which no float64 holds
    k = 2048
    a = np.full((1, k), 2**42 + 1)
    a[0, -1] = 2**42
    b = np.ones((k, 1), np.int64)
    got, path = _real_product(a, b)
    assert path == "int64"
    assert got[0, 0] == GR(2**53 + 2047)


@st.composite
def real_pair_near_int64_bound(draw, op, real=(True, True)):
    """Two integer matrices, (re, im) each, real or complex as real says,
    whose largest sum of magnitudes (+) or largest entry product (kron,
    entrywise), doubled for two complex operands, is 2^62, just above it,
    or at least 2^63, where int64 would wrap. One complex operand takes the
    per-term bound 2^62 and two take 2^61 and 2^61 + 1, on either side of
    the doubled bound. Also, for kron and entrywise, the path the int64
    gate should choose."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    p, q = (m, n) if op != "kron" else (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    if op == "add":
        tops = [(2**61, 2**61), (2**61 + 1, 2**61), (2**62, 2**62)]
    elif all(real):
        tops = [(2**31, 2**31), (2**31 + 1, 2**31), (2**33, 2**31)]
    elif any(real):
        tops = [(2**31, 2**31)]
    else:
        tops = [(2**61, 1), (2**61 + 1, 1)]
    top_a, top_b = draw(st.sampled_from(tops))
    aligned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def operand(shape, top, is_real):
        re, im = (rng.integers(top // 2 if aligned else -top, top, shape, endpoint=True)
                  for _ in range(2))
        re.flat[0] = im.flat[0] = top  # pin the maxima; a complex part is nonzero
        return re, np.zeros(shape, np.int64) if is_real else im

    bound = top_a * top_b * (1 if any(real) else 2)
    path = "int64" if bound <= 2**62 else "object"
    return operand((m, n), top_a, real[0]), operand((p, q), top_b, real[1]), path


def _object_entrywise(are, aim, bre, bim):
    are, aim, bre, bim = (x.astype(object) for x in (are, aim, bre, bim))
    return are * bre - aim * bim, are * bim + aim * bre


@pytest.mark.parametrize("real", [(True, True), (True, False), (False, True), (False, False)],
                         ids=["real", "real-complex", "complex-real", "complex"])
@pytest.mark.parametrize("op", ["kron", "entrywise"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_real_kron_matches_object_reference(op, real, data):
    # each operand real or complex: the int64 gate doubles for two complex
    # operands only, and every path matches the object reference
    (ar, ai), (br, bi), want_path = data.draw(real_pair_near_int64_bound(op, real))
    a = ExactMatrix(ar, None if real[0] else ai)
    b = ExactMatrix(br, None if real[1] else bi)
    if op == "kron":
        got, path = _gate_path(lambda: a.kron(b))
        ref = _object_kron(ar, ai, br, bi)
    else:
        got, path = _gate_path(lambda: linalg.entrywise(a, b))
        ref = _object_entrywise(ar, ai, br, bi)
    assert got == ExactMatrix(*ref)
    assert path == want_path
    _assert_real_flag(got)


@settings(max_examples=80, deadline=None)
@given(real_pair_near_int64_bound("add"), st.integers(1, 3), st.integers(1, 3))
def test_real_add_matches_object_reference(ops, da, db):
    (a, _), (b, _), _ = ops
    den = math.lcm(da, db)
    ref = a.astype(object) * (den // da) + b.astype(object) * (den // db)
    got = ExactMatrix(a, np.zeros_like(a), da) + ExactMatrix(b, np.zeros_like(b), db)
    assert got == ExactMatrix(ref, np.zeros(ref.shape, np.int64), den)


def _assert_real_flag(x):
    assert x._real == (not x._im.any())
    if x._real:
        # the shared read-only zero: no memory, no strides, never written
        assert x._im.dtype == np.int64
        assert not x._im.flags.writeable and not any(x._im.strides)


small_or_big = st.one_of(st.integers(-3, 3), st.sampled_from([2**70, -(2**65) + 1]))


@st.composite
def maybe_real_square(draw, n):
    entries = st.lists(st.lists(small_or_big, min_size=n, max_size=n), min_size=n, max_size=n)
    re = np.array(draw(entries), dtype=object)
    im = np.array(draw(entries), dtype=object) if draw(st.booleans()) else np.zeros((n, n), int)
    return ExactMatrix(re, im, draw(st.integers(1, 4)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(maybe_real_square(n), maybe_real_square(n))))
def test_every_operation_knows_when_its_result_is_real(pair):
    a, b = pair
    n = a.nrows
    results = [
        -a, a.conj(), a.T, a.H, a.take_rows([0]),
        ExactMatrix.hstack([a, b]), a.rref()[0], a.kron(b), a.scale(GR(0, 1)),
        a.scale(F(-1, 3)), a - a.conj(), a + a.conj(), a @ b, a - b,
    ]
    if a.rank() == n:
        results.append(a.inverse())
    # the operations that move entries, gather them or scale them, batched
    # where they take batches: a member of a complex batch may be real
    ab = ExactMatrix.stack([a, b], (2,))
    col_a, col_b = a.take_cols([0]), b.take_cols([0])
    wide = ExactMatrix.stack([ExactMatrix.hstack([a, b]), ExactMatrix.hstack([b, a])], (2,))
    row = ab.regrouped((1, 1, 2 * n * n), (0, 1, 2))
    results += [
        ab.take((2,), 0), ab.take((2,), 1), a.take((2,), 1),
        ab.reshaped((2,), (1, 2)), a.reshaped((3,), (3, 1)),
        ab.regrouped((2, n, n), (0, 2, 1)),
        ExactMatrix.stack([col_a.to_diagonal(), col_b.to_diagonal()], (2,)).diagonal_columns(),
        *row.square_blocks([n, n]),
        a.scattered(range(n), range(1, n + 1), (n + 1, n + 1)),
        ab.scattered(range(n), range(1, n + 1), (n + 1, n + 1)),
        col_a.to_diagonal(), ab.take_cols([0]).to_diagonal(), a.scaled(b), ab.scaled(ExactMatrix.hstack([col_b, col_a])),
        ab.combine(ExactMatrix.vstack([b.take_rows([0]), a.take_rows([0])])),
        linalg.entrywise(a, b), linalg.entrywise(ab, col_b),
        linalg.diagonal_commutator(ab, col_a, col_b),
        linalg.diagonal_commutator(ab, None, col_b), linalg.diagonal_commutator(ab, col_a, None),
        linalg.regroup(ab, (n, n), (1, 0), n, n),
        linalg.kron_sum_entries([a, b], ab, [0, n * n - 1], range(n * n)),
        linalg.kron_sum_entries(ab, ExactMatrix.stack([b, a, a, a, b, b], (3, 2)),
                                range(n * n), [0]),
    ]
    for left in (True, False):
        results += [
            linalg.kron_identity_entries(ab, 2, left, [0, 2 * n - 1], range(2 * n)),
            linalg.kron_identity_entries(a, 3, left, range(3 * n), [n]),
            linalg.times_kron_identity(ExactMatrix.hstack([a, b]), b, 2, left),
            linalg.times_kron_identity(wide, ab, 2, left),
        ]
    for x in [a, b] + results:
        _assert_real_flag(x)


def test_real_flag_on_mixed_operands():
    r = ExactMatrix.from_rows([[1, 2], [3, 4]])
    c = ExactMatrix.from_rows([[GR(1, 2), 0], [0, GR(0, -1)]])
    assert r._real and not c._real
    # a complex difference that cancels to a real matrix
    cancelled = c - ExactMatrix.from_rows([[GR(3, 2), 0], [0, GR(5, -1)]])
    assert cancelled == ExactMatrix.from_rows([[-2, 0], [0, -5]])
    for x, real in [
        (r @ c, False),  # real times complex
        (c @ r, False),
        (r.scale(GR(0, 1)), False),  # a real matrix scaled by i
        (cancelled, True),
        (c @ c.conj(), True),
        (r.kron(c), False),
    ]:
        _assert_real_flag(x)
        assert x._real == real


# -- linear combinations over a fixed family -----------------------------


def _family(members):
    """Members of one or more blocks as one r x 1 x L batched matrix: each
    member's blocks read row-major, side by side, as the tower lays out its
    side families."""
    r = len(members)
    flat = ExactMatrix.hstack(ExactMatrix.stack([m[b] for m in members], (r,)).flattened()
                              for b in range(len(members[0])))
    return flat.regrouped((r, 1, flat.ncols), (0, 1, 2))


def _combined_blocks(members, coeffs):
    """For every column j of coeffs, the blocks of sum_k coeffs[k, j] *
    members[k]: one combine of _family, member j cut back into blocks."""
    combined = _family(members).combine(coeffs)
    out = []
    for j in range(coeffs.ncols):
        row, at, blocks = combined.take((coeffs.ncols,), j), 0, []
        for p, q in (b.shape for b in members[0]):
            blocks.append(row.take_cols(range(at, at + p * q)).regrouped((p, q), (0, 1)))
            at += p * q
        out.append(blocks)
    return out


def _object_combination(members, cre, cim, j):
    """sum_k (cre + i cim)[k, j] * members[k], block by block, on object
    arrays: a list of (re, im) pairs."""
    out = []
    for b in range(len(members[0])):
        re = sum(int(cre[k, j]) * members[k][b].astype(object) for k in range(len(members)))
        im = sum(int(cim[k, j]) * members[k][b].astype(object) for k in range(len(members)))
        out.append((re, im))
    return out


@st.composite
def gated_combinations(draw):
    """A real family of r = 2^j members, each one to three blocks of any
    shapes, and coefficient columns, such that the product bound
    r*max|c|*max|F| (doubled for complex coefficients) is 2^53, just above
    it, 2^62 or just above that."""
    j = draw(st.integers(0, 4))
    r = 2**j
    complex_coeffs = draw(st.booleans())
    gate = draw(st.sampled_from([53, 62])) - (1 if complex_coeffs else 0)
    p = (gate - j) // 2
    ftop = 2 ** (gate - j - p)
    ctop = 2**p + draw(st.sampled_from([0, 1]))
    # sizes from a single entry up
    size = st.sampled_from([1, 3, 8, 24])
    shapes = draw(st.lists(st.tuples(size, size), min_size=1, max_size=3))
    s = draw(st.integers(1, 3))
    aligned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(shape, top):
        return rng.integers(top // 2 if aligned else -top, top, shape, endpoint=True)

    members = [[part(shape, ftop) for shape in shapes] for _ in range(r)]
    cre = part((r, s), ctop)
    cim = part((r, s), ctop) if complex_coeffs else np.zeros((r, s), np.int64)
    members[0][0].flat[0], cre[0, 0] = ftop, ctop  # pin the maxima
    if complex_coeffs:
        cim[0, 0] = ctop
    return members, cre, cim


@settings(max_examples=150, deadline=None)
@given(gated_combinations())
def test_combination_matches_object_reference_at_the_gates(case):
    members, cre, cim = case
    got = _combined_blocks([[_real_matrix(b) for b in m] for m in members], ExactMatrix(cre, cim))
    assert len(got) == cre.shape[1]
    for j, blocks in enumerate(got):
        want = _object_combination(members, cre, cim, j)
        assert blocks == [ExactMatrix(re, im) for re, im in want]


def _fraction_combination(members, coeffs, j):
    """The same sum entry by entry over GaussianRational."""
    out = []
    for b in range(len(members[0])):
        rows = [[GR()] * members[0][b].ncols for _ in range(members[0][b].nrows)]
        for k, m in enumerate(members):
            c = coeffs[k, j]
            for x, row in enumerate(rows_of(m[b])):
                for y, v in enumerate(row):
                    rows[x][y] = rows[x][y] + c * v
        out.append(ExactMatrix.from_rows(rows))
    return out


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(
            st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), min_size=1, max_size=3),
            st.lists(gaussian_entries, min_size=r * 27, max_size=r * 27),
            st.lists(gaussian_entries, min_size=2 * r, max_size=2 * r),
            st.booleans(),
        )
    )
)
def test_combination_matches_fraction_reference(case):
    shapes, entries, coeffs, zero_column = case
    r = len(coeffs) // 2
    pool = iter(entries)
    members = [
        [ExactMatrix.from_rows([[next(pool) for _ in range(q)] for _ in range(p)])
         for p, q in shapes]
        for _ in range(r)
    ]
    # mixed denominators and complex values throughout; optionally one
    # column of zero coefficients
    column = [[coeffs[2 * k], GR() if zero_column else coeffs[2 * k + 1]] for k in range(r)]
    c = ExactMatrix.from_rows(column)
    got = _combined_blocks(members, c)
    for j in range(2):
        assert got[j] == _fraction_combination(members, c, j)
    if zero_column:
        assert all(b == ExactMatrix.zeros(*b.shape) for b in got[1])


def test_combination_of_blocks_with_different_shapes():
    a = [ExactMatrix.from_rows([[1, F(1, 2)]]), ExactMatrix.from_rows([[GR(0, 1)], [3], [0]])]
    b = [ExactMatrix.from_rows([[F(1, 3), 0]]), ExactMatrix.from_rows([[1], [F(-1, 6)], [2]])]
    [blocks] = _combined_blocks([a, b], ExactMatrix.column([2, GR(0, 3)]))
    assert [x.shape for x in blocks] == [(1, 2), (3, 1)]
    assert blocks[0] == a[0].scale(2) + b[0].scale(GR(0, 3))
    assert blocks[1] == a[1].scale(2) + b[1].scale(GR(0, 3))
    [zero] = _combined_blocks([a, b], ExactMatrix.zeros(2, 1))
    assert zero == [ExactMatrix.zeros(1, 2), ExactMatrix.zeros(3, 1)]
    # coefficient rows must match the members, and stacked members must
    # share their shape
    with pytest.raises(ValueError):
        _family([a, b]).combine(ExactMatrix.zeros(3, 1))
    with pytest.raises(ValueError):
        ExactMatrix.stack([a[0], b[1]], (2,))
    with pytest.raises(ValueError):
        ExactMatrix.stack([], (0,))


def _loop_weighted_sum(mats, coeffs):
    """The per-coefficient loop side actions used before the side actions
    became one combination: one scale and one addition per nonzero
    coefficient."""
    out = ExactMatrix.zeros(*mats[0].shape)
    for c in range(coeffs.nrows):
        w = coeffs[c, 0]
        if not w.is_zero:
            out = out + mats[c].scale(w)
    return out


@pytest.mark.parametrize("space", [
    build_fock(build_example_MN(2, 2), 3),
    build_fock(build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1]), 3),
], ids=["mn:2,2", "perm:3"])
def test_side_actions_match_the_per_summand_loop(space):
    spec = space.spec

    def samples(dim):
        yield ExactMatrix.zeros(dim, 1)
        for c in range(dim):
            yield ExactMatrix.identity(dim).take_cols([c])
        yield ExactMatrix.column([GR(F(k + 1, 3), F(1 - k, 2)) for k in range(dim)])

    def loop(ops_of, coeffs):
        blocks = {(k, k): _loop_weighted_sum(ops_of(space.summand(k)), coeffs) for k in space.keys}
        return {k: v for k, v in blocks.items() if not v.is_zero()}

    for side, alg, ops_of in ((1, spec.algebra_B1, lambda sp: _members(sp.left_B1)),
                              (2, spec.algebra_B2, lambda sp: _members(sp.left_B2))):
        for b in samples(alg.dim):
            assert space.left_actions(side, b, (0, space.depth))[0].blocks == loop(ops_of, b)
    for a in samples(spec.algebra_A.dim):
        assert (space.right_actions(a, (0, space.depth))[0].blocks
                == loop(lambda sp: _members(sp.right_A), a))


def test_diagonal_helpers():
    col = ExactMatrix.column([F(1, 2), GR(0, 3), 0])
    d = col.to_diagonal()
    assert d == ExactMatrix.column([F(1, 2), GR(0, 3), 0]).to_diagonal()
    assert d.is_diagonal() and d.diagonal_columns() == col
    assert not ExactMatrix.from_rows([[1, GR(0, 1)], [0, 1]]).is_diagonal()
    assert ExactMatrix.from_rows([[1, 0], [0, 2]]).diagonal_columns() == ExactMatrix.column([1, 2])



def test_equal_rows_groups_rows_by_value():
    x = ExactMatrix.from_rows([[1, F(1, 2)], [GR(0, 1), 0], [F(2, 2), F(2, 4)], [GR(0, 1), 0],
                               [2**70, 0], [1, 0]])
    assert x.equal_rows() == [[0, 2], [1, 3], [4], [5]]
    assert ExactMatrix.zeros(3, 2).equal_rows() == [[0, 1, 2]]
    with pytest.raises(ValueError):
        ExactMatrix.zeros(2, 3, 2).equal_rows()


def test_square_blocks_cut_a_flattened_row_into_views():
    a = ExactMatrix.stack([ExactMatrix.from_rows([[F(1, 2), 2]] * 2),
                           ExactMatrix.from_rows([[GR(0, 1), 0], [4, 2**70]])], (2,))
    b = ExactMatrix.stack([ExactMatrix.from_rows([[6]]), ExactMatrix.from_rows([[F(-1, 3)]])], (2,))
    row = ExactMatrix.hstack([x.flattened() for x in (a, b)])
    row = row.regrouped((2, 1, 5), (0, 1, 2))
    cuts = row.square_blocks([2, 1])
    assert [c.batch_shape + c.shape for c in cuts] == [(2, 2, 2), (2, 1, 1)]
    assert cuts == [a, b]
    assert all(np.shares_memory(c._re, row._re) for c in cuts)
    for c in cuts:
        _assert_real_flag(c)
    with pytest.raises(ValueError, match="fill"):
        row.square_blocks([2, 2])

@st.composite
def sparse_batches(draw):
    """Numerator arrays of batched matrices, square or rectangular, with
    Python-int entries, mostly zero, and every member sometimes diagonal."""
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = batch + (m, n)
    diagonal_only = draw(st.booleans())

    def part():
        values = st.one_of(st.just(0), st.just(0), small_or_big)
        arr = np.array(draw(st.lists(values, min_size=math.prod(shape),
                                     max_size=math.prod(shape))), dtype=object).reshape(shape)
        if diagonal_only:
            arr = arr * np.eye(m, n, dtype=int).astype(object)
        return arr

    re = part()
    im = part() if draw(st.booleans()) else np.zeros(shape, dtype=object)
    return re, im, draw(st.integers(1, 4))


@settings(max_examples=150, deadline=None)
@given(sparse_batches())
def test_is_diagonal_and_diagonal_columns_match_an_entry_reference(parts):
    re, im, den = parts
    *batch, m, n = re.shape
    off = [(idx, i, j) for idx in np.ndindex(*batch) for i in range(m) for j in range(n) if i != j]
    diagonal = all(re[idx + (i, j)] == 0 and im[idx + (i, j)] == 0 for idx, i, j in off)
    # normalised, so int64 where the values fit, and kept as object arrays
    for x in (ExactMatrix(re, im, den), ExactMatrix(re, im, den, _normalize=False)):
        assert x.is_diagonal() == diagonal
        if m != n:
            with pytest.raises(ValueError, match="square"):
                x.diagonal_columns()
        elif not diagonal:
            with pytest.raises(NotDiagonal):
                x.diagonal_columns()
        else:
            ref = [[re[idx + (i, i)] for i in range(n)] for idx in np.ndindex(*batch)]
            ref_im = [[im[idx + (i, i)] for i in range(n)] for idx in np.ndindex(*batch)]
            want = ExactMatrix(np.array(ref, dtype=object).reshape(tuple(batch) + (n, 1)),
                               np.array(ref_im, dtype=object).reshape(tuple(batch) + (n, 1)), den)
            got = x.diagonal_columns()
            assert got == want
            _assert_real_flag(got)


# -- Kronecker-structured products ----------------------------------------
#
# Each kernel is one exact product; the loops below are the code the kernels
# replaced, kept as references beside an object-dtype one.


def _loop_kron_sum(lefts, rights):
    """One kron and one addition per term."""
    out = lefts[0].kron(rights[0])
    for a, b in zip(lefts[1:], rights[1:]):
        out = out + a.kron(b)
    return out


def _loop_times_kron_identity(mat, x, s):
    return mat @ x.kron(ExactMatrix.identity(s))


def _loop_times_identity_kron(mat, s, x):
    return mat @ ExactMatrix.identity(s).kron(x)


def _members(batch):
    """The members of a matrix with one batch axis, one matrix each."""
    return [batch.take(batch.batch_shape, c) for c in range(batch.batch_shape[0])]


def _loop_pair(stack, x, y):
    """Two products per coordinate and a vstack of the 1 x 1 results."""
    return ExactMatrix.vstack([x.H @ g @ y for g in stack.coords])


def _loop_tensor_stacks(inner_left, target_stacks, left_ops):
    out = []
    for stack in target_stacks:
        if stack is None:
            out.append(None)
            continue
        coords = []
        for w in stack.coords:
            dim = inner_left.dim * stack.dim
            acc = ExactMatrix.zeros(dim, dim)
            for g, op in zip(inner_left.coords, left_ops):
                acc = acc + g.kron(w @ op)
            coords.append(acc)
        out.append(GramStack(coords))
    return out


def _object_kron(are, aim, bre, bim):
    are, aim, bre, bim = (x.astype(object) for x in (are, aim, bre, bim))
    return (np.kron(are, bre) - np.kron(aim, bim), np.kron(are, bim) + np.kron(aim, bre))


def _object_matrix(terms):
    """sum of (re, im, den) object-array terms as one ExactMatrix, each term
    rescaled to the lcm of the denominators."""
    den = math.lcm(*(d for _, _, d in terms))
    re = sum(r * (den // d) for r, _, d in terms)
    im = sum(i * (den // d) for _, i, d in terms)
    return ExactMatrix(re, im, den)


@st.composite
def gated_tops(draw, k):
    """Entry bounds (ta, tb) and a complex flag such that the product bound
    k*ta*tb is 2^53 or just above it, the float gate of one part product,
    or, doubled for complex entries, 2^62, just above that, or 2^64, past
    the int64 range; k is a power of two. Neither bound is a multiple of 3,
    the denominator entries may carry."""
    j = k.bit_length() - 1
    complex_entries = draw(st.booleans())
    # the float gate reads one part product, and only the int64 gates double
    gate = draw(st.sampled_from([53, 62, 64]))
    e = gate - j - (1 if complex_entries and gate > 53 else 0)
    pa = e // 2
    ta = 2**pa + draw(st.sampled_from([0, 3]))
    return ta, 2 ** (e - pa), complex_entries


def _raw_operand(draw, rng, shape, top, complex_entries, pinned):
    """Integer numerators (re, im) over a denominator of 1 or 3: numerators
    over 3 are at most top in magnitude and those over 1 at most top // 3,
    so that rescaled to the denominator 3 every numerator stays at most
    top. A pinned operand has its first entry at top over 3, which keeps
    the denominator 3 through normalisation."""
    den = 3 if pinned else draw(st.sampled_from([1, 3]))
    bound = top if den == 3 else top // 3
    aligned = draw(st.booleans())

    def part():
        return rng.integers(bound // 2 if aligned else -bound, bound, shape, endpoint=True)

    re = part()
    im = part() if complex_entries else np.zeros(shape, np.int64)
    if pinned:
        re.flat[0] = top
    return re, im, den


@st.composite
def kron_sum_cases(draw):
    """r = 2^j pairs of factors (A_k, B_k) of shapes m x n and p x q at the
    gates of gated_tops, with mixed denominators."""
    r = 2 ** draw(st.integers(0, 3))
    ta, tb, complex_entries = draw(gated_tops(r))
    # factors from a single entry up
    dims = st.sampled_from([1, 3, 8])
    (m, n), (p, q) = (draw(st.tuples(dims, dims)) for _ in range(2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lefts = [_raw_operand(draw, rng, (m, n), ta, complex_entries, k == 0) for k in range(r)]
    rights = [_raw_operand(draw, rng, (p, q), tb, complex_entries, k == 0) for k in range(r)]
    return lefts, rights


@settings(max_examples=150, deadline=None)
@given(kron_sum_cases())
def test_kron_sum_matches_the_loop_and_an_object_reference(case):
    lefts, rights = case
    a = [ExactMatrix(*x) for x in lefts]
    b = [ExactMatrix(*x) for x in rights]
    got = linalg.kron_sum(a, b)
    want = _object_matrix([
        (*_object_kron(ar, ai, br, bi), da * db)
        for (ar, ai, da), (br, bi, db) in zip(lefts, rights)
    ])
    assert got == want
    assert got == _loop_kron_sum(a, b)
    _assert_real_flag(got)


def _index_sets(size):
    """Every index in order, or any list of indices: empty, repeated or out
    of order."""
    return st.one_of(st.just(list(range(size))),
                     st.lists(st.integers(0, size - 1), max_size=size + 2))


@settings(max_examples=100, deadline=None)
@given(kron_sum_cases(), st.data())
def test_kron_sum_entries_match_the_formed_sum_and_an_object_reference(case, data):
    lefts, rights = case
    a = [ExactMatrix(*x) for x in lefts]
    b = [ExactMatrix(*x) for x in rights]
    (m, n), (p, q) = a[0].shape, b[0].shape
    rows, cols = data.draw(_index_sets(m * p)), data.draw(_index_sets(n * q))
    # stacked first, as stacking rescales to one denominator under a bound
    sa, sb = ExactMatrix.stack(a, (len(a),)), ExactMatrix.stack(b, (len(b),))
    got, path = _gate_path(lambda: linalg.kron_sum_entries(sa, sb, rows, cols))
    want = _object_matrix([
        (*_object_kron(ar, ai, br, bi), da * db)
        for (ar, ai, da), (br, bi, db) in zip(lefts, rights)
    ]).submatrix(rows, cols)
    assert got == want
    assert got == linalg.kron_sum(a, b).submatrix(rows, cols)
    assert got.shape == (len(rows), len(cols))
    _assert_real_flag(got)
    if rows != list(range(m * p)) or cols != list(range(n * q)):
        # a sum of r products, each at most max|A|*max|B|, twice that for
        # two complex factors: int64 up to 2^62, big integers past it, read
        # from the stacks' exact peaks, not from the bounds they carry
        bound = len(a) * _max_entry(sa) * _max_entry(sb)
        if not (sa.is_real() or sb.is_real()):
            bound *= 2
        assert path == ("int64" if bound <= 2**62 else "object")
    # a batch of right factors: every member at once, as one call each
    both = linalg.kron_sum_entries(sa, ExactMatrix.stack([sb, -sb], (2,)), rows, cols)
    assert both.batch_shape == (2,)
    assert both.take((2,), 0) == got
    assert both.take((2,), 1) == -got


def test_kron_sum_entries_on_fractions_gates_and_degenerate_index_sets():
    a = ExactMatrix.from_rows([[F(1, 2), GR(0, F(2, 3))], [3, F(-5, 7)]])
    b = ExactMatrix.from_rows([[F(4, 9), 0, 1], [GR(1, -1), F(1, 6), 2]])
    c = ExactMatrix.from_rows([[F(1, 3), 5], [F(-2, 5), 1]])
    d = ExactMatrix.from_rows([[F(1, 10), GR(0, 1), 0], [7, F(3, 4), GR(F(1, 2), -2)]])
    # real and complex factors on either side, over fraction denominators
    for lefts, rights in [([a, c], [b, d]), ([c], [d]), ([a, a], [c, -c]), ([c, c], [c.T, c])]:
        full = linalg.kron_sum(lefts, rights)
        for rows, cols in [([3, 0, 2], [full.ncols - 1, 1, 1, 3]), ([], [0, 2]), ([1, 2], []), ([], []),
                           (range(full.nrows), range(full.ncols))]:
            got = linalg.kron_sum_entries(lefts, rights, rows, cols)
            assert got == full.submatrix(rows, cols)
            assert got.shape == (len(rows), len(cols))
            _assert_real_flag(got)
    for rows, cols in [([4], [0]), ([0], [6]), ([-1], [0])]:
        with pytest.raises(ValueError, match="outside"):
            linalg.kron_sum_entries([a], [b], rows, cols)
    with pytest.raises(ValueError, match="as many"):
        linalg.kron_sum_entries([a, c], [b], [0], [0])
    # the int64 gate: two terms of 2^30 * 2^31 sum to exactly 2^62, and one
    # more unit on a left factor takes the bound past it to big integers
    for top, path, value in [(2**30, "int64", 2**62), (2**30 + 1, "object", 2**62 + 2**31)]:
        lefts = [_full((2, 2), top), _full((2, 2), 2**30)]
        rights = [_full((2, 2), 2**31)] * 2
        got, chosen = _gate_path(lambda: linalg.kron_sum_entries(lefts, rights, [0, 3], [1]))
        assert chosen == path
        assert got == _full((2, 1), value)
        assert got._re.dtype == (np.int64 if path == "int64" else object)


@st.composite
def kron_identity_cases(draw):
    """An identity factor I_s and two matrices x, h x q, and mat, r x (h s),
    at the gates of gated_tops with the inner dimension h = 2^j, and
    denominators of 1 or 3, for mat @ (x (x) I_s) (left) or
    mat @ (I_s (x) x) (otherwise)."""
    left = draw(st.booleans())
    h = 2 ** draw(st.integers(0, 4))
    ta, tb, complex_entries = draw(gated_tops(h))
    # sizes from a single row and column up
    r, q = (draw(st.sampled_from([1, 3, 16, 40])) for _ in range(2))
    s = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = _raw_operand(draw, rng, (r, h * s), ta, complex_entries, True)
    x = _raw_operand(draw, rng, (h, q), tb, complex_entries, True)
    if draw(st.booleans()):
        mat = (mat[0], mat[1], 1)
    if draw(st.booleans()):
        x = (x[0], x[1], 1)
    return left, mat, x, s


@settings(max_examples=200, deadline=None)
@given(kron_identity_cases())
def test_kron_identity_products_match_the_loop_and_an_object_reference(case):
    left, (mre, mim, md), (xre, xim, xd), s = case
    mat, x = ExactMatrix(mre, mim, md), ExactMatrix(xre, xim, xd)
    eye = np.eye(s, dtype=np.int64)
    got = linalg.times_kron_identity(mat, x, s, left)
    if left:
        kre, kim = _object_kron(xre, xim, eye, np.zeros_like(eye))
        assert got == _loop_times_kron_identity(mat, x, s)
    else:
        kre, kim = _object_kron(eye, np.zeros_like(eye), xre, xim)
        assert got == _loop_times_identity_kron(mat, s, x)
    want = _object_product(mre, mim, kre, kim)
    assert got == _object_matrix([(*want, md * xd)])
    _assert_real_flag(got)


@st.composite
def pair_cases(draw):
    """A Gram stack of d coordinates on C^n, n = 2^j, and two columns x, y,
    with coords @ y at the gates of gated_tops and denominators of 1 or 3."""
    n = 2 ** draw(st.integers(0, 5))
    ta, tb, complex_entries = draw(gated_tops(n))
    d = draw(st.sampled_from([1, 2, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coords = [_raw_operand(draw, rng, (n, n), ta, complex_entries, c == 0) for c in range(d)]
    x = _raw_operand(draw, rng, (n, 1), tb, complex_entries, draw(st.booleans()))
    y = _raw_operand(draw, rng, (n, 1), tb, complex_entries, True)
    return coords, x, y


@settings(max_examples=150, deadline=None)
@given(pair_cases())
def test_pairs_of_two_vectors_match_the_loop_and_an_object_reference(case):
    coords, (xre, xim, xd), (yre, yim, yd) = case
    stack = GramStack(ExactMatrix(*g) for g in coords)
    x, y = ExactMatrix(xre, xim, xd), ExactMatrix(yre, yim, yd)
    got = stack.pairs(x, y)
    # x^H G y = conj(x)^T (G y), one row per coordinate
    rows = []
    for gre, gim, gd in coords:
        gy = _object_product(gre, gim, yre, yim)
        val = _object_product(xre.T, -xim.T, *gy)
        rows.append(ExactMatrix(*val, gd * xd * yd))
    assert got == ExactMatrix.vstack(rows)
    assert got == _loop_pair(stack, x, y)
    # the stacked Grams are built once and reused
    assert stack.pairs(y, x) == _loop_pair(stack, y, x)
    _assert_real_flag(got)
    # column_pairs keeps the columns (k, k) of pairs
    xs, ys = ExactMatrix.hstack([x, y]), ExactMatrix.hstack([y, x])
    matched = stack.column_pairs(xs, ys)
    assert matched == stack.pairs(xs, ys).take_cols([0, 3])
    assert stack.column_pairs(x, y) == got
    _assert_real_flag(matched)
    with pytest.raises(ValueError, match="column_pairs"):
        stack.column_pairs(x, ys)


def _full(shape, value):
    return _real_matrix(np.full(shape, value, np.int64))


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
@pytest.mark.parametrize("kernel", ["kron_sum", "x_kron_identity", "identity_kron_x"])
def test_kronecker_kernels_at_the_float_gate(kernel, above):
    # inner dimension 8 and factors 2^25: every entry is 8 * 2^50 = 2^53,
    # the largest sum the float gate admits; above it, 2^25 + 1 and one
    # factor 2^25 - 1 make the odd 2^53 + 7 * 2^25 - 1, which no float64 holds
    a = 2**25 + 1 if above else 2**25
    last = 2**25 - 1 if above else 2**25
    want = (8 * 2**25 - 2**25 + last) * a
    if kernel == "kron_sum":
        lefts = [_full((8, 8), a) for _ in range(8)]
        rights = [_full((8, 8), 2**25) for _ in range(7)] + [_full((8, 8), last)]
        got, path = _gate_path(lambda: linalg.kron_sum(lefts, rights))
        shape = (64, 64)
    else:
        x = ExactMatrix.vstack([_full((7, 16), 2**25), _full((1, 16), last)])
        left = kernel == "x_kron_identity"
        got, path = _gate_path(lambda: linalg.times_kron_identity(_full((16, 16), a), x, 2, left))
        shape = (16, 32)
    assert path == ("int64" if above else "float")
    assert got == _full(shape, want)
    assert want == (2**53 + 7 * 2**25 - 1 if above else 2**53)


def test_kronecker_kernels_on_fractions_and_degenerate_shapes():
    a = ExactMatrix.from_rows([[F(1, 2), GR(0, F(2, 3))], [3, F(-5, 7)]])
    b = ExactMatrix.from_rows([[F(4, 9)], [GR(1, -1)]])
    c = ExactMatrix.from_rows([[F(1, 6), 2]])
    d = ExactMatrix.from_rows([[GR(F(1, 4), 1)], [F(2, 5)]])
    assert linalg.kron_sum([a], [b]) == a.kron(b)
    assert linalg.kron_sum([b, d], [c, c]) == b.kron(c) + d.kron(c)
    with pytest.raises(ValueError):
        linalg.kron_sum([a, a], [b])
    with pytest.raises(ValueError):
        linalg.kron_sum([a, b], [c, c])
    mat = ExactMatrix.from_rows([[F(1, 3), 0, GR(0, 2), 1, F(-1, 2), 4]])
    assert linalg.times_kron_identity(mat, b, 3, True) == _loop_times_kron_identity(mat, b, 3)
    assert linalg.times_kron_identity(mat, b, 3, False) == _loop_times_identity_kron(mat, 3, b)
    tall = ExactMatrix.vstack([b, d, b])
    for left in (True, False):
        assert linalg.times_kron_identity(mat, tall, 1, left) == mat @ tall
        with pytest.raises(ValueError):
            linalg.times_kron_identity(mat, b, 2, left)
    stack = GramStack([a, a.H])
    assert stack.pairs(b, d) == _loop_pair(stack, b, d)
    with pytest.raises(ValueError):
        stack.pairs(c, b)


# rows of x for the gathers below: one entry at the int64 gate, one at the
# float gate, big integers, fractions and Gaussian rationals
GATHERED = {
    "small": [[1, -2], [0, 3], [5, 7]],
    "fractions": [[F(1, 2), F(-2, 3)], [0, F(5, 6)], [1, F(1, 9)]],
    "complex": [[GR(1, 2), 0], [GR(0, F(-1, 3)), 4], [2, GR(F(1, 2), 1)]],
    "int64 gate": [[2**62, -(2**62)], [2**62 - 1, 1], [0, 3]],
    "float gate": [[2**53, 2**53 + 1], [-(2**53), 1], [7, 0]],
    "bigint": [[2**70, -(2**65) + 1], [1, 0], [GR(0, 2**64), 3]],
}


@pytest.mark.parametrize("left", [True, False], ids=["x(x)I", "I(x)x"])
@pytest.mark.parametrize("name", list(GATHERED))
def test_kron_identity_entries_match_the_formed_kron(name, left):
    x = ExactMatrix.from_rows(GATHERED[name])
    s = 3
    full = x.kron(ExactMatrix.identity(s)) if left else ExactMatrix.identity(s).kron(x)
    rng = random.Random(name)
    all_rows, all_cols = range(full.nrows), range(full.ncols)
    for rows, cols in [
        (all_rows, all_cols),
        ([], all_cols),
        (all_rows, []),
        ([], []),
        (rng.sample(all_rows, 5), [0, 5, 2]),
        ([8, 8, 1], rng.sample(all_cols, 4)),
    ]:
        got = linalg.kron_identity_entries(x, s, left, rows, cols)
        want = full.submatrix(rows, cols)
        assert got == want
        assert got.shape == (len(rows), len(cols))
        _assert_real_flag(got)
        # a gather does no arithmetic: int64 stays int64, and the carried
        # bound is max|x|
        assert got._re.dtype == want._re.dtype
        assert got._peak_abs() >= _max_entry(got)
    with pytest.raises(ValueError):
        linalg.kron_identity_entries(x, s, left, [full.nrows], [0])
    with pytest.raises(ValueError):
        linalg.kron_identity_entries(x, s, left, [0], [-1])


@pytest.mark.parametrize("left", [True, False], ids=["x(x)I", "I(x)x"])
@pytest.mark.parametrize("name", list(GATHERED))
def test_kron_identity_entries_gather_a_stack_member_by_member(name, left):
    x = ExactMatrix.from_rows(GATHERED[name])
    members = [x, -x, x.scale(GR("1/3")), ExactMatrix.zeros(*x.shape)]
    stack = ExactMatrix.stack(members, (2, 2))
    s = 2
    rows, cols = [0, 3, 5, 1], [3, 0, 2]
    for rs, cs in [(rows, cols), ([], cols), (rows, [])]:
        got = linalg.kron_identity_entries(stack, s, left, rs, cs)
        assert got.batch_shape == (2, 2)
        for k, member in enumerate(members):
            want = linalg.kron_identity_entries(member, s, left, rs, cs)
            assert got.take((2, 2), divmod(k, 2)) == want


def _max_entry(x):
    return max((abs(int(v)) for part in (x._re, x._im) for v in part.ravel()), default=0)


# two members of diagonals for the mask kernels: three entries for the rows
# of the GATHERED matrices and two for their columns
MASK_DIAGONALS = {
    "0/1": ([[1, 0, 1], [0, 0, 1]], [[1, 0], [1, 1]]),
    "rational": ([[F(1, 2), F(-2, 3), 5], [F(3, 4), 0, F(1, 6)]], [[F(2, 5), 1], [0, F(-7, 3)]]),
    "negative": ([[-1, 2, -(2**40)], [-3, -3, 0]], [[-5, 0], [-(2**62), 1]]),
}


def _diagonal_stack(diagonals):
    return ExactMatrix.stack([ExactMatrix.column(d) for d in diagonals], (len(diagonals),))


def _object_matmul(a, b):
    """a @ b on object arrays: the reference the mask kernels must match."""
    re, im = _object_product(a._re, a._im, b._re, b._im)
    return ExactMatrix(re, im, a._den * b._den)


@pytest.mark.parametrize("diagonals", list(MASK_DIAGONALS))
@pytest.mark.parametrize("name", list(GATHERED))
def test_diagonal_kernels_match_the_object_reference(name, diagonals):
    x = ExactMatrix.from_rows(GATHERED[name])
    lefts, rights = MASK_DIAGONALS[diagonals]
    left, right = _diagonal_stack(lefts), _diagonal_stack(rights)
    # the kernels on x, and on x and -x as two members
    xs = ExactMatrix.stack([x, -x], (2,))
    kernels = [
        (linalg.diagonal_commutator(x, left, right), [x, x], lambda P, Q, y: y @ Q - P @ y),
        (linalg.diagonal_commutator(x, None, right), [x, x], lambda P, Q, y: y @ Q),
        (linalg.diagonal_commutator(x, left, None), [x, x], lambda P, Q, y: -(P @ y)),
        (linalg.entrywise(left, x), [x, x], lambda P, Q, y: P @ y),
        (linalg.diagonal_commutator(xs, left, right), [x, -x], lambda P, Q, y: y @ Q - P @ y),
    ]
    for got, members, formula in kernels:
        _assert_real_flag(got)
        assert got._peak_abs() >= _max_entry(got)
        for i, (p, q, y) in enumerate(zip(lefts, rights, members)):
            P, Q = ExactMatrix.column(p).to_diagonal(), ExactMatrix.column(q).to_diagonal()
            want = formula(_Reference(P), _Reference(Q), _Reference(y)).matrix
            member = got.take((2,), i)
            assert member == want
            _assert_real_flag(member)


class _Reference:
    """An ExactMatrix whose products go through _object_matmul."""

    def __init__(self, matrix):
        self.matrix = matrix

    def __matmul__(self, other):
        return _Reference(_object_matmul(self.matrix, other.matrix))

    def __sub__(self, other):
        return _Reference(self.matrix - other.matrix)

    def __neg__(self):
        return _Reference(-self.matrix)


def test_stack_diagonals_selections_and_zero_one_members():
    a = ExactMatrix.column([F(1, 2), 0, GR(0, 3)]).to_diagonal()
    b = ExactMatrix.column([1, 2**70, -4]).to_diagonal()
    stack = ExactMatrix.stack([a, b], (2,))
    columns = stack.diagonal_columns()
    assert columns.take((2,), 0) == ExactMatrix.column([F(1, 2), 0, GR(0, 3)])
    assert columns.take((2,), 1) == ExactMatrix.column([1, 2**70, -4])
    off = b + ExactMatrix.identity(1).scattered([0], [2], (3, 3))
    for stack in (ExactMatrix.stack([a, off], (2,)), ExactMatrix.stack([off.H], (1,))):
        with pytest.raises(ValueError, match="off its diagonal"):
            stack.diagonal_columns()
    # entries at rows and columns, as ExactMatrix selects them
    full = ExactMatrix.stack([a, off], (2,))
    for i, m in enumerate([a, off]):
        assert full.submatrix([2, 0], [1, 2]).take((2,), i) == m.submatrix([2, 0], [1, 2])
        assert full.take_cols([2]).take((2,), i) == m.take_cols([2])
        assert full.take_rows([1]).take((2,), i) == m.take_rows([1])
        assert full.submatrix([], [0]).take((2,), i) == ExactMatrix.zeros(0, 1)
    # 0/1 diagonals, read from numerators over a shared denominator of 2
    ones = [ExactMatrix.column(d).to_diagonal()
            for d in ([1, 0, 1], [F(1, 2), 0, 1], [GR(1, 1), 0, 0], [1, 1, 1], [0, 0, 0])]
    ones.append(ones[0] + ExactMatrix.identity(1).scattered([1], [0], (3, 3)))
    flags, diagonal = ExactMatrix.stack(ones, (6,)).zero_one_diagonals()
    assert flags.tolist() == [True, False, False, True, True, False]
    assert diagonal[[0, 3, 4]].tolist() == [[True, False, True], [True] * 3, [False] * 3]
    zeros = ExactMatrix.zeros(4, 2, 3)
    assert zeros.batch_shape == (4,) and zeros.shape == (2, 3) and zeros.is_zero()
    assert zeros.take((4,), 3) == ExactMatrix.zeros(2, 3)


def test_diagonal_inverse_scatter_and_nonzero_rows():
    d = ExactMatrix.column([F(2, 3), -5, GR(1, 2), 2**70]).to_diagonal()
    inverse = d.diagonal_columns().reciprocals().to_diagonal()
    assert inverse == d.inverse()
    assert inverse @ d == ExactMatrix.identity(4)
    x = ExactMatrix.from_rows([[F(1, 2), GR(0, 3), -7], [GR(2, -1), 2**70, F(-5, 9)]])
    assert x.reciprocals() == ExactMatrix.from_rows([[1 / v for v in row] for row in rows_of(x)])
    with pytest.raises(SingularGram):
        ExactMatrix.column([1, 0]).reciprocals()
    with pytest.raises(NotDiagonal):
        ExactMatrix.from_rows([[1, 1], [0, 1]]).diagonal_columns()
    x = ExactMatrix.from_rows([[F(1, 2), GR(0, 3)], [4, 2**70]])
    rows, cols = [3, 0], [1, 4]
    placed = x.scattered(rows, cols, (5, 6))
    assert placed.submatrix(rows, cols) == x
    assert placed.nonzero_rows() == [0, 3]
    assert placed.take_rows([1, 2, 4]).is_zero()
    assert placed.take_cols([0, 2, 3, 5]).is_zero()
    _assert_real_flag(placed)
    # batched columns become batched diagonals, and batched members are
    # placed member by member
    y = x.T @ x
    pair = ExactMatrix.stack([x, y], (2,))
    for i, m in enumerate([x, y]):
        assert pair.scattered(rows, cols, (5, 6)).take((2,), i) == m.scattered(rows, cols, (5, 6))
        assert (pair.take_cols([1]).to_diagonal().take((2,), i)
                == m.take_cols([1]).to_diagonal())
    assert ExactMatrix.column([0, GR(0, 1), 0, F(1, 3)]).nonzero_rows() == [1, 3]
    assert ExactMatrix.zeros(3, 2).nonzero_rows() == []


@pytest.mark.parametrize("spec", [
    build_example_MN(2, 2),
    build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1]),
], ids=["mn:2,2", "perm:3"])
def test_tensor_stacks_match_the_per_coordinate_loop(spec):
    h = build_fock(spec, 2).summand((1, ()))
    grams = [h.gram_A, h.gram_B1, h.gram_B2]
    left_B1, left_B2 = _members(h.left_B1), _members(h.left_B2)
    pair_ops = [op.kron(ExactMatrix.identity(h.dim)) for op in left_B1]
    pair = _loop_tensor_stacks(h.gram_B2, grams, left_B2)
    rng = random.Random(spec.name)
    for inner, stacks, ops in [
        (h.gram_B1, grams, left_B1),
        (h.gram_B2, [h.gram_A, None, h.gram_B2], left_B2),
        (h.gram_B1, pair, pair_ops),
        (pair[2], grams, left_B2),
    ]:
        want = _loop_tensor_stacks(inner, stacks, ops)
        # the stacks held as factors: the scalar Gram, and the entries on
        # every coordinate, where kron_sum_entries is kron_sum, and on
        # sorted subsets of them
        left_ops = ExactMatrix.stack(ops, (len(ops),))
        held = [fock._BalancedStack(inner, stack, left_ops) for stack in stacks if stack]
        assert held[0].scalarized() == want[0].scalarized()
        n = held[0].dim
        for idx in [range(n), sorted(rng.sample(range(n), n // 3)), [n - 1], []]:
            got = [stack.restrict(np.asarray(idx, np.intp)) for stack in held]
            assert [g.grams for g in got] == [w.grams.submatrix(idx, idx) for w in want if w]


# -- batched products: matrices with batch axes -----------------------------


def _stack_members(shape):
    return list(itertools.product(*(range(n) for n in shape)))


@st.composite
def stack_gate_operands(draw):
    """Two stacks whose batch shapes broadcast (each axis full on one side
    and full or 1 on the other), real or complex, over a denominator of 1,
    and the bound k*max|A|*max|B| of one part product, inner dimension k:
    it is 2^53 or just above it, the float gate, or, doubled for two
    complex stacks, 2^62, just above it, or 2^64, past the int64 range.
    Sizes run from single-entry members to large batches."""
    ndim = draw(st.integers(0, 2))
    full = draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim))
    a_batch, b_batch = [], []
    for n in full:
        keep_a = draw(st.booleans())
        a_batch.append(n if keep_a else 1)
        b_batch.append(n if not keep_a or draw(st.booleans()) else 1)
    k = 2 ** draw(st.integers(0, 4))
    m, n = (draw(st.sampled_from([1, 3, 8, 16])) for _ in range(2))
    complex_a, complex_b = draw(st.booleans()), draw(st.booleans())
    gate = draw(st.sampled_from([53, 62, 64]))
    doubled = gate > 53 and complex_a and complex_b
    e = gate - (k.bit_length() - 1) - (1 if doubled else 0)
    p = e // 2
    atop = 2**p + draw(st.sampled_from([0, 1]))
    btop = 2 ** (e - p)
    aligned = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(shape, top, on):
        if not on:
            return np.zeros(shape, np.int64)
        return rng.integers(top // 2 if aligned else -top, top, shape, endpoint=True)

    a_shape, b_shape = tuple(a_batch) + (m, k), tuple(b_batch) + (k, n)
    are, aim = part(a_shape, atop, True), part(a_shape, atop, complex_a)
    bre, bim = part(b_shape, btop, True), part(b_shape, btop, complex_b)
    are.flat[0], bre.flat[0] = atop, btop  # pin the maxima, so the bound is as stated
    return (are, aim), (bre, bim), k * atop * btop


@settings(max_examples=200, deadline=None)
@given(stack_gate_operands())
def test_stack_products_match_the_member_loop_and_an_object_reference(case):
    (are, aim), (bre, bim), bound = case
    a, b = ExactMatrix(are, aim, 1), ExactMatrix(bre, bim, 1)
    got, path = _gate_path(lambda: a @ b)
    shape = np.broadcast_shapes(are.shape[:-2], bre.shape[:-2])
    assert got.batch_shape == shape
    want_re, want_im = _object_product(are, aim, bre, bim)
    for index in _stack_members(shape):
        member = got.take(shape, index)
        assert member == ExactMatrix(want_re[index], want_im[index])
        assert member == a.take(shape, index) @ b.take(shape, index)
        _assert_real_flag(member)
    _assert_real_flag(got)
    # each part product is one matmul: the float gate reads one part
    # product's bound, only the int64 gate doubles for two complex stacks,
    # and the batch enters neither
    if bound * (2 if aim.any() and bim.any() else 1) > 2 ** 62:
        assert path == "object"
    elif bound > linalg._FLOAT_EXACT:
        assert path == "int64"
    else:
        assert path == "float"


def test_small_products_and_stacks_take_float_below_the_gate():
    # the bound alone picks the path: a single entry, a 4x8 @ 8x8 member and
    # a stack of nine of them all take float64, however little the work
    rng = np.random.default_rng(5)
    are, bre = rng.integers(-9, 9, (9, 1, 4, 8)), rng.integers(-9, 9, (8, 8))
    zeros_a, zeros_b = np.zeros_like(are), np.zeros_like(bre)
    a, b = ExactMatrix(are, zeros_a, 1), ExactMatrix(bre, zeros_b)
    want, _ = _object_product(are, zeros_a, bre, zeros_b)
    one = ExactMatrix.from_rows([[3]])
    got, path = _gate_path(lambda: one @ one)
    assert path == "float" and got == ExactMatrix.from_rows([[9]])
    for index in [(0, 0), (4, 0), (8, 0)]:
        got, path = _gate_path(lambda: a.take((9, 1), index) @ b)
        assert path == "float" and got == ExactMatrix(want[index], np.zeros((4, 8), np.int64))
    got, path = _gate_path(lambda: a @ b)
    assert path == "float"
    for index in _stack_members((9, 1)):
        assert got.take((9, 1), index) == ExactMatrix(want[index], np.zeros((4, 8), np.int64))


gaussian = st.builds(
    lambda a, b, c, d: GR(F(a, b), F(c, d)),
    st.integers(-9, 9), st.integers(1, 6), st.integers(-9, 9), st.integers(1, 6))


@st.composite
def stack_members(draw, shape, rows, cols, real):
    """ExactMatrix members, in C order over the batch shape, with Gaussian
    rational entries over mixed denominators (real ones when real is set)."""
    entry = st.builds(lambda a, b: GR(F(a, b)), st.integers(-9, 9), st.integers(1, 6)) \
        if real else gaussian
    return [ExactMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                                 min_size=rows, max_size=rows)))
            for _ in range(math.prod(shape))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stack_arithmetic_matches_the_member_loop(data):
    draw = data.draw
    shape = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    broadcast = tuple(1 if draw(st.booleans()) else n for n in shape)
    m, k, n = (draw(st.integers(1, 3)) for _ in range(3))
    a_mats = draw(stack_members(shape, m, k, draw(st.booleans())))
    b_mats = draw(stack_members(broadcast, k, n, draw(st.booleans())))
    c_mats = draw(stack_members(broadcast, m, k, draw(st.booleans())))
    [e] = draw(stack_members((), k, n, draw(st.booleans())))
    a = ExactMatrix.stack(a_mats, shape)
    b = ExactMatrix.stack(b_mats, broadcast)
    c = ExactMatrix.stack(c_mats, broadcast)
    members = _stack_members(shape)

    def at(mats, batch, index):
        return mats[np.ravel_multi_index(tuple(min(i, s - 1) for i, s in zip(index, batch)),
                                         batch)]

    for got, want in [
        (a @ b, lambda i: at(a_mats, shape, i) @ at(b_mats, broadcast, i)),
        (a + c, lambda i: at(a_mats, shape, i) + at(c_mats, broadcast, i)),
        (c - a, lambda i: at(c_mats, broadcast, i) - at(a_mats, shape, i)),
        (-a, lambda i: -at(a_mats, shape, i)),
        (a.H, lambda i: at(a_mats, shape, i).H),
        (a @ e, lambda i: at(a_mats, shape, i) @ e),
        (e.H @ c.H, lambda i: e.H @ at(c_mats, broadcast, i).H),
        (c + at(a_mats, shape, members[0]), lambda i: at(c_mats, broadcast, i) + a_mats[0]),
    ]:
        _assert_real_flag(got)
        for index in members:
            assert got.take(shape, index) == want(index)
    nonzero = np.broadcast_to((a @ b).nonzero(), shape)
    for index in members:
        assert nonzero[index] == (not (at(a_mats, shape, index) @ at(b_mats, broadcast, index)).is_zero())
    # views on the batch axes keep every member
    flat = a.reshaped(shape, (len(members),))
    for j, index in enumerate(members):
        assert flat.take(flat.batch_shape, j) == a_mats[j]
        assert a.take(shape, (slice(None),) * len(shape) + (None,)).take(
            shape + (1,), index + (0,)) == at(a_mats, shape, index)
    # combinations along one batch axis
    coeffs = ExactMatrix.from_rows(draw(st.lists(
        st.lists(gaussian, min_size=2, max_size=2), min_size=len(members), max_size=len(members))))
    combined = flat.combine(coeffs)
    for j in range(2):
        want = ExactMatrix.zeros(m, k)
        for r, member in enumerate(a_mats):
            want = want + member.scale(coeffs[r, j])
        assert combined.take((2,), j) == want
    # the members as the rows of one matrix, each read row-major
    rows = flat.flattened()
    for j, member in enumerate(a_mats):
        assert rows.take_rows([j]) == ExactMatrix.from_rows([[x for row in rows_of(member) for x in row]])
    # one scalar per member, the stack broadcast to the scalars' shape
    grid = shape if len(shape) == 2 else (2,) + shape
    scalars = ExactMatrix.from_rows(draw(st.lists(
        st.lists(gaussian, min_size=grid[1], max_size=grid[1]), min_size=grid[0], max_size=grid[0])))
    scaled = a.scaled(scalars)
    _assert_real_flag(scaled)
    for index in _stack_members(grid):
        want = at(a_mats, shape, index[-len(shape):]).scale(scalars[index])
        assert scaled.take(grid, index) == want


def test_member_scalars_stay_exact_past_int64():
    # products past 2^62 take big integers, complex ones included, and
    # drop back to int64 where the result fits
    big = 2 ** 62
    a = ExactMatrix.stack([ExactMatrix.from_rows([[big, 1]]),
                           ExactMatrix.from_rows([[GR(1, 1), -big]])], (2,))
    scalars = ExactMatrix.from_rows([[4, GR(0, 1)], [F(1, 3), 0]])
    got = a.scaled(scalars)
    for index in _stack_members((2, 2)):
        assert got.take((2, 2), index) == a.take((2,), index[1:]).scale(scalars[index])
    assert got.take((2, 2), (1, 1)).is_zero()
    # a result drops back only when every value is at most 2^62: one in
    # (2^62, 2^63), which int64 holds, and one past 2^63, which it does
    # not, both stay big integers
    for value, dtype in [(2**62, np.int64), (-(2**62), np.int64), (2**62 + 1, object),
                         (-(2**63), object), (2**63 + 1, object)]:
        x = ExactMatrix.stack([ExactMatrix.from_rows([[3 * value, 3]])], (1,))
        got = x.scaled(ExactMatrix.from_rows([[F(1, 3)]]))
        assert got._re.dtype == dtype
        assert got.take((1, 1), (0, 0)) == ExactMatrix.from_rows([[value, 1]])


def test_stacks_with_empty_or_no_batch_axes():
    a = ExactMatrix(np.ones((0, 2, 3, 4), np.int64), np.zeros((0, 2, 3, 4), np.int64), 5)
    b = ExactMatrix(np.ones((1, 2, 4, 2), np.int64), np.zeros((1, 2, 4, 2), np.int64), 1)
    got = a @ b
    assert got.batch_shape == (0, 2)
    assert got.nonzero().shape == (0, 2)
    assert got.is_zero() and (got - got).is_zero()
    x = ExactMatrix.from_rows([[1, GR(0, 1)], [F(1, 2), 3]])
    one = ExactMatrix.stack([x], ())
    assert one.batch_shape == () and one == x
    assert (one @ x).take((), ()) == x @ x
    assert (x @ one - one @ x).take((), ()) == ExactMatrix.zeros(2, 2)
    assert bool(one.nonzero()) and not (one - x).nonzero()


def test_batched_members_equal_the_single_matrix_operations():
    # member k of a batched result is the operation on member k alone, for
    # a batch that mixes an int64-sized member with a big-integer one, over
    # mixed denominators and complex entries
    big = 2**70
    xs = [ExactMatrix.from_rows([[1, F(1, 2)], [GR(0, 3), -4]]),
          ExactMatrix.from_rows([[big, GR(1, big)], [F(1, 3), -big]])]
    ys = [ExactMatrix.from_rows([[F(2, 5), 0], [1, GR(2, -1)]]),
          ExactMatrix.from_rows([[-big, 3], [GR(0, 1), F(big, 7)]])]
    x, y = ExactMatrix.stack(xs, (2,)), ExactMatrix.stack(ys, (2,))
    assert xs[0]._re.dtype == np.int64 and x._re.dtype == object
    for got, want in [
        (x + y, lambda k: xs[k] + ys[k]),
        (x - y, lambda k: xs[k] - ys[k]),
        (x @ y, lambda k: xs[k] @ ys[k]),
        (x @ y, lambda k: _object_matmul(xs[k], ys[k])),
        (x.H, lambda k: xs[k].H),
        (linalg.entrywise(x, y), lambda k: linalg.entrywise(xs[k], ys[k])),
    ]:
        _assert_real_flag(got)
        for k in range(2):
            assert got.take((2,), k) == want(k)
    coeffs = ExactMatrix.from_rows([[2, GR(0, 1), F(1, 3)], [-1, big, 0]])
    combined = x.combine(coeffs)
    for j in range(3):
        assert combined.take((3,), j) == xs[0].scale(coeffs[0, j]) + xs[1].scale(coeffs[1, j])
    scalars = ExactMatrix.from_rows([[GR(1, 1), -big]])
    scaled = x.scaled(scalars)
    for k in range(2):
        assert scaled.take((1, 2), (0, k)) == xs[k].scale(scalars[0, k])


def test_single_matrix_operations_refuse_batch_axes():
    x = ExactMatrix.from_rows([[1, 2], [3, 4]])
    batch = ExactMatrix.stack([x, x], (2,))
    for call in (batch.rref, batch.inverse, batch.kernel_basis, batch.rank,
                 lambda: batch.solve(x), lambda: batch.kron(x), lambda: x.kron(batch),
                 lambda: ExactMatrix.hstack([x, batch]), lambda: ExactMatrix.vstack([batch]),
                 lambda: batch[0, 0]):
        with pytest.raises(ValueError, match="batch axes"):
            call()


# -- carried bounds: every result carries one, gates read exact peaks -------


def _holds_objects(x):
    return any(part.dtype == object for part in x._parts())


def _exact_path(a, b):
    """The path of a @ b when its gates read the exactly scanned peaks of
    a and b (see _gate_path): big integers for an object operand or past
    2^62, doubled for two complex operands; float64 at most 2^53; int64
    otherwise."""
    bound = a.ncols * _max_entry(a) * _max_entry(b)
    doubled = bound * (1 if a.is_real() or b.is_real() else 2)
    if _holds_objects(a) or _holds_objects(b) or doubled > 2**62:
        return "object"
    if bound <= linalg._FLOAT_EXACT:
        return "float"
    return "int64"


def _assert_carried(x):
    """x's carried peak bounds max |numerator|, and one marked exact is it."""
    peak = _max_entry(x)
    assert x._peak is None or x._peak >= peak
    if x._exact:
        assert x._peak == peak


@st.composite
def gated_chains(draw):
    """Three n x n matrices, some batched, and a chain of products, sums,
    selections, stacks and moves over them and their results. The matrices
    are real or complex, over a denominator of 1 or 3, and each has a peak
    that is unknown, exact or only a bound. Their entries reach 2^e, give
    or take a factor 2 and a unit, where n * 4^e is 2^53, 2^61 or 2^62: the
    float gate (n = 16 does enough work for it) and the int64 gate of a
    product, undoubled and doubled; one in six matrices holds big integers."""
    n = draw(st.sampled_from([2, 4, 16]))
    e = (draw(st.sampled_from([53, 61, 62])) - n.bit_length() + 1) // 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def part(top, shape):
        if top < 2**62:
            arr = rng.integers(-top, top, shape, endpoint=True)
        else:
            arr = rng.integers(-(2**30), 2**30, shape).astype(object) * (top >> 30)
        arr.flat[rng.integers(arr.size)] = top  # pin the maximum
        return arr

    def matrix():
        shape = draw(st.sampled_from([(n, n), (n, n), (2, n, n)]))
        if draw(st.integers(0, 5)):
            top = 2 ** (e + draw(st.sampled_from([-1, 0, 0, 1]))) + draw(st.sampled_from([-1, 0, 1]))
        else:
            top = 2**63
        im = part(top, shape) if draw(st.booleans()) else None
        # no peak yet, the exact one, or a bound above it, as a result of
        # some earlier kernel would carry
        peak = draw(st.sampled_from([None, top, 2 * top, 3 * top]))
        return ExactMatrix(part(top, shape), im, draw(st.sampled_from([1, 3])), _peak=peak,
                           _exact=peak == top)

    ops = st.tuples(st.sampled_from(["@", "@", "@", "+", "-", "select", "stack", "join", "move"]),
                    st.integers(0, 20), st.integers(0, 20),
                    st.lists(st.integers(0, 2 * n - 1), min_size=2 * n, max_size=2 * n))
    return n, [matrix() for _ in range(3)], draw(st.lists(ops, min_size=1, max_size=6))


@settings(max_examples=200, deadline=None)
@given(gated_chains())
def test_carried_bounds_hold_and_products_take_the_exact_peak_path(case):
    n, pool, chain = case
    for op, i, j, idx in chain:
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        rows, cols = [v % n for v in idx[:n]], [v % n for v in idx[n:]]
        single = not x.batch_shape and not y.batch_shape
        if op == "@":
            want = _exact_path(x, y)
            got, path = _gate_path(lambda: x @ y)
            assert path == want
            assert got == _object_matmul(x, y)
        elif op in "+-":
            got = x + y if op == "+" else x - y
        elif op == "select":
            got = x.submatrix(rows, cols)
        elif op == "stack" and single:
            got = ExactMatrix.stack([x, y], (2,))
        elif op == "stack":
            got = x.take(x.batch_shape, (0,) * len(x.batch_shape))
        elif op == "join" and single:
            joined = ExactMatrix.vstack([x, y]) if i % 2 else ExactMatrix.hstack([x, y])
            got = joined.take_rows(idx[:n]) if i % 2 else joined.take_cols(idx[n:])
        else:
            got = (x.T, -x, x.conj(), x.H)[i % 4]
        if op in "@+-":
            # a product or sum carries the bound its gate read
            assert got._peak is not None
        _assert_carried(got)
        _assert_real_flag(got)
        pool.append(got)
    for x in pool:
        _assert_carried(x)


def test_a_full_tower_run_scans_few_matrices(monkeypatch, capsys):
    # carried bounds decide every gate they can, so an exact scan happens
    # only where a bound crosses one, on a matrix not scanned before
    scans = []
    max_abs = linalg._max_abs

    def counted(arr):
        scans.append(arr.shape)
        return max_abs(arr)

    monkeypatch.setattr(linalg, "_max_abs", counted)
    assert cli.main(["full", "--builtin", "mn:2,2", "--depth", "4", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(scans) <= 600
