"""JSON interchange for module specifications.

The on-disk format is tagged "quadmod-spec-v1". Every scalar is stored as
a four-integer list [reNum, reDen, imNum, imDen] so the files stay exact;
matrices are row-major lists of such entries, vectors are flat lists, and
the three inner products are lists of coordinate Gram matrices.

Each matrix field (an operator list, a Gram stack, a hom or a vector list)
is read in bulk. Its nesting is checked one level at a time over the whole
field: every item of a level must be a list of the expected length, and
every entry a list or tuple of four. Then all its scalars at once: each
must be an int but not a bool (JSON true and false load as bools), and no
denominator may be zero. The field's integers then become one batch in one
step (ExactMatrix.from_flat_entries): a list of matrices or vectors is one
batched matrix, its members along the first axis, over the one lcm of all
the field's denominators, reduced once as from_entries reduces a matrix,
and the spec stores that batch as it is. The writer reads each entry back
as its reduced fraction, so the shared denominator never shows in a file.
When a bulk check fails, the field is walked again entry by entry in
stored order only to raise the message of its first defect, so a file
with several defects is rejected for the same one, with the same message,
as an entry-by-entry reader would give. A file that is not UTF-8 text, is
not JSON or nests too deeply to parse is rejected with a SpecFormatError
as well.
"""

from __future__ import annotations

import json
from itertools import chain

from .algebras import AlgebraHom, CommAlgebra
from .linalg import ExactMatrix, GramStack
from .quadmodule import QuadModuleSpec
from .scalars import GaussianRational

FORMAT_TAG = "quadmod-spec-v1"

_MATRIX_LIST_FIELDS = ("right_B1", "right_B2", "left_B1", "left_B2")
_STACK_FIELDS = ("inner_A", "inner_B1", "inner_B2")
_HOM_FIELDS = ("left_embed_1", "left_embed_2", "right_embed_1", "right_embed_2")
_VECTOR_FIELDS = ("basis_U", "basis_V")


class SpecFormatError(ValueError):
    """The JSON document does not describe a well-formed specification."""


def scalar_to_entry(value: GaussianRational) -> list[int]:
    return [
        value.re.numerator,
        value.re.denominator,
        value.im.numerator,
        value.im.denominator,
    ]


def _checked_entry(entry):
    """A stored scalar entry, once it is four integers with nonzero
    denominators. The fields are tested one by one, without a generator:
    a failed bulk check walks the entries through this in order."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 4:
        raise SpecFormatError(f"scalar entry must be four integers, got {entry!r}")
    a, b, c, d = entry
    # bool is an int subclass that JSON true and false load as
    if (not (isinstance(a, int) and isinstance(b, int) and isinstance(c, int)
             and isinstance(d, int))
            or bool in (type(a), type(b), type(c), type(d))):
        raise SpecFormatError(f"scalar entry must be four integers, got {entry!r}")
    if b == 0 or d == 0:
        raise SpecFormatError("scalar entry has a zero denominator")
    return entry


def _all_of(items, kinds) -> bool:
    """Whether every item is an instance of kinds, read off the set of
    their types."""
    return all(issubclass(t, kinds) for t in set(map(type, items)))


def _bulk_scalars(data, lengths):
    """(flat, sizes) for a nested field that passes every bulk check, None
    otherwise. Level k must be lists of lengths[k] items each (None: one
    nonzero length), the last level entries, each a list or tuple of four
    ints, not bools, with nonzero denominators; flat holds the entries'
    integers row-major and sizes the lengths found."""
    level, sizes = [data], []
    for n in lengths:
        if not _all_of(level, list):
            return None
        found = set(map(len, level))
        size = found.pop()
        if found or not size or (n is not None and size != n):
            return None
        sizes.append(size)
        level = list(chain.from_iterable(level))
    if not _all_of(level, (list, tuple)) or set(map(len, level)) != {4}:
        return None
    flat = list(chain.from_iterable(level))
    types = set(map(type, flat))
    if bool in types or not all(issubclass(t, int) for t in types) or 0 in flat[1::2]:
        return None
    return flat, tuple(sizes)


def _read(data, lengths, walk):
    """(flat, sizes) of a nested field (see _bulk_scalars); when a bulk
    check fails, walk() walks the field entry by entry and raises the
    SpecFormatError of its first defect."""
    scalars = _bulk_scalars(data, lengths)
    if scalars is None:
        walk()
        raise AssertionError("internal error: a bulk check failed on a well-formed field")
    return scalars


def _walk_matrix(data, nrows: int, ncols: int, where: str):
    if not isinstance(data, list) or len(data) != nrows:
        raise SpecFormatError(f"{where}: expected {nrows} rows")
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != ncols:
            raise SpecFormatError(f"{where}: row {r} must have {ncols} entries")
        for entry in row:
            _checked_entry(entry)


def matrix_to_json(m: ExactMatrix) -> list:
    return [
        [scalar_to_entry(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)
    ]


def matrix_from_json(data, nrows: int, ncols: int, where: str) -> ExactMatrix:
    flat, shape = _read(data, (nrows, ncols), lambda: _walk_matrix(data, nrows, ncols, where))
    return ExactMatrix.from_flat_entries(flat, shape)


def matrices_from_json(data, count: int, nrows: int, ncols: int, where: str) -> ExactMatrix:
    """A list of count matrices, read in bulk as one batch of them."""
    def walk():
        if not isinstance(data, list) or len(data) != count:
            raise SpecFormatError(f"{where}: expected {count} matrices")
        for i, m in enumerate(data):
            _walk_matrix(m, nrows, ncols, f"{where}[{i}]")

    flat, shape = _read(data, (count, nrows, ncols), walk)
    return ExactMatrix.from_flat_entries(flat, shape)


def vector_to_json(v: ExactMatrix) -> list:
    return [scalar_to_entry(v[i, 0]) for i in range(v.nrows)]


def vectors_from_json(data, dim: int, where: str) -> ExactMatrix:
    """A nonempty list of vectors, read in bulk as one batch of columns."""
    def walk():
        if not isinstance(data, list) or not data:
            raise SpecFormatError(f"{where}: expected a nonempty list of vectors")
        for i, v in enumerate(data):
            if not isinstance(v, list) or len(v) != dim:
                raise SpecFormatError(f"{where}[{i}]: expected {dim} entries")
            for entry in v:
                _checked_entry(entry)

    flat, shape = _read(data, (None, dim), walk)
    return ExactMatrix.from_flat_entries(flat, shape + (1,))


def spec_to_dict(spec: QuadModuleSpec) -> dict:
    out = {
        "format": FORMAT_TAG,
        "name": spec.name,
        "dims": {
            "A": spec.algebra_A.dim,
            "B1": spec.algebra_B1.dim,
            "B2": spec.algebra_B2.dim,
            "H": spec.dim,
        },
    }
    for field in _MATRIX_LIST_FIELDS:
        out[field] = [matrix_to_json(m) for m in getattr(spec, field)]
    for field in _STACK_FIELDS:
        out[field] = [matrix_to_json(g) for g in getattr(spec, field).coords]
    for field in _HOM_FIELDS:
        out[field] = matrix_to_json(getattr(spec, field).matrix)
    for field in _VECTOR_FIELDS:
        out[field] = [vector_to_json(v) for v in getattr(spec, field)]
    return out


def spec_from_dict(data) -> QuadModuleSpec:
    if not isinstance(data, dict):
        raise SpecFormatError("top level must be a JSON object")
    tag = data.get("format")
    if tag != FORMAT_TAG:
        raise SpecFormatError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    dims = data.get("dims")
    if not isinstance(dims, dict):
        raise SpecFormatError("missing dims object")
    sizes = {}
    for key in ("A", "B1", "B2", "H"):
        val = dims.get(key)
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise SpecFormatError(f"dims.{key} must be a positive integer")
        sizes[key] = val
    for field in ("name",) + _MATRIX_LIST_FIELDS + _STACK_FIELDS + _HOM_FIELDS + _VECTOR_FIELDS:
        if field not in data:
            raise SpecFormatError(f"missing field {field!r}")
    name = data["name"]
    if not isinstance(name, str):
        raise SpecFormatError("name must be a string")

    alg_A = CommAlgebra(sizes["A"])
    alg_B1 = CommAlgebra(sizes["B1"])
    alg_B2 = CommAlgebra(sizes["B2"])
    dim = sizes["H"]

    def matrix_list(field, count):
        return matrices_from_json(data[field], count, dim, dim, field)

    right_B1 = matrix_list("right_B1", sizes["B1"])
    right_B2 = matrix_list("right_B2", sizes["B2"])
    left_B1 = matrix_list("left_B1", sizes["B1"])
    left_B2 = matrix_list("left_B2", sizes["B2"])

    stacks = {}
    for field, count in (
        ("inner_A", sizes["A"]),
        ("inner_B1", sizes["B1"]),
        ("inner_B2", sizes["B2"]),
    ):
        stacks[field] = GramStack(matrix_list(field, count))

    homs = {}
    for field in _HOM_FIELDS:
        target = alg_B1 if field.endswith("1") else alg_B2
        homs[field] = AlgebraHom(
            alg_A,
            target,
            matrix_from_json(data[field], target.dim, alg_A.dim, field),
        )

    try:
        return QuadModuleSpec(
            algebra_A=alg_A,
            algebra_B1=alg_B1,
            algebra_B2=alg_B2,
            dim=dim,
            right_B1=right_B1,
            right_B2=right_B2,
            left_B1=left_B1,
            left_B2=left_B2,
            inner_A=stacks["inner_A"],
            inner_B1=stacks["inner_B1"],
            inner_B2=stacks["inner_B2"],
            left_embed_1=homs["left_embed_1"],
            left_embed_2=homs["left_embed_2"],
            right_embed_1=homs["right_embed_1"],
            right_embed_2=homs["right_embed_2"],
            basis_U=vectors_from_json(data["basis_U"], dim, "basis_U"),
            basis_V=vectors_from_json(data["basis_V"], dim, "basis_V"),
            name=name,
        )
    except ValueError as exc:
        if isinstance(exc, SpecFormatError):
            raise
        raise SpecFormatError(str(exc)) from exc


def dumps(spec: QuadModuleSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=1, sort_keys=True)


def loads(text: str) -> QuadModuleSpec:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecFormatError("not valid JSON: nested too deeply to parse") from exc
    return spec_from_dict(data)


def save(spec: QuadModuleSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(spec))
        fh.write("\n")


def load(path) -> QuadModuleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpecFormatError(f"not UTF-8 text: {exc}") from exc
    return loads(text)
