import json
from fractions import Fraction

import pytest

from quadmod import serialize
from quadmod.linalg import ExactMatrix
from quadmod.quadmodule import build_example_MN, build_example_alpha_beta
from quadmod.scalars import GaussianRational
from quadmod.serialize import SpecFormatError


def failing_ids(results):
    return [r.check_id for r in results if not r.passed]


def test_round_trip_preserves_the_bipartite_module():
    spec = build_example_MN(2, 3)
    text = serialize.dumps(spec)
    back = serialize.loads(text)
    assert back.name == spec.name
    assert back.dim == spec.dim
    assert back.basis_U == spec.basis_U
    assert back.basis_V == spec.basis_V
    assert back.left_B1 == spec.left_B1
    assert back.inner_A.coords == spec.inner_A.coords
    assert failing_ids(back.validate_axioms()) == []
    assert failing_ids(back.verify_finite_type()) == []


def test_round_trip_preserves_the_twisted_module():
    spec = build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])
    back = serialize.loads(serialize.dumps(spec))
    maps = back.derive_lambda()
    assert maps.lam1 == spec.derive_lambda().lam1
    assert failing_ids(back.validate_axioms()) == []


def test_dumps_is_deterministic():
    spec = build_example_MN(2, 2)
    assert serialize.dumps(spec) == serialize.dumps(spec)


def test_save_and_load(tmp_path):
    spec = build_example_MN(2, 2)
    path = tmp_path / "spec.json"
    serialize.save(spec, path)
    assert serialize.load(path).dim == 4


def test_scalars_survive_with_full_precision():
    third = GaussianRational(0, 1) * GaussianRational("1/3")
    entry = serialize.scalar_to_entry(third)
    assert entry == [0, 1, 1, 3]
    assert serialize.matrix_from_json([[entry]], 1, 1, "here")[0, 0] == third


def test_rejects_wrong_format_tag():
    spec = build_example_MN(2, 2)
    data = serialize.spec_to_dict(spec)
    data["format"] = "quadmod-spec-v0"
    with pytest.raises(SpecFormatError, match="format tag"):
        serialize.spec_from_dict(data)


def test_rejects_non_json_and_non_object():
    with pytest.raises(SpecFormatError, match="not valid JSON"):
        serialize.loads("{broken")
    with pytest.raises(SpecFormatError, match="top level"):
        serialize.loads("[1, 2]")


def test_rejects_missing_fields_and_bad_dims():
    spec = build_example_MN(2, 2)
    data = serialize.spec_to_dict(spec)
    del data["basis_U"]
    with pytest.raises(SpecFormatError, match="basis_U"):
        serialize.spec_from_dict(data)

    data = serialize.spec_to_dict(spec)
    data["dims"]["H"] = 0
    with pytest.raises(SpecFormatError, match="dims.H"):
        serialize.spec_from_dict(data)

    data = serialize.spec_to_dict(spec)
    data["dims"]["A"] = True
    with pytest.raises(SpecFormatError, match="dims.A"):
        serialize.spec_from_dict(data)


def test_rejects_malformed_scalars():
    with pytest.raises(SpecFormatError, match="four integers"):
        serialize.matrix_from_json([[[1, 2, 3]]], 1, 1, "here")
    with pytest.raises(SpecFormatError, match="four integers"):
        serialize.matrix_from_json([[[1, 2, 3, "x"]]], 1, 1, "here")
    with pytest.raises(SpecFormatError, match="zero denominator"):
        serialize.matrix_from_json([[[1, 0, 0, 1]]], 1, 1, "here")


def test_rejects_shape_mismatches():
    spec = build_example_MN(2, 2)
    data = serialize.spec_to_dict(spec)
    data["left_B1"][0] = data["left_B1"][0][:-1]
    with pytest.raises(SpecFormatError, match=r"left_B1\[0\]"):
        serialize.spec_from_dict(data)

    data = serialize.spec_to_dict(spec)
    data["basis_V"] = []
    with pytest.raises(SpecFormatError, match="nonempty"):
        serialize.spec_from_dict(data)


def test_loaded_json_matches_indented_layout():
    # the file layout is stable enough to diff in version control
    spec = build_example_MN(2, 2)
    text = serialize.dumps(spec)
    parsed = json.loads(text)
    assert parsed["format"] == "quadmod-spec-v1"
    assert text == json.dumps(parsed, indent=1, sort_keys=True)


def test_matrix_round_trip_helpers():
    m = ExactMatrix.from_rows([[1, GaussianRational(0, 1)], [GaussianRational("1/2"), 3]])
    data = serialize.matrix_to_json(m)
    assert serialize.matrix_from_json(data, 2, 2, "here") == m
    with pytest.raises(SpecFormatError, match="here"):
        serialize.matrix_from_json(data, 3, 2, "here")


def scalar(entry):
    re_num, re_den, im_num, im_den = entry
    return GaussianRational(Fraction(re_num, re_den), Fraction(im_num, im_den))


@pytest.mark.parametrize("rows", [
    # negative and unreduced denominators
    [[[1, -2, 0, 1], [6, 4, -3, -9]], [[-5, -10, 2, 6], [0, 7, 0, -3]]],
    # numerators and denominators above 2^63
    [[[2**70 + 1, 1, 0, 1], [1, 2**64, -(2**65), 3]], [[3, 1, 0, 1], [-(2**80), 2**80 + 2, 0, 1]]],
    # numerators above 2^63 that reduce to small values
    [[[2**64, 2**63, 0, 1], [3 * 2**66, -(2**66), 2**70, 2**70]]],
    # all zero, over denominators that vanish in the reduction
    [[[0, 5, 0, -7], [0, 1, 0, 2**70]], [[0, -1, 0, 1], [0, 3, 0, 3]]],
])
def test_loader_matches_from_rows(rows):
    got = serialize.matrix_from_json(rows, len(rows), len(rows[0]), "here")
    assert got == ExactMatrix.from_rows([[scalar(e) for e in row] for row in rows])
    column = [row[0] for row in rows]
    assert serialize.vector_from_json(column, len(column), "here") == \
        ExactMatrix.column([scalar(e) for e in column])


@pytest.mark.parametrize("entry, message", [
    ([1, 2, 3], "scalar entry must be four integers, got [1, 2, 3]"),
    ([1, 2, 3, "x"], "scalar entry must be four integers, got [1, 2, 3, 'x']"),
    ([1, True, 0, 1], "scalar entry must be four integers, got [1, True, 0, 1]"),
    ([1, 1, 0, False], "scalar entry must be four integers, got [1, 1, 0, False]"),
    ([1, 2.0, 0, 1], "scalar entry must be four integers, got [1, 2.0, 0, 1]"),
    ([1, 2], "scalar entry must be four integers, got [1, 2]"),
    ([1, 1, 0, 1, 0], "scalar entry must be four integers, got [1, 1, 0, 1, 0]"),
    ({"re": 1}, "scalar entry must be four integers, got {'re': 1}"),
    ("1/2", "scalar entry must be four integers, got '1/2'"),
    ([1, 0, 0, 1], "scalar entry has a zero denominator"),
    ([1, 1, 0, 0], "scalar entry has a zero denominator"),
])
def test_loader_keeps_the_malformed_entry_messages(entry, message):
    for load in (lambda: serialize.matrix_from_json([[[0, 1, 0, 1], entry]], 1, 2, "here"),
                 lambda: serialize.vector_from_json([entry], 1, "here")):
        with pytest.raises(SpecFormatError) as err:
            load()
        assert str(err.value) == message


def test_loader_accepts_tuples_negative_denominators_and_big_integers():
    big = 2**80
    want = GaussianRational(Fraction(-1, 2), Fraction(big, 3))
    assert serialize.matrix_from_json([[(1, -2, big, 3)]], 1, 1, "here")[0, 0] == want
