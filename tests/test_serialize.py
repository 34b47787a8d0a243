import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quadmod import cli, linalg, serialize
from quadmod.linalg import ExactMatrix, GramStack
from quadmod.quadmodule import QuadModuleSpec, build_example_MN, build_example_alpha_beta
from quadmod.scalars import GaussianRational
from quadmod.serialize import SpecFormatError

from test_cli import rotated_bipartite
from test_metamorphic import WEIGHTS, rescaled


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
    assert serialize.vectors_from_json([column], len(column), "here") == \
        ExactMatrix.stack([ExactMatrix.column([scalar(e) for e in column])], (1,))


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
                 lambda: serialize.matrices_from_json([[[[0, 1, 0, 1], entry]]], 1, 1, 2, "here"),
                 lambda: serialize.vectors_from_json([[entry]], 1, "here")):
        with pytest.raises(SpecFormatError) as err:
            load()
        assert str(err.value) == message


def test_loader_accepts_tuples_negative_denominators_and_big_integers():
    big = 2**80
    want = GaussianRational(Fraction(-1, 2), Fraction(big, 3))
    assert serialize.matrix_from_json([[(1, -2, big, 3)]], 1, 1, "here")[0, 0] == want


# -- the bulk reader against the per-entry reference ----------------------

# at and around the int64 bounds of linalg (2^62 for stored values, 2^63
# for the array type), and denominators that each fit in int64 but whose
# lcm does not
_EDGES = [2**62, 2**62 + 1, 2**63, -(2**62), -(2**62) - 1, -(2**63)]
_WIDE_DENOMINATORS = [2**61 - 1, 2**61 + 1, 3**39, 5**27]
numerators = st.one_of(st.integers(-6, 6), st.sampled_from(_EDGES))
denominators = st.one_of(st.integers(-6, 6).filter(bool), st.sampled_from(_EDGES + _WIDE_DENOMINATORS))


@st.composite
def stored_matrices(draw, count, nrows, ncols):
    """count stored matrices, entries as lists or tuples, some all zero."""
    def entry(zero):
        num = st.just(0) if zero else numerators
        e = draw(st.tuples(num, denominators, num, denominators))
        return e if draw(st.booleans()) else list(e)

    zeros = [draw(st.booleans()) for _ in range(count)]
    return [[[entry(z) for _ in range(ncols)] for _ in range(nrows)] for z in zeros]


def reference_matrix(rows):
    """The matrix the loader built before reading in bulk: every entry
    checked, then from_entries."""
    return ExactMatrix.from_entries([[serialize._checked_entry(e) for e in row] for row in rows])


def stored_form(m):
    """An ExactMatrix as stored: denominator, dtype, numerators and the
    real flag, so equal values over different representations differ."""
    return m._den, m._re.dtype, m._im.dtype, m._re.tolist(), m._im.tolist(), m._real


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_bulk_reader_matches_the_per_entry_reference(count, nrows, ncols, data):
    # a field is one batch over the lcm of all its denominators: the stack
    # of the members the per-entry reference builds
    stored = data.draw(stored_matrices(count, nrows, ncols))
    want = [reference_matrix(rows) for rows in stored]
    got = serialize.matrices_from_json(stored, count, nrows, ncols, "here")
    assert stored_form(got) == stored_form(ExactMatrix.stack(want, (count,)))
    got = serialize.matrix_from_json(stored[0], nrows, ncols, "here")
    assert stored_form(got) == stored_form(want[0])
    columns = [[row[0] for row in rows] for rows in stored]
    want = [reference_matrix([[e] for e in column]) for column in columns]
    got = serialize.vectors_from_json(columns, nrows, "here")
    assert stored_form(got) == stored_form(ExactMatrix.stack(want, (count,)))


@pytest.mark.parametrize("rows", [
    # denominators that fit in int64 but whose lcm does not
    [[(1, 2**61 - 1, 0, 1), (1, 2**61 + 1, 0, 1)]],
    [[(2, 3**39, 0, 1)], [(0, 1, 1, 5**27)]],
    # values at 2^62, 2^62 + 1 and 2^63, some reducing to small ones
    [[(2**62, 1, 0, 1), (0, 1, 2**62 + 1, 1)], [(2**63, 2**63, 0, 1), (-(2**63), 2, 0, 1)]],
    [[(-(2**63), 1, 0, 1)]],
    # all zero over wide denominators
    [[(0, 5**27, 0, 3**39), (0, -1, 0, 2**63)]],
])
def test_bulk_reader_matches_the_reference_at_the_int64_edges(rows):
    got = serialize.matrices_from_json([rows, rows], 2, len(rows), len(rows[0]), "here")
    assert stored_form(got) == stored_form(ExactMatrix.stack([reference_matrix(rows)] * 2, (2,)))


@pytest.mark.parametrize("members", [
    # each member's denominator fits in int64, the field's lcm does not
    [[[(1, 2**61 - 1, 0, 1)]], [[(1, 2**61 + 1, 0, 1)]]],
    [[[(2, 3**39, 0, 1)]], [[(0, 1, 1, 5**27)]], [[(1, 1, 0, 1)]]],
    # one member reduces to a small value, the other stays past 2^62
    [[[(2**63, 2**63, 0, 1)]], [[(2**62 + 1, 1, 0, 1)]]],
])
def test_members_over_different_wide_denominators_share_one_batch(members):
    got = serialize.matrices_from_json(members, len(members), 1, 1, "here")
    want = ExactMatrix.stack([reference_matrix(rows) for rows in members], (len(members),))
    assert stored_form(got) == stored_form(want)


def _member_denominators(field) -> set:
    """The lcm of each stored member's entry denominators."""
    return {math.lcm(*np.array(m, dtype=object).reshape(-1, 4)[:, 1::2].ravel()) for m in field}


@pytest.mark.parametrize("make", [
    lambda: rescaled(build_example_MN(2, 2), WEIGHTS),
    rotated_bipartite,
], ids=["weighted-mn:2,2", "rotated_bipartite"])
def test_one_denominator_per_field_writes_back_every_entry(make):
    # some field's members have different denominators; loaded, each field
    # is one batch over their lcm, and the writer still writes each entry's
    # reduced fraction
    text = serialize.dumps(make())
    data = json.loads(text)
    fields = serialize._MATRIX_LIST_FIELDS + serialize._STACK_FIELDS + serialize._VECTOR_FIELDS
    assert any(len(_member_denominators(data[f])) > 1 for f in fields)
    assert serialize.dumps(serialize.loads(text)) == text


def test_loading_and_validating_restack_no_family(monkeypatch, tmp_path):
    # the loader hands each field to the spec as the batch it read, and the
    # spec's stages read it as it is: neither the loader nor a QuadModuleSpec
    # method asks for a concatenation. The one that asks is the first caller
    # above the functions that only pass a list on to it.
    path = tmp_path / "spec.json"
    serialize.save(build_example_MN(2, 2), path)
    concatenated, callers = linalg._concatenated, []
    passing = ("_joined", "hstack", "vstack", "stack", "as_batch")

    def spied(mats, join):
        frame = sys._getframe(1)
        while (frame.f_code.co_name in passing
               or isinstance(frame.f_locals.get("self"), GramStack)):
            frame = frame.f_back
        if (frame.f_globals["__name__"] == "quadmod.serialize"
                or isinstance(frame.f_locals.get("self"), QuadModuleSpec)):
            callers.append(f"{frame.f_code.co_name}:{frame.f_lineno}")
        return concatenated(mats, join)

    monkeypatch.setattr(linalg, "_concatenated", spied)
    section = cli.validate_section(serialize.load(path))
    assert all(check["passed"] for check in section["checks"])
    assert callers == []


def test_well_formed_files_load_without_the_per_entry_walk(monkeypatch, tmp_path):
    calls = []
    checked = serialize._checked_entry

    def counted(entry):
        calls.append(entry)
        return checked(entry)

    monkeypatch.setattr(serialize, "_checked_entry", counted)
    for spec in (build_example_MN(2, 3), build_example_alpha_beta(3, [1, 2, 0], [2, 0, 1])):
        path = tmp_path / "spec.json"
        serialize.save(spec, path)
        back = serialize.load(path)
        assert back.inner_A == spec.inner_A and back.basis_V == spec.basis_V
    assert calls == []
    # a defect sends the field, and only that field, through the walk
    data = serialize.spec_to_dict(build_example_MN(2, 2))
    data["left_B1"][0][1][1] = [1, 1, 0, True]
    with pytest.raises(SpecFormatError, match="got \\[1, 1, 0, True\\]"):
        serialize.spec_from_dict(data)
    assert 0 < len(calls) <= 4 * 4


@pytest.mark.parametrize("corrupt, message", [
    # an entry defect before a row defect of the same matrix
    (lambda d: (d["left_B1"][0][0].__setitem__(1, [1, 2]), d["left_B1"][0].__setitem__(1, [])),
     "scalar entry must be four integers, got [1, 2]"),
    # a row defect before an entry defect in a later row
    (lambda d: (d["left_B1"][0].__setitem__(1, []), d["left_B1"][0][2].__setitem__(0, "x")),
     "left_B1[0]: row 1 must have 4 entries"),
    # an entry of matrix 0 before the shape of matrix 1
    (lambda d: (d["inner_B1"][0][3].__setitem__(3, [1, 0, 0, 1]), d["inner_B1"].__setitem__(1, "x")),
     "scalar entry has a zero denominator"),
    # an earlier field before a later one
    (lambda d: (d["right_B2"][1][0].__setitem__(0, [1, 1.0, 0, 1]), d.__setitem__("left_B1", 5)),
     "scalar entry must be four integers, got [1, 1.0, 0, 1]"),
    (lambda d: d.__setitem__("inner_A", d["inner_A"] + d["inner_A"]), "inner_A: expected 1 matrices"),
    (lambda d: d["right_embed_2"].__setitem__(0, []), "right_embed_2: row 0 must have 1 entries"),
    (lambda d: d["basis_U"].__setitem__(1, d["basis_U"][1][:-1]), "basis_U[1]: expected 4 entries"),
    (lambda d: d["basis_V"][0].__setitem__(2, (1, 2, 3, False)),
     "scalar entry must be four integers, got (1, 2, 3, False)"),
])
def test_a_failed_bulk_check_names_the_first_defect_in_stored_order(corrupt, message):
    data = serialize.spec_to_dict(build_example_MN(2, 2))
    corrupt(data)
    with pytest.raises(SpecFormatError) as err:
        serialize.spec_from_dict(data)
    assert str(err.value) == message


def test_undecodable_and_deeply_nested_files_are_format_errors(tmp_path):
    path = tmp_path / "spec.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(SpecFormatError, match="not UTF-8 text"):
        serialize.load(path)
    with pytest.raises(SpecFormatError, match="nested too deeply"):
        serialize.loads("[" * 100000 + "]" * 100000)
