import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_term_matrix_obj
from kronx.exactnum import DomainError, SqrtRational, scalar_mul
from kronx.hubbard import _KINDS, Columns, ResourceError, XSum, identity, x_op
import kronx.serialize as serialize_module
from kronx.kron import kron
from kronx.serialize import (
    _WIDTH,
    _parse_rows,
    load_matrix,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
    merge_spectrum,
    spectrum_to_csv,
)
from kronx.su2 import casimir


class TestMatrixJson:
    def test_rational_shape(self):
        x = XSum(2, {(1, 2): Fraction(1, 2), (2, 1): -3})
        assert matrix_to_obj(x) == {
            "order": 2,
            "kind": "rational",
            "terms": [[1, 2, 1, 2], [2, 1, -3, 1]],
        }

    def test_sqrt_shape(self):
        x = XSum(2, {(1, 1): SqrtRational.sqrt(Fraction(1, 2))})
        assert matrix_to_obj(x) == {
            "order": 2,
            "kind": "sqrt",
            "terms": [[1, 1, 1, 1, 2]],
        }

    def test_complex_shape(self):
        x = XSum(2, {(1, 2): 1 - 2j})
        obj = matrix_to_obj(x)
        assert obj["kind"] == "complex"
        assert obj["terms"] == [[1, 2, 1.0, -2.0]]

    def test_mixed_exact_promotes_to_sqrt(self):
        x = XSum(2, {(1, 1): Fraction(1, 2), (2, 2): SqrtRational.sqrt(2)})
        obj = matrix_to_obj(x)
        assert obj["kind"] == "sqrt"
        assert obj["terms"][0] == [1, 1, 1, 1, 4]  # 1/2 as sqrt(1/4)

    def test_round_trip_identity(self):
        for x in (
            identity(4),
            XSum(3, {(1, 3): Fraction(-2, 7), (2, 2): 5}),
            XSum(2, {(1, 2): SqrtRational(-1, Fraction(3, 4))}),
            XSum(2, {(2, 1): 0.5 + 0.25j}),
        ):
            assert matrix_from_json(matrix_to_json(x)) == x

    def test_mixed_round_trip_compares_equal(self):
        x = XSum(2, {(1, 1): Fraction(1, 2), (2, 2): SqrtRational.sqrt(2)})
        assert matrix_from_json(matrix_to_json(x)) == x

    def test_byte_stable(self):
        x = XSum(3, {(2, 1): Fraction(1, 3), (1, 2): Fraction(2, 3)})
        assert matrix_to_json(x) == matrix_to_json(x)
        # terms come out row-major regardless of insertion order
        y = XSum(3, {(1, 2): Fraction(2, 3), (2, 1): Fraction(1, 3)})
        assert matrix_to_json(x) == matrix_to_json(y)

    def test_terms_sorted_lexicographically(self):
        x = XSum(3, {(3, 1): 1, (1, 3): 1, (2, 2): 1})
        rows = matrix_to_obj(x)["terms"]
        assert [r[:2] for r in rows] == [[1, 3], [2, 2], [3, 1]]

    def test_file_round_trip(self, tmp_path):
        x = XSum(2, {(1, 1): Fraction(3, 5)})
        path = tmp_path / "m.json"
        path.write_text(matrix_to_json(x) + "\n")
        assert load_matrix(str(path)) == x
        assert path.read_text().endswith("\n")

    def test_kind_defaults_to_rational(self):
        x = matrix_from_obj({"order": 2, "terms": [[1, 1, 1, 2]]})
        assert x.coeff(1, 1) == Fraction(1, 2)


class TestMatrixValidation:
    def test_not_json(self):
        with pytest.raises(DomainError):
            matrix_from_json("not json at all {")

    def test_missing_keys(self):
        with pytest.raises(DomainError):
            matrix_from_obj({"order": 2})
        with pytest.raises(DomainError):
            matrix_from_obj([1, 2, 3])

    def test_bad_order(self):
        for order in (0, -1, 2.5, "2"):
            with pytest.raises(DomainError):
                matrix_from_obj({"order": order, "terms": []})

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            matrix_from_obj({"order": 2, "kind": "decimal", "terms": []})

    def test_wrong_row_width(self):
        with pytest.raises(DomainError):
            matrix_from_obj({"order": 2, "terms": [[1, 1, 1]]})
        with pytest.raises(DomainError):
            matrix_from_obj(
                {"order": 2, "kind": "sqrt", "terms": [[1, 1, 1, 2]]}
            )

    def test_index_bounds(self):
        for i, j in ((0, 1), (1, 3), (-1, 1)):
            with pytest.raises(DomainError):
                matrix_from_obj({"order": 2, "terms": [[i, j, 1, 1]]})

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            matrix_from_obj({"order": 2, "terms": [[1, 1, 1, 0]]})

    def test_negative_radicand(self):
        with pytest.raises(DomainError):
            matrix_from_obj(
                {"order": 2, "kind": "sqrt", "terms": [[1, 1, 1, -2, 1]]}
            )

    def test_bad_sign(self):
        with pytest.raises(DomainError):
            matrix_from_obj(
                {"order": 2, "kind": "sqrt", "terms": [[1, 1, 2, 1, 1]]}
            )

    def test_duplicate_term(self):
        with pytest.raises(DomainError):
            matrix_from_obj(
                {"order": 2, "terms": [[1, 1, 1, 1], [1, 1, 2, 1]]}
            )

    def test_order_cap_is_checked_before_any_row(self, monkeypatch):
        monkeypatch.setenv("KRONX_MAX_DIM", "8")
        with pytest.raises(ResourceError, match="order 9 exceeds"):
            matrix_from_obj({"order": 9, "terms": [[1, 1, 1, 0], None]})
        assert matrix_from_obj({"order": 8, "terms": [[8, 8, 1, 2]]}).nnz() == 1

    def test_non_integer_rational_parts(self):
        with pytest.raises(DomainError):
            matrix_from_obj({"order": 2, "terms": [[1, 1, 0.5, 1]]})

    def test_float_sign_is_rejected(self):
        # a sign of 1.0 would be written back as 1.0, not 1
        with pytest.raises(DomainError):
            matrix_from_obj(
                {"order": 2, "kind": "sqrt", "terms": [[1, 1, 1.0, 2, 1]]}
            )

    @pytest.mark.parametrize("row", [[2, 1, 0, 5, 1], [2, 1, 1, 0, 1]])
    def test_sign_disagreeing_with_radicand_names_the_row(self, row):
        with pytest.raises(DomainError, match=r"\(2,1\)"):
            matrix_from_obj({"order": 2, "kind": "sqrt", "terms": [row]})

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_complex_is_rejected_on_load(self, value):
        for row in (f"[1,1,{value},0]", f"[1,1,0,{value}]"):
            text = f'{{"order":1,"kind":"complex","terms":[{row}]}}'
            with pytest.raises(DomainError, match=r"\(1,1\)"):
                matrix_from_json(text)

    def test_complex_part_beyond_float_range_is_rejected(self):
        huge = {"order": 1, "kind": "complex", "terms": [[1, 1, 10**400, 0]]}
        with pytest.raises(DomainError, match=r"\(1,1\)"):
            matrix_from_obj(huge)

    @pytest.mark.parametrize(
        "c", [math.nan, math.inf, complex(0, -math.inf), complex(1, math.nan)]
    )
    def test_non_finite_complex_is_rejected_on_dump(self, c):
        with pytest.raises(DomainError, match=r"\(1,2\)"):
            matrix_to_json(XSum(2, {(1, 1): 1.0, (1, 2): c}))


def _listed(x):
    return [(key, type(c), repr(c)) for key, c in x.term_map().items()]


def _by_rows(obj):
    """The XSum a file states, built one row at a time with the scalar
    constructors: file order, zero rows dropped."""
    terms = {}
    for row in obj["terms"]:
        if obj["kind"] == "rational":
            c = Fraction(row[2], row[3])
        else:
            c = SqrtRational(row[2], Fraction(row[3], row[4]))
        if c:
            terms[(row[0], row[1])] = c
    return XSum(obj["order"], terms)


_EXACT_FILES = {
    "unsorted rational": {"order": 3, "kind": "rational", "terms": [
        [3, 1, 2, 5], [1, 2, -1, 7], [2, 2, 4, 1], [1, 1, 1, 3]]},
    "unreduced, negative and zero rational": {
        "order": 3, "kind": "rational", "terms": [
            [2, 3, 6, -4], [1, 1, 0, 5], [3, 3, -10, -15], [1, 3, 0, -2],
            [2, 1, -9, 3]]},
    "unsorted sqrt": {"order": 3, "kind": "sqrt", "terms": [
        [3, 3, 1, 2, 1], [1, 3, -1, 1, 3], [2, 1, 1, 7, 4]]},
    "unreduced, negative/negative and zero sqrt": {
        "order": 3, "kind": "sqrt", "terms": [
            [2, 2, -1, -8, -6], [1, 2, 0, 0, 5], [3, 1, 1, 12, 9],
            [1, 1, 0, 0, -3], [2, 3, -1, -4, -1]]},
}


class TestColumnReader:
    """The reader's column route, against the file read row by row."""

    @pytest.mark.parametrize("name", _EXACT_FILES)
    def test_same_sum_order_and_bytes_as_row_by_row(self, name):
        obj = _EXACT_FILES[name]
        got, want = matrix_from_obj(obj), _by_rows(obj)
        assert got._cols is not None
        assert got == want and _listed(got) == _listed(want)
        assert matrix_to_json(got) == matrix_to_json(want)
        assert matrix_to_obj(got) == matrix_to_obj(want)

    def test_dump_bytes(self):
        got = matrix_from_obj(_EXACT_FILES["unreduced, negative and zero rational"])
        assert matrix_to_json(got) == (
            '{"kind":"rational","order":3,"terms":'
            '[[2,1,-3,1],[2,3,-3,2],[3,3,2,3]]}'
        )
        got = matrix_from_obj(
            _EXACT_FILES["unreduced, negative/negative and zero sqrt"])
        assert matrix_to_json(got) == (
            '{"kind":"sqrt","order":3,"terms":'
            '[[2,2,-1,4,3],[2,3,-1,4,1],[3,1,1,4,3]]}'
        )

    def test_all_zero_sqrt_file_dumps_as_rational(self):
        got = matrix_from_obj(
            {"order": 2, "kind": "sqrt", "terms": [[1, 1, 0, 0, 1]]})
        assert got.nnz() == 0
        assert matrix_to_json(got) == matrix_to_json(XSum(2)) == (
            '{"kind":"rational","order":2,"terms":[]}'
        )

    @pytest.mark.parametrize("first, second, message", [
        ("duplicate", "zero den", "duplicate term at (1,1)"),
        ("zero den", "duplicate", "rational terms need integer num/den"),
    ])
    def test_first_of_two_faults_is_named(self, first, second, message):
        rows = [[1, 1, 1, 2], [2, 2, 1, 3], None, [3, 1, 1, 5], None]
        fault = {"duplicate": [1, 1, 4, 7], "zero den": [3, 3, 1, 0]}
        rows[2], rows[4] = fault[first], fault[second]
        with pytest.raises(DomainError) as exc:
            matrix_from_obj({"order": 3, "kind": "rational", "terms": rows})
        assert str(exc.value).startswith(message)

    def test_fields_past_int64_load_exactly(self):
        big = 2**64 + 13
        text = json.dumps({"order": 2, "kind": "sqrt", "terms": [
            [1, 2, -1, 3 * big, 6], [2, 1, 1, 2**63, 2**63 - 1],
            [2, 2, 1, -(2**63), -(2**62)]]})
        got = matrix_from_json(text)
        want = _by_rows(json.loads(text))
        assert _listed(got) == _listed(want)
        for col in got._cols.vals:
            assert all(type(v) is int for v in col.tolist())
        assert matrix_to_json(got) == (
            '{"kind":"sqrt","order":2,"terms":'
            f'[[1,2,-1,{big},2],[2,1,1,{2**63},{2**63 - 1}],[2,2,1,2,1]]}}'
        )
        # and through kron, against the per-term product
        k = kron(got, got)
        ref = XSum(4, {key: scalar_mul(c, d)
                       for key, c, d in _kron_terms(want, want)})
        assert _listed(k) == _listed(ref)
        assert matrix_to_json(k) == matrix_to_json(ref)
        assert matrix_from_json(matrix_to_json(k)) == k

    def test_rational_past_int64_round_trips(self):
        text = ('{"kind":"rational","order":1,"terms":'
                f'[[1,1,-{3**50},{2**70}]]}}')
        got = matrix_from_json(text)
        assert got.coeff(1, 1) == Fraction(-(3**50), 2**70)
        assert matrix_to_json(got) == text
        assert float(got.triplets()[2][0].real) == float(Fraction(-(3**50), 2**70))

    def test_int64_edge_values_stay_exact(self):
        # -2**63 fits int64 but its magnitude does not; (2**62 + 129) / 3
        # rounds differently when both ints are made floats first
        obj = {"order": 2, "kind": "rational", "terms": [
            [1, 1, -(2**63), 3], [2, 2, 2**62 + 129, 3], [1, 2, 5, 7]]}
        got, want = matrix_from_obj(obj), _by_rows(obj)
        assert _listed(got) == _listed(want)
        assert got.triplets()[2].tobytes() == want.triplets()[2].tobytes()
        assert got.triplets()[2][1].real == (2**62 + 129) / 3
        k = kron(got, got)
        ref = XSum(4, {key: c * d for key, c, d in _kron_terms(want, want)})
        assert _listed(k) == _listed(ref)
        assert k.triplets()[2].tobytes() == ref.triplets()[2].tobytes()

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["rational", "sqrt"]), st.integers(1, 3), st.data())
    def test_accepts_and_refuses_as_the_row_reader(self, kind, order, data):
        """Valid files with up to two faults planted: the column route must
        take exactly the files the row reader takes, and refuse the others
        with its message."""
        rows = [[i, j, *data.draw(_VALUES[kind])] for i, j in data.draw(
            st.lists(st.tuples(st.integers(1, order), st.integers(1, order)),
                     unique=True, max_size=5))]
        for _ in range(data.draw(st.integers(0, 2))):
            lists = [k for k, row in enumerate(rows) if type(row) is list]
            if not lists:
                break
            r = data.draw(st.sampled_from(lists))
            fault = data.draw(st.sampled_from(["field", "width", "dup", "row"]))
            if fault == "field":
                k = data.draw(st.integers(0, len(rows[r]) - 1))
                rows[r][k] = data.draw(_ODD_FIELDS)
            elif fault == "width":
                rows[r] = rows[r][:-1] if data.draw(st.booleans()) else rows[r] + [1]
            elif fault == "dup":
                rows.insert(data.draw(st.integers(r + 1, len(rows))),
                            rows[r][:2] + data.draw(_VALUES[kind]))
            else:
                rows[r] = data.draw(st.sampled_from([None, tuple(rows[r]), "row"]))
        obj = {"order": order, "kind": kind, "terms": rows}
        try:
            terms = _parse_rows(rows, kind, order)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                matrix_from_obj(obj)
            assert str(got.value) == str(exc)
            return
        got = matrix_from_obj(obj)
        assert got._cols is not None
        want = XSum(order, {key: c for key, c in terms.items() if c})
        assert _listed(got) == _listed(want)
        assert matrix_to_json(got) == matrix_to_json(want)


_MAGNITUDES = st.one_of(st.integers(1, 12), st.integers(1, 2**70))


def _sqrt_values(sign, num, den, flip):
    num = num if sign else 0
    return [sign, -num, -den] if flip else [sign, num, den]


_VALUES = {
    "rational": st.tuples(st.integers(-12, 12), _MAGNITUDES, st.booleans()).map(
        lambda t: [t[0], -t[1]] if t[2] else [t[0], t[1]]),
    "sqrt": st.builds(_sqrt_values, st.sampled_from([-1, 0, 1]), _MAGNITUDES,
                      _MAGNITUDES, st.booleans()),
}
_ODD_FIELDS = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([True, False, 1.0, None, "1", 2**70, -(2**63), 2**63]))


def _kron_terms(a, b):
    n = b.order
    for (i, j), c in a.term_map().items():
        for (k, l), d in b.term_map().items():
            yield (n * (i - 1) + k, n * (j - 1) + l), c, d


_SIGNS = st.sampled_from([-1, 1])


def _scalars(magnitudes):
    """A strategy for each exact coefficient type, by the type's name."""
    return {
        "int": st.builds(lambda s, m: s * m, _SIGNS, magnitudes),
        "Fraction": st.builds(lambda s, n, d: Fraction(s * n, d), _SIGNS,
                              magnitudes, magnitudes),
        "SqrtRational": st.builds(
            lambda s, n, d: SqrtRational(s, Fraction(n, d)),
            _SIGNS, magnitudes, magnitudes),
    }


_SCALARS = _scalars(_MAGNITUDES)
# a kind added to the column store's table must be drawn here too
assert set(_SCALARS) == {k.scalar.__name__ for k in _KINDS.values()}


def _per_term_json(x):
    return json.dumps(per_term_matrix_obj(x), sort_keys=True,
                      separators=(",", ":"))


class TestExactWriter:
    """The column writer, against the exact sum written term by term."""

    @given(st.sets(st.sampled_from(sorted(_SCALARS))), st.integers(1, 4),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixed_and_single_kinds_match_per_term_writer(self, kinds, order,
                                                          data):
        # no kinds drawn: the empty sum
        cells = data.draw(st.lists(
            st.tuples(st.integers(1, order), st.integers(1, order)),
            unique=True, max_size=order * order if kinds else 0))
        values = st.one_of(*(_SCALARS[k] for k in sorted(kinds)))
        x = XSum(order, {cell: data.draw(values) for cell in cells})
        assert {type(c).__name__ for c in x.values()} <= kinds
        assert matrix_to_json(x) == _per_term_json(x)

    @pytest.mark.parametrize("twoj", range(7))
    def test_casimir_matches_per_term_writer(self, twoj):
        x = casimir(twoj)
        assert matrix_to_json(x) == _per_term_json(x)


def _dumps(x):
    return json.dumps(matrix_to_obj(x), sort_keys=True, separators=(",", ":"))


_INT64_MAX = 2**63 - 1
# the int64 edge, the first magnitude past it, and some digit-count edges
_EDGE_SCALARS = _scalars(st.one_of(
    _MAGNITUDES, st.sampled_from([9, 10, 99, 100, _INT64_MAX, 2**63, 2**70])))


class TestTextWriter:
    """matrix_to_json against json.dumps of matrix_to_obj, byte for byte."""

    @given(st.sets(st.sampled_from(sorted(_EDGE_SCALARS))), st.integers(1, 12),
           st.booleans(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_json_dumps(self, kinds, order, from_file, data):
        # no kinds drawn: the empty sum
        cells = data.draw(st.lists(
            st.tuples(st.integers(1, order), st.integers(1, order)),
            unique=True, max_size=12 if kinds else 0))
        values = st.one_of(*(_EDGE_SCALARS[k] for k in sorted(kinds)))
        x = XSum(order, {cell: data.draw(values) for cell in cells})
        if from_file:
            # column-backed: read back from the file written term by term
            x = matrix_from_json(_per_term_json(x))
            assert x._cols is not None
        assert matrix_to_json(x) == _dumps(x)

    @pytest.mark.parametrize("terms, route", [
        ({}, np.int64),
        ({(1, 1): Fraction(-7, 3)}, np.int64),
        ({(2, 1): _INT64_MAX, (1, 2): -_INT64_MAX}, np.int64),
        ({(1, 1): Fraction(-_INT64_MAX, _INT64_MAX - 1)}, np.int64),
        ({(2, 2): SqrtRational(-1, Fraction(_INT64_MAX, 3))}, np.int64),
        ({(1, 2): SqrtRational(1, Fraction(5)), (2, 1): Fraction(-1, 2),
          (2, 2): -3}, np.int64),
        ({(1, 1): -1, (2, 2): -_INT64_MAX, (1, 2): 10**17}, np.int64),
        ({(1, 1): 2**63, (2, 2): -1}, object),
        ({(1, 1): Fraction(-(3**50), 2**70)}, object),
        ({(1, 2): SqrtRational(-1, Fraction(1, 2**63))}, object),
    ], ids=["empty", "one term", "int64 max", "int64 max fraction",
            "int64 max surd", "mixed", "padded negatives", "past int64",
            "past int64 fraction", "past int64 surd"])
    def test_edge_tables(self, terms, route):
        for x in (XSum(2, terms), matrix_from_json(_per_term_json(XSum(2, terms)))):
            assert Columns.table_of(x).dtype == route
            assert matrix_to_json(x) == _dumps(x) == _per_term_json(x)


class TestSpectrumCsv:
    def test_header_and_rows(self):
        csv = spectrum_to_csv([2.0, 1.0, 1.0])
        assert csv == "eigenvalue,multiplicity\n1.0,2\n2.0,1\n"

    def test_levels_print_rounded_but_merge_raw(self):
        # round-off far below the merge tolerance does not reach the output
        csv = spectrum_to_csv([-1.416676788411482e-17, 0.0, 3.999999999999999])
        assert csv == "eigenvalue,multiplicity\n0.0,2\n4.0,1\n"
        assert spectrum_to_csv([-0.0]) == "eigenvalue,multiplicity\n0.0,1\n"
        assert spectrum_to_csv([0.1234567890123456]).endswith(
            "\n0.123456789012,1\n"
        )
        # merging still anchors on the raw first member
        assert spectrum_to_csv([0.0, 0.9e-9, 1.8e-9]) == (
            "eigenvalue,multiplicity\n0.0,2\n1.8e-09,1\n"
        )

    def test_ascending(self):
        rows = merge_spectrum([3.0, -1.0, 2.0, -1.0])
        assert rows == [(-1.0, 2), (2.0, 1), (3.0, 1)]

    def test_merge_tolerance(self):
        rows = merge_spectrum([0.0, 5e-10, 1.0])
        assert rows == [(0.0, 2), (1.0, 1)]

    def test_groups_anchor_at_first_member(self):
        # chains do not run away: the third value opens a new group
        rows = merge_spectrum([0.0, 0.9e-9, 1.8e-9])
        assert rows == [(0.0, 2), (1.8e-9, 1)]

    def test_empty(self):
        assert merge_spectrum([]) == []
        assert spectrum_to_csv([]) == "eigenvalue,multiplicity\n"


def _json_route(text):
    """matrix_from_json with the compact reader switched off: every text
    goes through json.loads and matrix_from_obj."""
    with mock.patch.object(serialize_module, "_compact", lambda text: None):
        return matrix_from_json(text)


def _outcome(read, text):
    """What read(text) gives: the sum, or the type and message it raised."""
    try:
        return read(text)
    except (DomainError, ResourceError) as exc:
        return type(exc), str(exc)


def _same_outcome(text):
    """matrix_from_json(text) gives what the json.loads route gives: the
    same values in the same storage order, column kind and dtypes, or the
    same exception and message.  True when the compact reader took it."""
    calls, loads = [], json.loads
    with mock.patch.object(serialize_module.json, "loads",
                           lambda t: calls.append(t) or loads(t)):
        got = _outcome(matrix_from_json, text)
    want = _outcome(_json_route, text)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, XSum) and got.order == want.order
        assert _listed(got) == _listed(want)
        g, w = got.columns(), want.columns()
        assert (g.kind, g.rows.dtype, g.cols.dtype) == (w.kind, w.rows.dtype,
                                                       w.cols.dtype)
        assert [v.dtype for v in g.vals] == [v.dtype for v in w.vals]
        assert np.array_equal(g.rows, w.rows) and np.array_equal(g.cols, w.cols)
    return not calls


def _compact_text(kind, order, rows):
    return (f'{{"kind":"{kind}","order":{order},"terms":'
            f'{json.dumps(rows, separators=(",", ":"))}}}')


_ONE = _compact_text("rational", 2, [[1, 1, 1, 2], [2, 1, -3, 1]])
_BIG = 2**63 - 1


class TestCompactReader:
    """The bytes route for the compact form against the json.loads route."""

    @pytest.mark.parametrize("text, fast", [
        (_ONE, True),
        (_ONE + "\n", True),
        (_ONE + " \t\r\n ", True),
        (" " + _ONE, False),
        (_ONE.replace("[[", "[ ["), False),
        (_ONE.replace(",-3", ", -3"), False),
        (json.dumps(json.loads(_ONE), indent=2, sort_keys=True), False),
        (_compact_text("rational", 2, [[1, 1, 10**17 + 3, 10**18 - 1]]), True),
        (_compact_text("rational", 2, [[1, 1, -(10**18 - 1), 7]]), True),
        (_compact_text("rational", 2, [[1, 1, 10**18, 3]]), False),
        (_compact_text("rational", 2, [[1, 1, -(10**19) - 7, 3]]), False),
        (_compact_text("sqrt", 2, [[1, 1, 1, 10**19, 3]]), False),
        (_compact_text("rational", 2, [[1, 1, _BIG, -_BIG]]), False),
        (_compact_text("rational", 2, [[1, 1, -(2**63), 5]]), False),
        (_compact_text("sqrt", 2, [[1, 2, -1, -(2**63), -_BIG]]), False),
        (_compact_text("rational", 2, [[1, 1, 2**64 + 1, 3]]), False),
        (_ONE.replace("-3", "-0"), True),
        (_ONE.replace("[2,1", "[2,-0"), False),  # column 0: the row is named
        (_compact_text("sqrt", 2, [[1, 1, 0, 0, 2]]).replace("1,0,0", "1,-0,-0"),
         True),
        (_ONE.replace(",2]", ",02]"), False),
        (_ONE.replace(",2]", ",00]"), False),
        (_ONE.replace("-3", "-03"), False),
        (_ONE.replace("-3", "--3"), False),
        (_ONE.replace("-3", "-"), False),
        (_ONE.replace("-3", "3-"), False),
        (_ONE.replace("-3", "+3"), False),
        (_ONE.replace("-3", ""), False),
        (_ONE.replace("[2,1,", "[2,1,,"), False),
        (_ONE.replace(",1]]", ",]]"), False),
        (_ONE.replace("[2,1,", "[,2,1,"), False),
        (_ONE.replace("],[", "]5,["), False),
        (_ONE.replace("],[", "],-["), False),
        (_ONE.replace("[[", "[7["), False),
        (_ONE.replace("]]", "]]]"), False),
        (_ONE.replace("-3", "true"), False),
        (_ONE.replace("-3", "null"), False),
        (_ONE.replace("[1,1,1,2]", "[1,1,false,2]"), False),
        (_ONE.replace("-3", "-3.0"), False),
        (_ONE.replace("-3", "3e2"), False),
        (_ONE.replace("-3", "-3 "), False),
        (_ONE.replace("rational", "r\\u0061tional"), False),
        (_ONE.replace("rational", "rätional"), False),
        (_ONE.replace("-3", "٣"), False),
        (_ONE + "\u00a0", False),  # no-break space: not JSON whitespace
        (_compact_text("rational", 2, []), False),
        (_compact_text("sqrt", 2, []), False),
        (_ONE.replace('"rational"', '"complex"'), False),
        (_ONE.replace('"kind":"rational",', ""), False),
        (_ONE.replace('"order":2', '"order":02'), False),
        (_ONE.replace('"order":2', '"order":0'), False),
        (_ONE.replace('"order":2', '"order":-2'), False),
        (_ONE.replace('"order":2', f'"order":{10**19}'), False),
        (_ONE[:-1], False),
        (_ONE + "]", False),
        (_ONE + "{}", False),
        (_ONE.replace("[1,1,1,2]", "[1,1,1,2,3]"), False),
        (_ONE.replace("[1,1,1,2]", "[1,1,1]"), False),
        (_ONE.replace("[1,1,1,2]", "1,1,1,2"), False),
        (_compact_text("sqrt", 2, [[1, 1, 1, 1, 2], [2, 2, -1, 3, 4]]), True),
        (_compact_text("sqrt", 2, [[1, 1, 0, 0, 2], [2, 2, -1, -3, -4]]), True),
        (_compact_text("sqrt", 2, [[1, 1, 1, 1, 2, 0]]), False),
    ])
    def test_texts_against_the_json_route(self, text, fast):
        assert _same_outcome(text) is fast

    @pytest.mark.parametrize("kind, rows, message", [
        ("rational", [[1, 1, 1, 0]], "rational terms need integer num/den"),
        ("rational", [[1, 1, 1, 2], [1, 1, 3, 4]], "duplicate term at (1,1)"),
        ("rational", [[3, 1, 1, 2]], "indices (3,1) outside 1..2"),
        ("rational", [[1, 0, 1, 2]], "indices (1,0) outside 1..2"),
        ("rational", [[1, 1, 1, 2], [2, 2, 5, 0]], "rational terms need"),
        ("sqrt", [[1, 1, 2, 1, 2]], "sqrt terms need sign in {-1,0,1}"),
        ("sqrt", [[2, 1, 0, 5, 1]], "sqrt term at (2,1): sign 0 disagrees"),
        ("sqrt", [[1, 1, 1, -2, 1]], "sqrt terms need sign in {-1,0,1}"),
    ])
    def test_column_faults_name_the_row_as_json_loads_does(self, kind, rows,
                                                           message):
        text = _compact_text(kind, 2, rows)
        with pytest.raises(DomainError) as exc:
            matrix_from_json(text)
        assert str(exc.value).startswith(message)
        assert _outcome(_json_route, text) == (DomainError, str(exc.value))

    def test_order_cap_after_the_text_is_checked(self, monkeypatch):
        monkeypatch.setenv("KRONX_MAX_DIM", "8")
        text = _compact_text("rational", 9, [[1, 1, 1, 2]])
        with pytest.raises(ResourceError, match="order 9 exceeds"):
            matrix_from_json(text)
        # a text that is not JSON says so first, as json.loads does
        with pytest.raises(DomainError, match="not valid JSON"):
            matrix_from_json(text.replace(",2]", ",02]"))
        assert _same_outcome(text) and not _same_outcome(
            text.replace(",2]", ",02]"))

    def test_compact_files_do_not_reach_json_loads(self, monkeypatch):
        def refuse(text):
            raise AssertionError("json.loads called")

        x = XSum(3, {(1, 2): Fraction(-7, 3), (3, 3): SqrtRational.sqrt(2)})
        compact = matrix_to_json(x) + "\n"
        pretty = json.dumps(json.loads(compact), indent=2, sort_keys=True)
        monkeypatch.setattr(serialize_module.json, "loads", refuse)
        assert matrix_from_json(compact) == x
        with pytest.raises(AssertionError, match="json.loads called"):
            matrix_from_json(pretty)

    @pytest.mark.parametrize("per_pass", [1, 7, 16, 40])
    def test_passes_of_rows_read_as_one(self, per_pass, monkeypatch):
        x = kron(casimir(3), casimir(2))
        text = matrix_to_json(x)
        one_pass = matrix_from_json(text)
        monkeypatch.setattr(serialize_module, "_BYTES_PER_PASS", per_pass)
        got = matrix_from_json(text)
        assert _listed(got) == _listed(one_pass) and got == x
        # a fault in any pass sends the whole text to json.loads
        for fault in ("-0,", "01,", "1,,"):
            where = text.rindex("],[", 0, len(text) // 2) + 3
            bad = text[:where] + fault + text[where:]
            assert not _same_outcome(bad)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(["rational", "sqrt"]), st.integers(1, 4),
           st.sampled_from([1, 5, 1 << 20]), st.data())
    def test_compact_texts_read_as_json_loads_reads_them(self, kind, order,
                                                         per_pass, data):
        width = _WIDTH[kind]
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, order + 1), st.integers(0, order + 1)),
            max_size=6))
        rows = [[i, j, *data.draw(st.lists(_FIELDS, min_size=width - 2,
                                           max_size=width - 2))]
                for i, j in cells]
        if data.draw(st.booleans()) and rows:
            rows[-1] = rows[-1][:-1] if data.draw(st.booleans()) else rows[-1] + [1]
        text = _compact_text(kind, order, rows)
        text = text + data.draw(st.sampled_from(["", "\n", " \r\n\t"]))
        with mock.patch.object(serialize_module, "_BYTES_PER_PASS", per_pass):
            _same_outcome(text)

    def test_seeded_fuzz_of_planted_faults(self):
        rng = random.Random(20261021)
        fast = 0
        for _ in range(2000):
            fast += _same_outcome(_fuzzed_text(rng))
        assert 200 < fast < 1800  # both routes are exercised


# fields past int64, at the 18/19-digit edge and small, signed
_FIELDS = st.one_of(
    st.integers(-3, 3),
    st.integers(-(10**18), 10**18),
    st.sampled_from([10**18 - 1, -(10**18 - 1), 10**18, _BIG, -_BIG,
                     -(2**63), 2**63, 10**19, 10**20]))
_SNIPPETS = ["0", "00", "-", "--", "+", " ", ",", "[", "]", "1", "-0", "9" * 19,
             "true", "1.5", "\n", "é", "\\u0031", "e5", "}", '"']


def _fuzzed_text(rng):
    """A compact exact file, often with one to three edits planted."""
    kind = rng.choice(["rational", "sqrt"])
    order = rng.randint(1, 4)
    width = _WIDTH[kind]
    rows = []
    cells = [(i, j) for i in range(1, order + 1) for j in range(1, order + 1)]
    for i, j in rng.sample(cells, rng.randint(0, min(5, len(cells)))):
        if kind == "rational":
            rows.append([i, j, rng.randint(-9, 9), rng.choice([1, 2, 3, -7])])
        else:
            sign = rng.choice([-1, 0, 1])
            num = rng.randint(1, 99) if sign else 0
            rows.append([i, j, sign, num, rng.choice([1, 2, 5, -3])])
            if sign and rows[-1][-1] < 0:
                rows[-1][-2] *= -1
        if rng.random() < 0.05:
            rows[-1][rng.randrange(width)] = rng.choice([10**18, -(10**18) + 1, _BIG])
    text = _compact_text(kind, order, rows) + rng.choice(["", "", "\n", " \n"])
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        at = rng.randrange(len(text) + 1)
        cut = rng.choice([0, 0, 1])
        text = text[:at] + rng.choice(_SNIPPETS) + text[at + cut:]
    return text
