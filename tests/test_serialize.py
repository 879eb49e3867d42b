import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import per_term_matrix_obj
from kronx.exactnum import DomainError, SqrtRational, scalar_mul
from kronx.hubbard import _KINDS, Columns, ResourceError, XSum, identity, x_op
from kronx.kron import kron
from kronx.serialize import (
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
        ({(1, 1): 2**63, (2, 2): -1}, object),
        ({(1, 1): Fraction(-(3**50), 2**70)}, object),
        ({(1, 2): SqrtRational(-1, Fraction(1, 2**63))}, object),
    ], ids=["empty", "one term", "int64 max", "int64 max fraction",
            "int64 max surd", "mixed", "past int64", "past int64 fraction",
            "past int64 surd"])
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
