import math
from fractions import Fraction

import pytest

from kronx.exactnum import DomainError, SqrtRational
from kronx.hubbard import XSum, identity, x_op
from kronx.serialize import (
    load_matrix,
    matrix_from_json,
    matrix_from_obj,
    matrix_to_json,
    matrix_to_obj,
    merge_spectrum,
    spectrum_to_csv,
)


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
