"""JSON matrix interchange and CSV spectra.

One matrix form is shared by every command: {"order": n, "kind": k,
"terms": [...]} with 1-based indices and terms sorted by (row, col).
The kind discriminates the row shape, since rational and complex rows
are both 4-tuples:

    rational  [i, j, num, den]        value num/den
    sqrt      [i, j, sign, num, den]  value sign * sqrt(num/den)
    complex   [i, j, re, im]

The writer picks the narrowest kind that loses nothing.  hubbard owns the
exact value format: Columns.table_of gives the writer each exact matrix
as rows of integer parts, mixed kinds widened as scalar_mul would (a
rational q among surds is sign(q) sqrt(q^2)), and Columns.of_table
reduces the reader's checked rows.  Dumps are byte-stable for exact
scalars: sorted terms, sorted keys, no whitespace variation.
matrix_to_json formats an exact table held in int64 as ASCII digits in
numpy and drops the padding with bytes.translate; a table with a part
past int64 and a complex matrix go through json.dumps of matrix_to_obj,
which gives the same bytes.

matrix_from_json reads the compact form that matrix_to_json writes for a
nonempty rational or sqrt matrix, every field of at most 18 digits, from
its bytes (_compact): each pass of rows is checked against the row
skeleton and the JSON integer rules, then parsed by np.fromstring.  Any
other text, and any that fails a check, goes through json.loads and
matrix_from_obj, whose row reader names the first bad row; both routes
give the same XSum or the same error.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from typing import Iterable, List, Tuple

import numpy as np

from .exactnum import DomainError, SqrtRational, complex_float
from .hubbard import Columns, XSum, check_order, int_column

KINDS = ("rational", "sqrt", "complex")
_MERGE_TOL = 1e-9  # merge_spectrum's level width


def _finite(re: float, im: float, i: int, j: int) -> complex:
    try:
        return complex_float(re, im)
    except (ValueError, OverflowError) as exc:
        raise DomainError(f"complex term at ({i},{j}): {exc}") from exc


def _exact_kind(table: np.ndarray) -> str:
    """The kind of a Columns.table_of table, by its width; an empty
    matrix is rational."""
    return "sqrt" if table.shape[1] == _WIDTH["sqrt"] and len(table) else "rational"


def _to_obj(x: XSum, table: np.ndarray | None) -> dict:
    """The matrix object, written from the exact table when there is one."""
    if table is not None:
        return {"order": x.order, "kind": _exact_kind(table),
                "terms": table.tolist()}
    terms = []
    for (i, j), c in x.items():
        z = complex(c)
        _finite(z.real, z.imag, i, j)
        terms.append([i, j, z.real, z.imag])
    return {"order": x.order, "kind": "complex", "terms": terms}


def matrix_to_obj(x: XSum) -> dict:
    return _to_obj(x, Columns.table_of(x))


def _int_rows(table: np.ndarray) -> str:
    """The rows of an int64 table as json.dumps writes a list of lists,
    without the outer brackets.

    Every row is laid out in one uint8 line: per column a separator slot,
    a sign slot and one slot per digit of the column's largest magnitude,
    then "],".  Digits are right-aligned and a negative entry's '-' sits in
    the sign slot; one bytes.translate drops the spaces that pad between
    them, so the '-' meets the first digit."""
    n, width = table.shape
    if n == 0:
        return ""
    # np.abs(-2**63) wraps to -2**63, which reads as 2**63 in uint64
    mags = [np.abs(col).view(np.uint64) for col in table.T]
    digits = [len(str(int(m.max()))) for m in mags]
    space, zero, ten = np.uint8(ord(" ")), np.uint8(ord("0")), np.uint64(10)
    text = np.full((n, sum(digits) + 2 * width + 2), space)
    start = 0
    for k, (col, q, d) in enumerate(zip(table.T, mags, digits)):
        text[:, start] = ord("[" if k == 0 else ",")
        np.copyto(text[:, start + 1], np.uint8(ord("-")), where=col < 0)
        end = start + d + 1
        for pos in range(end, start + 1, -1):  # the digit slots
            # q // 10 divides by a constant; np.divmod is many times slower
            rest = q // ten
            digit = (q - rest * ten).astype(np.uint8) + zero
            if pos == end:  # the last digit, written for a zero entry too
                text[:, pos] = digit
            else:
                np.copyto(text[:, pos], digit, where=q > 0)
            q = rest
        start = end + 1
    text[:, start] = ord("]")
    text[:-1, start + 1] = ord(",")
    return text.tobytes().translate(None, b" ").decode("ascii")


def matrix_to_json(x: XSum) -> str:
    table = Columns.table_of(x)
    if table is not None and table.dtype == np.int64:
        return (f'{{"kind":"{_exact_kind(table)}","order":{x.order},'
                f'"terms":[{_int_rows(table)}]}}')
    return json.dumps(_to_obj(x, table), sort_keys=True, separators=(",", ":"))


def _require(cond: bool, msg: str):
    if not cond:
        raise DomainError(msg)


_WIDTH = {"rational": 4, "sqrt": 5, "complex": 4}


def matrix_from_obj(obj: object) -> XSum:
    _require(isinstance(obj, dict), "matrix object must be a JSON object")
    _require(
        set(obj) >= {"order", "terms"},
        "matrix object needs 'order' and 'terms'",
    )
    order = obj["order"]
    _require(type(order) is int and order >= 1, "order must be a positive int")
    check_order(order)
    kind = obj.get("kind", "rational")
    _require(kind in KINDS, f"unknown kind {kind!r}")
    rows = obj["terms"]
    _require(isinstance(rows, list), "'terms' must be a list")
    if kind != "complex":
        cols = _exact_columns(rows, kind, order)
        if cols is not None:
            return XSum._from_columns(order, cols)
    terms = _parse_rows(rows, kind, order)
    return XSum._trusted(order, {key: c for key, c in terms.items() if c})


def _exact_columns(rows: list, kind: str, order: int) -> Columns | None:
    """A rational or sqrt file's rows as Columns, in file order and without
    its zero rows.  None when some row fails a check of _parse_rows, which
    then names the first such row."""
    width = _WIDTH[kind]
    if set(map(type, rows)) - {list} or set(map(len, rows)) - {width}:
        return None
    # type(x) is int: JSON true/false decode to bool, which numpy would
    # read as 1 and 0
    if set(map(type, chain.from_iterable(rows))) - {int}:
        return None
    return _table_columns(int_column(rows).reshape(-1, width), kind, order)


def _table_columns(table: np.ndarray, kind: str, order: int) -> Columns | None:
    """The rows [i, j, *parts] of a table as Columns when every row passes
    the checks of _parse_rows, else None."""
    i, j = table[:, 0], table[:, 1]
    if not ((i >= 1) & (i <= order) & (j >= 1) & (j <= order)).all():
        return None
    cells = np.sort((i - 1) * order + j)
    if (cells[1:] == cells[:-1]).any():
        return None
    num, den = table[:, -2], table[:, -1]
    ok = den != 0
    if kind == "sqrt":
        sign = table[:, 2]
        ok &= (np.abs(sign) <= 1) & ((num == 0) | ((num > 0) == (den > 0)))
        ok &= (sign == 0) == (num == 0)
    if not ok.all():
        return None
    return Columns.of_table(table)


# The compact form matrix_to_json writes for an exact kind; the rows follow
# the match, then "]}" and optional JSON whitespace.
_COMPACT_HEAD = re.compile(
    rb'\{"kind":"(rational|sqrt)","order":([1-9][0-9]{0,17}),"terms":\[')
_JSON_SPACE = b" \t\n\r"
_DIGITS = b"0123456789"
_ALL_ZERO = bytes.maketrans(_DIGITS, b"0" * 10)
# text bytes per pass of _compact: a large file goes through in passes of
# whole rows, so the arrays of a pass stay near 1 MB
_BYTES_PER_PASS = 1 << 20


def _compact(text: str) -> XSum | None:
    """The matrix of a nonempty rational or sqrt file in the compact form,
    parsed from its bytes; None for any other text.

    Each pass of rows is checked before it is parsed: without its digits
    and '-' it is the row skeleton "[,,,]" (or "[,,,,]") joined by ',',
    with no digit outside a row; and each field is a JSON integer of 1 to
    18 digits, '-' only in front and no leading zero.  So the text is
    valid JSON, and np.fromstring, which would also take '01', '+2', a bare
    '-' or a 20-digit field, reads each field as json.loads does.  The
    order is checked against the cap only then, as matrix_from_obj checks
    it after json.loads."""
    if type(text) is not str or not text.isascii():
        return None
    data = text.encode("ascii")
    head = _COMPACT_HEAD.match(data)
    stop = len(data)
    while stop and data[stop - 1] in _JSON_SPACE:
        stop -= 1
    # "terms":[] fails this test too, so at least one row is checked below
    if head is None or not data.endswith(b"]]}", head.end(), stop):
        return None
    kind = head[1].decode("ascii")
    row = b"[" + b"," * (_WIDTH[kind] - 1) + b"]"
    passes = []
    pos, stop = head.end(), stop - 2  # the rows, "[...],...,[...]"
    while pos < stop:
        cut = data.find(b"],[", pos + _BYTES_PER_PASS, stop)
        cut = stop if cut < 0 else cut + 1
        fields = _compact_fields(data[pos:cut], row)
        if fields is None:
            return None
        passes.append(fields)
        pos = cut + 1
    order = int(head[2])
    check_order(order)
    table = np.concatenate(passes).reshape(-1, len(row) - 1)
    del passes, data  # freed before the column checks, whose peak is higher
    cols = _table_columns(table, kind, order)
    return None if cols is None else XSum._from_columns(order, cols)


def _compact_fields(rows: bytes, row: bytes) -> np.ndarray | None:
    """The fields of whole rows "[...],...,[...]" as int64, or None when
    the rows fail a check of _compact."""
    # any byte but a digit, '-', ',', '[' or ']' stays in the skeleton
    skeleton = rows.translate(None, _DIGITS + b"-")
    count = (len(skeleton) + 1) // (len(row) + 1)
    if (row + b",") * count != skeleton + b",":
        return None
    # and no digit or '-' outside a row: each row is "[" ... "]", and
    # between two rows stands "],[" alone
    if not (rows[0] == ord("[") and rows[-1] == ord("]")
            and rows.count(b"],[") == count - 1):
        return None
    flat = rows.translate(None, b"[]")
    if b"0" * 19 in flat.translate(_ALL_ZERO):  # a field of 19+ digits
        return None
    text = np.frombuffer(flat, np.uint8)
    comma, minus = text == ord(","), text == ord("-")
    digit = ~(comma | minus)
    # no empty field; a '-' only first in its field and before a digit
    if (comma[0] or comma[-1] or minus[-1] or (comma[1:] & comma[:-1]).any()
            or (minus[1:] & ~comma[:-1]).any()
            or (minus[:-1] & ~digit[1:]).any()):
        return None
    # no leading zero: no '0' that starts a field's digits and is followed
    # by a digit (a row has at least four fields, so text has 7+ bytes)
    zero = text == ord("0")
    if (zero[0] and digit[1]) or (zero[1:-1] & digit[2:] & ~digit[:-2]).any():
        return None
    return np.fromstring(flat, np.int64, sep=",")


def _parse_rows(rows: list, kind: str, order: int) -> dict:
    """The rows as a term dict in file order, zero values kept, checked one
    by one: the first bad row raises DomainError."""
    width = _WIDTH[kind]
    # Integer fields test type(x) is int: JSON true/false decode to bool,
    # which isinstance(x, int) would accept as 1 and 0.
    terms = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) == width):
            raise DomainError(f"{kind} term rows must have {width} entries")
        i, j = row[0], row[1]
        if not (
            type(i) is int and type(j) is int
            and 1 <= i <= order and 1 <= j <= order
        ):
            raise DomainError(f"indices ({i},{j}) outside 1..{order}")
        if (i, j) in terms:
            raise DomainError(f"duplicate term at ({i},{j})")
        if kind == "rational":
            num, den = row[2], row[3]
            if not (type(num) is int and type(den) is int and den):
                raise DomainError(
                    "rational terms need integer num/den with den != 0"
                )
            terms[(i, j)] = Fraction(num, den)
        elif kind == "sqrt":
            sign, num, den = row[2], row[3], row[4]
            if not (
                type(sign) is int and sign in (-1, 0, 1)
                and type(num) is int and type(den) is int and den
                and (num == 0 or (num > 0) == (den > 0))
            ):
                raise DomainError(
                    "sqrt terms need sign in {-1,0,1} and a nonnegative "
                    "radicand"
                )
            if (sign == 0) != (num == 0):
                raise DomainError(
                    f"sqrt term at ({i},{j}): sign {sign} disagrees with "
                    f"radicand {num}/{den} (sign is 0 exactly when it is 0)"
                )
            terms[(i, j)] = SqrtRational._trusted(sign, Fraction(num, den))
        else:
            re, im = row[2], row[3]
            if not (
                type(re) in (int, float) and type(im) in (int, float)
            ):
                raise DomainError("complex terms need numeric re/im")
            terms[(i, j)] = _finite(re, im, i, j)
    return terms


def matrix_from_json(text: str) -> XSum:
    x = _compact(text)
    if x is not None:
        return x
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)


def load_matrix(path: str) -> XSum:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(fh.read())


def merge_spectrum(values: Iterable[float]) -> List[Tuple[float, int]]:
    """Ascending (eigenvalue, multiplicity) pairs, grouping values that
    sit within _MERGE_TOL of the first member of their group."""
    out: List[Tuple[float, int]] = []
    anchor = None
    count = 0
    for v in sorted(float(x) for x in values):
        if anchor is not None and v - anchor <= _MERGE_TOL:
            count += 1
            continue
        if anchor is not None:
            out.append((anchor, count))
        anchor, count = v, 1
    if anchor is not None:
        out.append((anchor, count))
    return out


def spectrum_to_csv(values: Iterable[float]) -> str:
    """One line per merged level.  Levels merge on the raw values, and each
    prints rounded to 12 decimals (+ 0.0 turns -0.0 into 0.0), so round-off
    noise far below the merge tolerance does not reach the output."""
    lines = ["eigenvalue,multiplicity"]
    for v, mult in merge_spectrum(values):
        lines.append(f"{round(v, 12) + 0.0!r},{mult}")
    return "\n".join(lines) + "\n"
