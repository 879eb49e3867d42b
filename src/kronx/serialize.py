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
numpy; a table with a part past int64 and a complex matrix go through
json.dumps of matrix_to_obj, which gives the same bytes.
"""

from __future__ import annotations

import json
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
    then "],".  Digits are right-aligned, a '-' sits just before the first
    digit of a negative entry, and one boolean gather drops the spaces
    that pad the rest."""
    n, width = table.shape
    if n == 0:
        return ""
    # np.abs(-2**63) wraps to -2**63, which reads as 2**63 in uint64
    mags = [np.abs(col).view(np.uint64) for col in table.T]
    digits = [len(str(int(m.max()))) for m in mags]
    space = ord(" ")
    text = np.full((n, sum(digits) + 2 * width + 2), space, np.uint8)
    start = 0
    for k, (col, q, d) in enumerate(zip(table.T, mags, digits)):
        text[:, start] = ord("[" if k == 0 else ",")
        end = start + d + 1
        q, r = np.divmod(q, np.uint64(10))
        text[:, end] = r + ord("0")
        # what the slot left of the leading digit gets: '-' or padding
        lead = np.where(col < 0, ord("-"), space).astype(np.uint64)
        for pos in range(end - 1, start, -1):
            live = q > 0
            q, r = np.divmod(q, np.uint64(10))
            text[:, pos] = np.where(live, r + ord("0"), lead)
            lead = np.where(live, lead, space)
        start = end + 1
    text[:, start] = ord("]")
    text[:-1, start + 1] = ord(",")
    return text[text != space].tobytes().decode("ascii")


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
    table = int_column(rows).reshape(-1, width)
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
