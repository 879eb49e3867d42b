"""Independent checks of every request's result, run after the timed loop.

Each ``check_<workload>(workload, req, output)`` returns None when the
result is right and a short reason string when it is wrong.  The
references never go through the code under test: spectra come from
``numpy.linalg.eigh`` on dense matrices the benchmark built itself,
Clebsch-Gordan values from sympy, tensor results from dense numpy
``kron`` and products.  The program's own serializer is used only for
the byte-stable load -> dump round trip, which is a property of it.

An exact request whose value comes back as a float fails, like a wrong
value does.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from workloads import Request, kser

MERGE_TOL = 1e-9
DENSE_RTOL = 1e-12
FFT_TOL = 1e-9


# --- spectrum -----------------------------------------------------------------

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def heisenberg_dense(sites: int, js, periodic: bool) -> np.ndarray:
    """-1/2 sum over bonds of Jx sx sx + Jy sy sy + Jz sz sz, by np.kron."""
    def embed(op, j):
        out = np.eye(1)
        for site in range(1, sites + 1):
            out = np.kron(out, op if site == j else np.eye(2))
        return out

    last = sites if periodic else sites - 1
    bonds = [(j, j % sites + 1) for j in range(1, last + 1)]
    h = np.zeros((2**sites, 2**sites), dtype=complex)
    for coupling, axis in zip(js, "xyz"):
        s = _SIGMA[axis]
        for a, b in bonds:
            h += float(coupling) * (embed(s, a) @ embed(s, b))
    return -0.5 * h


def merge(values, tol: float = MERGE_TOL) -> List[Tuple[float, int]]:
    """Ascending (value, multiplicity), grouping values within tol of the
    first member of their group."""
    out: List[Tuple[float, int]] = []
    for v in sorted(float(x) for x in values):
        if out and v - out[-1][0] <= tol:
            out[-1] = (out[-1][0], out[-1][1] + 1)
        else:
            out.append((v, 1))
    return out


def parse_spectrum_csv(text: str) -> List[Tuple[float, int]]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "eigenvalue,multiplicity":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        value, mult = line.split(",")
        rows.append((float(value), int(mult)))
    return rows


def compare_spectra(got, want) -> Optional[str]:
    if [m for _, m in got] != [m for _, m in want]:
        return "multiplicities differ from eigh"
    worst = max((abs(a - b) for (a, _), (b, _) in zip(got, want)), default=0.0)
    if worst > MERGE_TOL:
        return f"eigenvalue off by {worst:.3e}"
    return None


def check_spectrum(workload, req: Request, output) -> Optional[str]:
    rc, path = output
    if rc != 0:
        return f"exit code {rc}"
    with open(path, encoding="utf-8") as fh:
        got = parse_spectrum_csv(fh.read())
    if req.kind == "diag":
        dense = req.data[1]
    else:
        dense = heisenberg_dense(*req.data)
    return compare_spectra(got, merge(np.linalg.eigh(dense)[0]))


# --- coupling -----------------------------------------------------------------


def signed_square(value) -> Optional[Tuple[int, Fraction]]:
    """(sign, value^2) of an exact kronx scalar; None for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        if type(value).__name__ != "SqrtRational":
            return None
        return value.sign, Fraction(value.radicand)
    q = Fraction(value)
    return (q > 0) - (q < 0), q * q


def sympy_signed_square(two_j1, two_m1, two_j2, two_m2, two_j, two_m):
    import sympy
    from sympy.physics.quantum.cg import CG

    half = sympy.Rational(1, 2)
    ref = CG(two_j1 * half, two_m1 * half, two_j2 * half, two_m2 * half,
             two_j * half, two_m * half).doit()
    sign = 1 if ref.is_positive else -1 if ref.is_negative else 0
    sq = sympy.expand(ref**2)
    if not sq.is_Rational:
        raise ValueError(f"sympy CG^2 is not rational: {sq}")
    return sign, Fraction(int(sq.p), int(sq.q))


def cg_mismatch(args, value) -> Optional[str]:
    got = signed_square(value)
    if got is None:
        return f"inexact value {value!r} for {args}"
    if got != sympy_signed_square(*args):
        return f"wrong value {value} for {args}"
    return None


def matrix_position_args(two_j1: int, two_j2: int, p: int, q: int):
    """The doubled CG arguments addressed by S entry (p, q)."""
    n1, n2 = two_j1 + 1, two_j2 + 1
    k1, k2 = (p - 1) // n2 + 1, (p - 1) % n2 + 1
    two_m1, two_m2 = two_j1 - 2 * (k1 - 1), two_j2 - 2 * (k2 - 1)
    start = 0
    for k in range(1, min(n1, n2) + 1):
        dim = n1 + n2 + 1 - 2 * k
        if q <= start + dim:
            r = q - start
            two_j = two_j1 + two_j2 + 2 - 2 * k
            return (two_j1, two_m1, two_j2, two_m2, two_j, two_j - 2 * (r - 1))
        start += dim
    raise IndexError(f"column {q} outside S")


def check_coupling(workload, req: Request, output) -> Optional[str]:
    rng = random.Random(f"oracle:{workload.seed}:{req.seq}")
    if req.kind == "coef":
        return cg_mismatch(req.data, output)
    if req.kind == "table":
        return _check_table(req.data, output, rng)
    return _check_matrix(req.data, output, rng)


def _check_table(pair, rows, rng) -> Optional[str]:
    two_j1, two_j2 = pair
    seen = set()
    for two_j, two_m, two_m1, two_m2, c in rows:
        if signed_square(c) is None:
            return f"inexact table entry {c!r}"
        if two_m1 + two_m2 != two_m or (two_j, two_m1, two_m2) in seen:
            return "malformed table row"
        seen.add((two_j, two_m1, two_m2))
    sample = rows if len(rows) <= 12 else rng.sample(rows, 8)
    for two_j, two_m, two_m1, two_m2, c in sample:
        bad = cg_mismatch((two_j1, two_m1, two_j2, two_m2, two_j, two_m), c)
        if bad:
            return bad
    # a few admissible entries the table left out must be zero
    absent = [
        (tj, m1, m2)
        for tj in range(abs(two_j1 - two_j2), two_j1 + two_j2 + 1, 2)
        for m1 in range(-two_j1, two_j1 + 1, 2)
        for m2 in range(-two_j2, two_j2 + 1, 2)
        if abs(m1 + m2) <= tj and (tj, m1, m2) not in seen
    ]
    for tj, m1, m2 in rng.sample(absent, min(3, len(absent))):
        if sympy_signed_square(two_j1, m1, two_j2, m2, tj, m1 + m2)[0] != 0:
            return f"table misses a nonzero entry at {(tj, m1, m2)}"
    return None


def _check_matrix(pair, text, rng) -> Optional[str]:
    two_j1, two_j2 = pair
    obj = json.loads(text)
    n = (two_j1 + 1) * (two_j2 + 1)
    if obj["order"] != n or obj["kind"] not in ("rational", "sqrt"):
        return f"matrix order {obj['order']} kind {obj['kind']}"
    if kser.matrix_to_json(kser.matrix_from_json(text)) != text:
        return "JSON load -> dump is not byte-stable"
    entries = {(row[0], row[1]): row for row in obj["terms"]}
    if n <= 16:  # small matrices: every entry
        picks = [(p, q) for p in range(1, n + 1) for q in range(1, n + 1)]
    else:
        picks = rng.sample(sorted(entries), 8)
        picks += [(rng.randint(1, n), rng.randint(1, n)) for _ in range(4)]
    for p, q in picks:
        row = entries.get((p, q))
        if row is None:
            got = (0, Fraction(0))
        elif obj["kind"] == "sqrt":
            got = (row[2], Fraction(row[3], row[4]))
        else:
            got = signed_square(Fraction(row[2], row[3]))
        want = sympy_signed_square(*matrix_position_args(two_j1, two_j2, p, q))
        if got != want:
            return f"S entry ({p},{q}) is {got}, sympy says {want}"
    return None


# --- tensor -------------------------------------------------------------------


def dense_mismatch(got: np.ndarray, want: np.ndarray) -> Optional[str]:
    if got.shape != want.shape:
        return f"shape {got.shape} != {want.shape}"
    err = float(np.max(np.abs(got - want), initial=0.0))
    if err > DENSE_RTOL * max(1.0, float(np.max(np.abs(want), initial=0.0))):
        return f"dense mismatch {err:.3e}"
    return None


def dense_from_json(obj: dict) -> np.ndarray:
    n = obj["order"]
    out = np.zeros((n, n))
    keys = [(row[0], row[1]) for row in obj["terms"]]
    if keys != sorted(set(keys)):
        raise ValueError("terms are not sorted and unique")
    for row in obj["terms"]:
        if obj["kind"] == "rational":
            value = row[2] / row[3]
        elif obj["kind"] == "sqrt":
            value = row[2] * math.sqrt(row[3] / row[4])
        else:
            raise ValueError(f"kind {obj['kind']} is not exact")
        out[row[0] - 1, row[1] - 1] = value
    return out


def dense_from_xsum(x) -> np.ndarray:
    out = np.zeros((x.order, x.order))
    for (i, j), c in x.items():
        sq = signed_square(c)
        if sq is None:
            raise ValueError(f"inexact coefficient {c!r}")
        out[i - 1, j - 1] = sq[0] * math.sqrt(sq[1])
    return out


def check_tensor(workload, req: Request, output) -> Optional[str]:
    if req.kind == "kron":
        rc, path = output
        if rc != 0:
            return f"exit code {rc}"
        _pa, _pb, a, b = req.data
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        obj = json.loads(text)
        want_kind = "rational" if a.radicand == b.radicand == 1 else "sqrt"
        if obj["kind"] != want_kind:
            return f"kind {obj['kind']}, expected {want_kind}"
        bad = dense_mismatch(dense_from_json(obj), np.kron(a.dense(), b.dense()))
        if bad:
            return bad
        if kser.matrix_to_json(kser.matrix_from_json(text)) + "\n" != text:
            return "JSON load -> dump is not byte-stable"
        return None
    if req.kind == "conjugate":
        a, b, _xa, _xb = req.data
        return dense_mismatch(dense_from_xsum(output), np.kron(b.dense(), a.dense()))
    return _check_fft(req.data, output)


def _check_fft(n: int, output) -> Optional[str]:
    rc, text = output
    if rc != 0:
        return f"exit code {rc}"
    stages = re.findall(r"^stage (\d+): (\d+) terms$", text, re.M)
    t = n.bit_length() - 1
    if [int(s) for s, _ in stages] != list(range(t)):
        return "wrong stage list"
    if any(int(terms) != 2 * n for _, terms in stages):
        return "a stage is not 2n-sparse"
    err = re.search(r"^max reconstruction error (\S+)$", text, re.M)
    if err is None or not float(err.group(1)) < FFT_TOL:
        return "reported reconstruction error too large"
    return fft_reconstruction_mismatch(n)


_FFT_OK: dict = {}


def fft_reconstruction_mismatch(n: int) -> Optional[str]:
    """Multiply the program's stages densely and compare with the DFT."""
    if n not in _FFT_OK:
        from kronx.fourier import cooley_tukey

        fac = cooley_tukey(n)
        prod = np.eye(n, dtype=complex)
        for f in fac.factors:
            prod = prod @ f.to_numpy()
        t = n.bit_length() - 1
        rev = [int(format(p, f"0{t}b")[::-1], 2) for p in range(n)]
        perm = np.zeros((n, n))
        perm[np.arange(n), rev] = 1
        idx = np.arange(n)
        dft = np.exp(2j * np.pi * np.outer(idx, idx) / n)
        err = float(np.max(np.abs(prod @ perm.T - dft)))
        _FFT_OK[n] = None if err < FFT_TOL else f"stages rebuild F with error {err:.3e}"
    return _FFT_OK[n]


def same_output(a, b) -> bool:
    """Equal outputs; a (returncode, path) pair compares the file bytes."""
    return _comparable(a) == _comparable(b)


def _comparable(out):
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str) \
            and os.path.isfile(out[1]):
        with open(out[1], "rb") as fh:
            return out[0], fh.read()
    return out


CHECKS = {
    "spectrum": check_spectrum,
    "coupling": check_coupling,
    "tensor": check_tensor,
}
