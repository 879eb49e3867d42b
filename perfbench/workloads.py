"""Seeded inputs and request execution for the three benchmark workloads.

Each workload is a closed loop over *cycles*.  A cycle is a fixed mix of
100 request slots in bands (a band is one request kind at one size
class); the seed chooses the values inside each request and the order of
the cycle, never the mix.  A run makes whole cycles, so every run
measures the same proportions and the percentiles stay inside the band
the mix puts them in (see README.md for the latency map of each
workload).

Inputs are generated before timing starts: operand and Hamiltonian JSON
files are written into the run's work directory, so reading them is part
of each request, as it is for a user of the ``kronx`` command.

The program is reached through module attributes looked up at call time
(``kcli.run``, ``kcg.cg_coefficient``, ...), so the wrappers the traced
run installs in those namespaces see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

kcli = importlib.import_module("kronx.cli")
kcg = importlib.import_module("kronx.cg")
khub = importlib.import_module("kronx.hubbard")
kkron = importlib.import_module("kronx.kron")
kperm = importlib.import_module("kronx.perm")
kser = importlib.import_module("kronx.serialize")
kexact = importlib.import_module("kronx.exactnum")


@dataclass(frozen=True)
class Request:
    """One request: its kind, its band (kind plus size class), its slot in
    the band (the same slot recurs once per cycle) and the arguments the
    executor needs.  ``seq`` numbers requests in a run and names their
    output files."""

    seq: int
    kind: str
    band: str
    slot: int
    data: Any


def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, separators=(",", ":"))


class Workload:
    """Base: a seeded source of request cycles plus their executor."""

    name = ""
    MIX: Sequence[Tuple[str, int]] = ()
    # bands whose slots get the same input every cycle; a repeat of such a
    # slot must give the same output as its first, fully checked, run
    FIXED_BANDS: frozenset = frozenset()
    # seconds one cycle takes at nominal speed, which sets the cycle count
    CYCLE_S = 5.0

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.tiny = tiny
        # tiny (smoke test): one slot per band
        self.mix = [(band, 1 if tiny else n) for band, n in self.MIX]
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self._seq = 0
        self.generate()

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + tag)))

    def cycle(self, index: int) -> List[Request]:
        """The requests of cycle ``index``: the fixed mix, seeded values,
        seeded order."""
        rng = self.rng("cycle", index)
        reqs = []
        for band, n in self.mix:
            for slot in range(n):
                reqs.append((band, slot))
        rng.shuffle(reqs)
        out = []
        for band, slot in reqs:
            kind, data = self.make(band, slot, index, rng)
            out.append(Request(self._seq, kind, band, slot, data))
            self._seq += 1
        return out

    def out_path(self, req: Request, ext: str) -> str:
        return os.path.join(self.outdir, f"{req.seq}.{ext}")

    # subclasses: generate(), make(), warm_up(), execute()
    def generate(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def make(self, band: str, slot: int, cycle: int, rng: random.Random):
        raise NotImplementedError

    def execute(self, req: Request):
        raise NotImplementedError


# --- spectrum: float Jacobi ---------------------------------------------------

# Heisenberg couplings are s * (1, 1, 3/2), an XXZ chain, with a seeded
# exact scale s.  A common scale leaves the Jacobi angle pattern (so the
# sweep count) unchanged, which keeps the cost of one size steady across
# seeds; jx = jy conserves total S_z, the symmetry ROADMAP Open item 2
# exploits, and keeps a 5-site request near one second.
_HEIS_RATIOS = (Fraction(1), Fraction(1), Fraction(3, 2))


class Spectrum(Workload):
    name = "spectrum"
    # band -> requests per cycle, in rising latency.  p50 falls inside
    # heis3 (cumulative 0..60), p90 inside diag10 (80..95).
    MIX = (
        ("heis3", 60),
        ("diag8", 10),
        ("heis4", 10),
        ("diag10", 15),
        ("diag12", 2),
        ("diag16", 1),
        ("heis5", 2),
    )
    FIXED_BANDS = frozenset({"diag8", "diag10", "diag12", "diag16"})
    CYCLE_S = 6.0
    TINY_ORDERS = {"diag8": 4, "diag10": 4, "diag12": 5, "diag16": 6}
    TINY_SITES = {"heis3": 2, "heis4": 3, "heis5": 3}

    def generate(self) -> None:
        """Write one cycle's worth of sparse Hermitian matrices per diag
        band; cycles reuse them in a new order."""
        self.diag_inputs: Dict[str, List[Tuple[str, np.ndarray]]] = {}
        for band, n in self.mix:
            if not band.startswith("diag"):
                continue
            order = self.TINY_ORDERS[band] if self.tiny else int(band[4:])
            rng = self.rng("diag", band)
            pool = []
            for k in range(n):
                dense, obj = random_hermitian(rng, order)
                path = os.path.join(self.workdir, f"{band}_{k}.json")
                _write_json(path, obj)
                pool.append((path, dense))
            self.diag_inputs[band] = pool

    def make(self, band, slot, cycle, rng):
        if band.startswith("diag"):
            path, dense = self.diag_inputs[band][slot]
            return "diag", (path, dense)
        sites = self.TINY_SITES[band] if self.tiny else int(band[4:])
        scale = Fraction(rng.randint(4, 16), 8)
        js = tuple(r * scale for r in _HEIS_RATIOS)
        return "heisenberg", (sites, js, slot % 2 == 0)

    def argv(self, req: Request) -> List[str]:
        out = self.out_path(req, "csv")
        if req.kind == "diag":
            return ["diag", req.data[0], "-o", out]
        sites, (jx, jy, jz), periodic = req.data
        argv = ["heisenberg", "--sites", str(sites),
                f"--jx={jx}", f"--jy={jy}", f"--jz={jz}"]
        if not periodic:
            argv.append("--open")
        return argv + ["--diag", "-o", out]

    def warm_up(self) -> None:
        rng = self.rng("warm")
        dense, obj = random_hermitian(rng, 4)
        path = os.path.join(self.workdir, "warm.json")
        _write_json(path, obj)
        out = os.path.join(self.workdir, "warm.csv")
        for argv in (["diag", path, "-o", out],
                     ["heisenberg", "--sites", "2", "--jz=1/3", "--diag", "-o", out]):
            if kcli.run(argv) != 0:
                raise RuntimeError(f"warm-up failed: {argv}")

    def execute(self, req: Request):
        path = self.out_path(req, "csv")
        return kcli.run(self.argv(req)), path


def random_hermitian(rng: random.Random, n: int) -> Tuple[np.ndarray, dict]:
    """A sparse complex Hermitian matrix, as a dense array (the oracle's
    copy) and as a JSON matrix object.  Row p couples to p +- 1 and p +- 3
    (cyclically) with seeded values: a fixed pattern keeps the Jacobi cost
    of one order steady across seeds."""
    dense = np.zeros((n, n), dtype=complex)
    for p in range(n):
        dense[p, p] = rng.uniform(-2.0, 2.0)
        for q in ((p + 1) % n, (p + 3) % n):
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            dense[p, q] = z
            dense[q, p] = z.conjugate()
    terms = [
        [i + 1, j + 1, dense[i, j].real, dense[i, j].imag]
        for i in range(n) for j in range(n) if dense[i, j] != 0
    ]
    return dense, {"order": n, "kind": "complex", "terms": terms}


# --- coupling: exact Clebsch-Gordan ------------------------------------------

# Pairs (2j1, 2j2).  The hot set (8 pairs) stays in the 64-entry
# coefficient cache: hot slot k always asks pair k mod 8.  The cold set
# (88 pairs) is larger than the cache: it is split into 22 groups of four
# pairs of similar cost, and cold slot k visits the members of group k in
# turn, one per cycle.  Between two visits of one pair the three cycles in
# between visit 66 other cold pairs, so each cold query rebuilds S.
_TABLE_PAIRS = ((7, 7), (7, 8), (8, 7), (8, 8))
_HOT_BIG_PAIRS = ((11, 11), (11, 12), (12, 11), (12, 12))
_COLD_PAIRS = tuple(
    sorted(
        {(a, b) for a in range(2, 15) for b in range(2, 15)
         if min(a, b) <= 5 and max(a, b) >= 5}
        | {(a, b) for a in range(2, 5) for b in range(2, 5)}
    )
)
_COLD_GROUP = 4
_MATRIX_PAIRS = tuple((a, b) for a in (10, 11, 12) for b in (10, 11, 12))

_TINY_TABLE = ((1, 2), (2, 1), (2, 2), (2, 0))
_TINY_HOT_BIG = ((3, 2), (2, 3), (3, 3), (1, 3))
_TINY_COLD = tuple((a, b) for a in range(0, 5) for b in range(0, 5)
                   if (a, b) not in _TINY_TABLE + _TINY_HOT_BIG + ((1, 1), (0, 2)))
_TINY_MATRIX = ((2, 3), (3, 2), (3, 3))


def random_cg_args(rng: random.Random, two_j1: int, two_j2: int) -> Tuple[int, ...]:
    """Doubled (j1, m1, j2, m2, J, M) with M = m1 + m2 and J admissible."""
    two_m1 = rng.choice(range(-two_j1, two_j1 + 1, 2))
    two_m2 = rng.choice(range(-two_j2, two_j2 + 1, 2))
    two_m = two_m1 + two_m2
    lo = max(abs(two_j1 - two_j2), abs(two_m))
    lo += (two_j1 + two_j2 - lo) % 2
    two_j = rng.choice(range(lo, two_j1 + two_j2 + 1, 2))
    return (two_j1, two_m1, two_j2, two_m2, two_j, two_m)


class Coupling(Workload):
    name = "coupling"
    # p50 falls inside table (cumulative 20..60), p90 inside matrix (82..100).
    MIX = (
        ("coef_hot", 20),
        ("table", 40),
        ("coef_cold", 22),
        ("matrix", 18),
    )
    FIXED_BANDS = frozenset({"table", "matrix"})
    CYCLE_S = 6.0

    def generate(self) -> None:
        tiny = self.tiny
        self.table_pairs = _TINY_TABLE if tiny else _TABLE_PAIRS
        self.hot_pairs = self.table_pairs + (_TINY_HOT_BIG if tiny else _HOT_BIG_PAIRS)
        self.matrix_pairs = _TINY_MATRIX if tiny else _MATRIX_PAIRS
        rng = self.rng("cold")
        cold = sorted(_TINY_COLD if tiny else _COLD_PAIRS,
                      key=lambda p: ((p[0] + 1) * (p[1] + 1) * (min(p) + 1), p))
        groups = [cold[i:i + _COLD_GROUP]
                  for i in range(0, len(cold) - _COLD_GROUP + 1, _COLD_GROUP)]
        for g in groups:
            rng.shuffle(g)
        rng.shuffle(groups)
        self.cold_groups = groups

    def make(self, band, slot, cycle, rng):
        if band == "coef_hot":
            pair = self.hot_pairs[slot % len(self.hot_pairs)]
            return "coef", random_cg_args(rng, *pair)
        if band == "coef_cold":
            group = self.cold_groups[slot % len(self.cold_groups)]
            return "coef", random_cg_args(rng, *group[cycle % _COLD_GROUP])
        if band == "table":
            return "table", self.table_pairs[slot % len(self.table_pairs)]
        return "matrix", self.matrix_pairs[slot % len(self.matrix_pairs)]

    def warm_up(self) -> None:
        # pairs outside every measured set, so the cache holds no answers
        rng = self.rng("warm")
        for pair in ((1, 1), (0, 2)):
            kcg.cg_coefficient(*random_cg_args(rng, *pair))
        kcg.cg_table(1, 1)
        kser.matrix_to_json(kcg.build_S(1, 2).matrix)

    def execute(self, req: Request):
        if req.kind == "coef":
            return kcg.cg_coefficient(*req.data)
        if req.kind == "table":
            return kcg.cg_table(*req.data)
        return kser.matrix_to_json(kcg.build_S(*req.data).matrix)


# --- tensor: exact sparse algebra and JSON I/O -------------------------------


@dataclass
class ExactOperand:
    """A seeded exact sparse matrix: each coefficient is sign * q *
    sqrt(radicand) with rational q (radicand 1 means a plain rational)."""

    order: int
    radicand: int
    terms: Dict[Tuple[int, int], Tuple[int, Fraction]]

    def dense(self) -> np.ndarray:
        out = np.zeros((self.order, self.order))
        root = math.sqrt(self.radicand)
        for (i, j), (sign, q) in self.terms.items():
            out[i - 1, j - 1] = sign * float(q) * root
        return out

    def json_obj(self) -> dict:
        rows = []
        for (i, j), (sign, q) in sorted(self.terms.items()):
            if self.radicand == 1:
                v = sign * q
                rows.append([i, j, v.numerator, v.denominator])
            else:
                r = q * q * self.radicand
                rows.append([i, j, sign, r.numerator, r.denominator])
        kind = "rational" if self.radicand == 1 else "sqrt"
        return {"order": self.order, "kind": kind, "terms": rows}

    def xsum(self):
        terms = {}
        for key, (sign, q) in self.terms.items():
            if self.radicand == 1:
                terms[key] = sign * q
            else:
                terms[key] = kexact.SqrtRational(sign, q * q * self.radicand)
        return khub.XSum(self.order, terms)


def random_operand(rng: random.Random, order: int, nnz: int, radicand: int) -> ExactOperand:
    cells = rng.sample(range(order * order), nnz)
    terms = {}
    for c in cells:
        q = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        terms[(c // order + 1, c % order + 1)] = (rng.choice((-1, 1)), q)
    return ExactOperand(order, radicand, terms)


# kron shapes: (order A, nnz A, order B, nnz B).  "read" is a large operand
# times a small one (the input file dominates); "write" is medium times
# medium (the output file dominates).
_KRON_SHAPES = {
    "kron1k": {"read": (32, 256, 2, 4), "write": (8, 32, 8, 32)},
    "kron4k": {"read": (32, 1024, 2, 4), "write": (16, 64, 16, 64)},
    "kron16k": {"read": (64, 4096, 2, 4), "write": (16, 128, 16, 128)},
    "kron65k": {"read": (128, 16384, 2, 4), "write": (16, 256, 16, 256)},
}
_TINY_KRON = {"read": (8, 16, 2, 2), "write": (4, 6, 4, 6)}
# conjugation shapes: (n, nnz A, m, nnz B) with n * m <= 256
_CONJ_SHAPES = {
    "conj1k": (8, 32, 8, 32),
    "conj4k": (16, 64, 16, 64),
}
_TINY_CONJ = (2, 2, 3, 4)
_FFT_N = {"fft64": 64, "fft128": 128, "fft256": 256}
_RADICANDS = (2, 3, 5, 6, 7)


class Tensor(Workload):
    name = "tensor"
    # p50 falls inside kron1k (cumulative 0..60); p90 inside kron4k
    # (66..94), above the conj1k and fft64 slots and below everything else.
    MIX = (
        ("kron1k", 60),
        ("conj1k", 3),
        ("fft64", 3),
        ("kron4k", 28),
        ("kron16k", 2),
        ("conj4k", 1),
        ("fft128", 1),
        ("kron65k", 1),
        ("fft256", 1),
    )
    FIXED_BANDS = frozenset(b for b, _ in MIX)
    CYCLE_S = 5.0

    def generate(self) -> None:
        """Operands for one cycle per band.  Slot k uses the read shape
        when k is even and the write shape when odd; its radicands follow
        the pattern rational x rational, surd x rational, surd x surd,
        so each band has a fixed share of each output kind."""
        self.kron_inputs: Dict[str, list] = {}
        self.conj_inputs: Dict[str, list] = {}
        for band, n in self.mix:
            rng = self.rng("inputs", band)
            if band.startswith("kron"):
                pool = []
                for k in range(n):
                    shape = _TINY_KRON if self.tiny else _KRON_SHAPES[band]
                    na, za, nb, zb = shape["read" if k % 2 == 0 else "write"]
                    ra, rb = self._radicands(rng, k)
                    a = random_operand(rng, na, za, ra)
                    b = random_operand(rng, nb, zb, rb)
                    pa = os.path.join(self.workdir, f"{band}_{k}_a.json")
                    pb = os.path.join(self.workdir, f"{band}_{k}_b.json")
                    _write_json(pa, a.json_obj())
                    _write_json(pb, b.json_obj())
                    pool.append((pa, pb, a, b))
                self.kron_inputs[band] = pool
            elif band.startswith("conj"):
                pool = []
                for k in range(n):
                    na, za, nb, zb = _TINY_CONJ if self.tiny else _CONJ_SHAPES[band]
                    ra, rb = self._radicands(rng, k)
                    a = random_operand(rng, na, za, ra)
                    b = random_operand(rng, nb, zb, rb)
                    pool.append((a, b, a.xsum(), b.xsum()))
                self.conj_inputs[band] = pool

    @staticmethod
    def _radicands(rng: random.Random, k: int) -> Tuple[int, int]:
        pattern = k % 3
        ra = 1 if pattern == 0 else rng.choice(_RADICANDS)
        rb = rng.choice(_RADICANDS) if pattern == 2 else 1
        return ra, rb

    def make(self, band, slot, cycle, rng):
        if band.startswith("kron"):
            return "kron", self.kron_inputs[band][slot]
        if band.startswith("conj"):
            return "conjugate", self.conj_inputs[band][slot]
        return "fft", 16 if self.tiny else _FFT_N[band]

    def warm_up(self) -> None:
        rng = self.rng("warm")
        a = random_operand(rng, 3, 4, 2)
        b = random_operand(rng, 2, 3, 1)
        pa = os.path.join(self.workdir, "warm_a.json")
        pb = os.path.join(self.workdir, "warm_b.json")
        _write_json(pa, a.json_obj())
        _write_json(pb, b.json_obj())
        out = os.path.join(self.workdir, "warm.json")
        if kcli.run(["kron", pa, pb, "-o", out]) != 0:
            raise RuntimeError("warm-up kron failed")
        conjugate(a.xsum(), b.xsum(), 3, 2)
        with contextlib.redirect_stdout(io.StringIO()):
            if kcli.run(["fft-factor", "--n", "8", "--verify"]) != 0:
                raise RuntimeError("warm-up fft-factor failed")

    def execute(self, req: Request):
        if req.kind == "kron":
            pa, pb, _a, _b = req.data
            out = self.out_path(req, "json")
            return kcli.run(["kron", pa, pb, "-o", out]), out
        if req.kind == "conjugate":
            a, b, xa, xb = req.data
            return conjugate(xa, xb, a.order, b.order)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = kcli.run(["fft-factor", "--n", str(req.data), "--verify"])
        return rc, buf.getvalue()


def conjugate(xa, xb, n: int, m: int):
    """P^T (A x B) P with P the commutation matrix K(n, m)."""
    p = kperm.perm_matrix(kperm.commutation_perm(n, m))
    k = kkron.kron(xa, xb)
    return khub.xsum_mul(khub.xsum_mul(p.transpose(), k), p)


WORKLOADS = {w.name: w for w in (Spectrum, Coupling, Tensor)}
