"""Command-line driver.

One `kronx` entry point exposes the constructions behind a uniform I/O
contract: matrices travel as the shared JSON schema (see serialize),
spectra as ascending CSV. Exit codes: 0 success, 2 validation or domain
error, 3 verification failure (a suite, or a built matrix failing its own
check), 64 usage. Every output goes to stdout or to `-o FILE`; a
`--format` the output has no form for is refused (exit 2), and text
reports take none.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import cg as cgmod
from . import coupling, fourier, perm, su2
from .exactnum import ClosureError, DomainError, scalar_to_float
from .hubbard import DimensionError, ResourceError, XSum, check_order
from .kron import kron
from .models import (
    ConvergenceError,
    HubbardParams,
    JCConfig,
    NLevelHamiltonian,
    SpinChainParams,
    diagonalize,
    eigenvalues,
    heisenberg_h,
    hubbard_h,
    jc_evolution,
    two_cavity_evolution,
)
from .serialize import load_matrix, matrix_to_json, matrix_to_obj, spectrum_to_csv

EX_OK = 0
EX_INVALID = 2
EX_VERIFY = 3
EX_USAGE = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-3/2" or "-1e3" for a flag: its negative-number
        # pattern knows only -N and -N.N.  No kronx flag looks like a
        # number, so every token that float or Fraction reads is a value.
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.I)

    # argparse wants to sys.exit(2) on bad flags; route that to 64 instead
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _write(text: str, output: str | None):
    # the newline follows the text: text + "\n" would copy the whole
    # document, about 20 MB for a million-term matrix
    end = "" if text.endswith("\n") else "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write(end)
        return
    try:
        print(text, end=end, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe, so it has all it wants.  What is
        # still buffered, and the flush at exit, go to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_matrix(x: XSum, args) -> int:
    fmt = getattr(args, "format", None) or "json"
    if fmt == "csv":
        raise DomainError("matrix output has no csv form")
    if fmt == "pretty":
        text = json.dumps(matrix_to_obj(x), indent=2, sort_keys=True)
    else:
        text = matrix_to_json(x)
    _write(text, args.output)
    return EX_OK


def _emit_text(lines, args) -> int:
    if args.format:
        raise DomainError(f"text output has no {args.format} form")
    _write("\n".join(lines), args.output)
    return EX_OK


def _emit_spectrum(ev, args) -> int:
    fmt = getattr(args, "format", None) or "csv"
    if fmt != "csv":
        raise DomainError("spectrum output is csv only")
    _write(spectrum_to_csv(ev), args.output)
    return EX_OK


def _fraction(text: str) -> Fraction:
    """A Fraction option value.  argparse makes a usage error only of a
    ValueError or TypeError, and Fraction("1/0") raises ZeroDivisionError."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r}") from None


def _positive(value: float, name: str) -> float:
    if not value > 0:
        raise DomainError(f"{name} must be positive")
    return value


_WHICH = {"j3": "3", "jplus": "plus", "jminus": "minus"}


def cmd_kron(args) -> int:
    return _emit_matrix(kron(load_matrix(args.a), load_matrix(args.b)), args)


def cmd_perm(args) -> int:
    def need(flag, val):
        if val is None:
            raise DomainError(f"--op {args.op} requires --{flag}")
        return val

    if args.op == "swap":
        x = perm.perm_matrix(perm.swap_perm(need("n", args.n)))
    elif args.op == "commutation":
        x = perm.perm_matrix(
            perm.commutation_perm(need("n", args.n), need("m", args.m))
        )
    elif args.op == "matrix":
        images = need("images", args.images)
        x = perm.perm_matrix(perm.Permutation(tuple(images)))
    elif args.op == "symmetrizer":
        x = perm.symmetrizer(need("p", args.p), need("n", args.n))
    else:  # antisymmetrizer
        x = perm.antisymmetrizer(need("p", args.p), need("n", args.n))
    return _emit_matrix(x, args)


def cmd_fft_factor(args) -> int:
    fac = fourier.cooley_tukey(args.n)
    if args.stage is not None:
        if not 0 <= args.stage < len(fac.factors):
            raise DomainError(
                f"stage {args.stage} outside 0..{len(fac.factors) - 1}"
            )
        return _emit_matrix(fac.factors[args.stage], args)
    if args.perm:
        return _emit_matrix(perm.perm_matrix(fac.bit_reversal), args)
    if args.verify:
        # a butterfly stage has two terms per row; F_1's one stage is I_1
        want = 2 * args.n if args.n > 1 else 1
        nnz = [f.nnz() for f in fac.factors]
        err = fac.max_error()
        _emit_text([*(f"stage {s}: {c} terms" for s, c in enumerate(nnz)),
                    f"max reconstruction error {err:.3e}"], args)
        ok = all(c == want for c in nnz) and err < 1e-10
        return EX_OK if ok else EX_VERIFY
    if args.format not in (None, "json"):
        raise DomainError("the fft-factor document is json only")
    obj = {
        "n": args.n,
        "stages": [matrix_to_obj(f) for f in fac.factors],
        "bit_reversal": list(fac.bit_reversal.images),
    }
    _write(json.dumps(obj, sort_keys=True, separators=(",", ":")), args.output)
    return EX_OK


def cmd_su2(args) -> int:
    which = args.op
    x = su2.j3(args.twoj) if which == "j3" else su2.jpm(
        args.twoj, _WHICH[which]
    )
    return _emit_matrix(x, args)


def cmd_couple(args) -> int:
    which = _WHICH[args.op]
    if args.block:
        x = coupling.block_gen(args.twoj1, args.twoj2, which).flatten()
    else:
        x = coupling.product_gen(args.twoj1, args.twoj2, which, args.path)
    return _emit_matrix(x, args)


def cmd_cg(args) -> int:
    if args.coef is not None:
        two_m1, two_m2, two_j, two_m = args.coef
        c = cgmod.cg_coefficient(
            args.twoj1, two_m1, args.twoj2, two_m2, two_j, two_m
        )
        return _emit_text([f"{c} = {scalar_to_float(c)!r}"], args)
    if args.table:
        groups: dict = {}
        for two_j, two_m, two_m1, two_m2, c in cgmod.cg_table(
            args.twoj1, args.twoj2
        ):
            groups.setdefault((two_j, two_m), []).append(
                f"[2m1={two_m1} 2m2={two_m2}] {c}"
            )
        return _emit_text([
            f"2J={two_j} 2M={two_m}: " + "  ".join(parts)
            for (two_j, two_m), parts in groups.items()
        ], args)
    return _emit_matrix(cgmod.build_S(args.twoj1, args.twoj2).matrix, args)


def cmd_diag(args) -> int:
    sweeps = {flag: value for flag, value in (
        ("tol", args.tol), ("max_sweeps", args.max_sweeps),
        ("single_sweep", args.single_sweep or None)) if value is not None}
    if args.unitary and args.solver == "lapack":
        raise DomainError("--unitary runs the jacobi solver, not lapack")
    if not (args.unitary or args.solver == "jacobi"):
        if sweeps:
            flags = ", ".join("--" + f.replace("_", "-") for f in sweeps)
            raise DomainError(
                f"{flags}: only with --solver jacobi or --unitary")
        return _emit_spectrum(eigenvalues(load_matrix(args.matrix)), args)
    if args.tol is not None:
        _positive(args.tol, "--tol")
    h = NLevelHamiltonian.from_xsum(load_matrix(args.matrix))
    ev, u = diagonalize(h, **sweeps)
    return _emit_matrix(u, args) if args.unitary else _emit_spectrum(ev, args)


def _emit_model(h: XSum, args) -> int:
    if args.diag:
        return _emit_spectrum(eigenvalues(h), args)
    return _emit_matrix(h, args)


def cmd_heisenberg(args) -> int:
    params = SpinChainParams(args.sites, args.jx, args.jy, args.jz)
    return _emit_model(heisenberg_h(params, periodic=not args.open), args)


def cmd_hubbard(args) -> int:
    hops = {(i, i + 1): args.t for i in range(1, args.sites)}
    params = HubbardParams.from_physical(
        args.sites, args.eps, args.mu, args.u, hops
    )
    return _emit_model(hubbard_h(params), args)


def cmd_jc(args) -> int:
    cfg = JCConfig(args.gamma, args.cutoff)
    if args.two_cavity:
        u = two_cavity_evolution(cfg, cfg, args.time)
    else:
        u = jc_evolution(cfg, args.time)
    return _emit_matrix(u, args)


# Each suite yields a (line, passed) pair per check it reports.


def _verify_intertwining(args):
    for a in range(args.max_twoj + 1):
        for b in range(args.max_twoj + 1):
            s = cgmod.build_S(a, b)
            report = s.report
            good = (report.passed(args.tol)
                    and s.column_norms_sq() == [1] * s.layout.total)
            line = f"S({a}/2 x {b}/2): max residual {report.max_residual:.3e}"
            yield line + ("" if good else "  FAIL"), good


def _verify_su2(args):
    from .hubbard import bracket, identity

    for two_j in range(args.max_twoj + 1):
        jp, jm = su2.jpm(two_j, "plus"), su2.jpm(two_j, "minus")
        jz = su2.j3(two_j)
        laws = (
            bracket(jp, jm) == jz.scale(2)
            and bracket(jz, jp) == jp
            and bracket(jz, jm) == jm.scale(-1)
            and su2.casimir(two_j)
            == identity(two_j + 1).scale(Fraction(two_j * (two_j + 2), 4))
        )
        yield f"twoJ={two_j}: {'exact' if laws else 'FAIL'}", laws


def _rand_xsum(rng, n: int) -> XSum:
    """A random sparse rational n x n sum for the verify suites."""
    return XSum(n, {(rng.randint(1, n), rng.randint(1, n)):
                    Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                    for _ in range(rng.randint(1, 2 * n))})


def _verify_kron(args):
    import random

    from .hubbard import xsum_mul

    rng = random.Random(7)

    ok = True
    for _ in range(50):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        a, c = _rand_xsum(rng, n), _rand_xsum(rng, n)
        b, d = _rand_xsum(rng, m), _rand_xsum(rng, m)
        paths = kron(a, b, path="sparse") == kron(a, b, path="closed")
        mixed = xsum_mul(kron(a, b), kron(c, d)) == kron(
            xsum_mul(a, c), xsum_mul(b, d)
        )
        ok = ok and paths and mixed
    yield f"50 random pairs: {'exact' if ok else 'FAIL'}", ok


def _verify_perm(args):
    import random

    from .hubbard import dagger, xsum_mul
    from .kron import kron_vec

    rng = random.Random(11)
    swaps = True
    for _ in range(50):
        n = rng.randint(1, 6)
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
        swap = perm.perm_matrix(perm.swap_perm(n))
        swaps = swaps and swap.apply(kron_vec(x, y)) == kron_vec(y, x)
    yield f"swap on 50 vector pairs: {'exact' if swaps else 'FAIL'}", swaps

    comm = True
    for _ in range(50):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a, b = _rand_xsum(rng, n), _rand_xsum(rng, m)
        p = perm.perm_matrix(perm.commutation_perm(n, m))
        lhs = xsum_mul(xsum_mul(dagger(p, "transpose"), kron(a, b)), p)
        comm = comm and lhs == kron(b, a)
    yield (f"commutation on 50 matrix pairs: {'exact' if comm else 'FAIL'}",
           comm)


def _verify_fourier(args):
    n = 2
    while n <= args.n:
        fac = fourier.cooley_tukey(n)
        err = fac.max_error()
        stages = all(f.nnz() == 2 * n for f in fac.factors)
        good = err < args.tol and stages
        yield f"n={n}: max error {err:.3e}" + ("" if good else "  FAIL"), good
        n *= 2


_SUITES = {
    "intertwining": _verify_intertwining,
    "su2": _verify_su2,
    "kron": _verify_kron,
    "perm": _verify_perm,
    "fourier": _verify_fourier,
}


def cmd_verify(args) -> int:
    _positive(args.tol, "--tol")
    if args.max_twoj < 0:
        raise DomainError("--max-twoj must be nonnegative")
    if args.suite == "fourier" and args.n < 2:
        raise DomainError("--n must be at least 2 for the fourier suite")
    if args.suite == "intertwining":
        check_order((args.max_twoj + 1) ** 2)  # largest S, before any build
    lines, passed = zip(*_SUITES[args.suite](args))
    _emit_text(lines, args)
    return EX_OK if all(passed) else EX_VERIFY


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="kronx", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-o", "--output", metavar="PATH",
        help="write the artifact here instead of stdout",
    )
    common.add_argument(
        "--format", choices=("json", "csv", "pretty"), default=None,
        help="output form; defaults to json for matrices (byte-stable) "
             "and csv for spectra; text reports take none",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kron", parents=[common],
                       help="Kronecker product of two JSON matrices")
    p.add_argument("a", help="left factor (JSON matrix file)")
    p.add_argument("b", help="right factor (JSON matrix file)")
    p.set_defaults(func=cmd_kron)

    p = sub.add_parser("perm", parents=[common],
                       help="permutation-derived matrices")
    p.add_argument("--op", default="swap",
                   choices=("swap", "commutation", "matrix",
                            "symmetrizer", "antisymmetrizer"))
    p.add_argument("--n", type=int, help="factor order")
    p.add_argument("--m", type=int, help="second factor order")
    p.add_argument("--p", type=int, help="number of tensor slots")
    p.add_argument("--images", type=int, nargs="+", metavar="PI",
                   help="explicit image tuple pi(1) pi(2) ...")
    p.set_defaults(func=cmd_perm)

    p = sub.add_parser("fft-factor", parents=[common],
                       help="sparse Cooley-Tukey factorization of F_n")
    p.add_argument("--n", type=int, required=True,
                   help="transform size (power of two)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--verify", action="store_true",
                      help="print stage sparsity and reconstruction error")
    mode.add_argument("--stage", type=int,
                      help="emit one butterfly stage as a JSON matrix")
    mode.add_argument("--perm", action="store_true",
                      help="emit the bit-reversal permutation matrix")
    p.set_defaults(func=cmd_fft_factor)

    p = sub.add_parser("su2", parents=[common],
                       help="irreducible generator matrices")
    p.add_argument("--twoj", type=int, required=True,
                   help="2J (all half-integer flags are doubled)")
    p.add_argument("--op", default="j3", choices=tuple(_WHICH))
    p.set_defaults(func=cmd_su2)

    p = sub.add_parser("couple", parents=[common],
                       help="generators on a product or direct-sum space")
    p.add_argument("--twoj1", type=int, required=True)
    p.add_argument("--twoj2", type=int, required=True)
    p.add_argument("--op", default="j3", choices=tuple(_WHICH))
    p.add_argument("--path", default="kron", choices=("kron", "ceiling"),
                   help="product assembly route (must agree)")
    p.add_argument("--block", action="store_true",
                   help="emit the block-diagonal coupled form instead")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("cg", parents=[common],
                       help="Clebsch-Gordan matrix, table, or coefficient")
    p.add_argument("--twoj1", type=int, required=True)
    p.add_argument("--twoj2", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--matrix", action="store_true",
                      help="emit S as a JSON matrix (default)")
    mode.add_argument("--table", action="store_true",
                      help="print coefficients grouped by (2J, 2M)")
    mode.add_argument("--coef", type=int, nargs=4,
                      metavar=("TWOM1", "TWOM2", "TWOJ", "TWOM"),
                      help="print one coefficient <j1 m1; j2 m2 | J M>")
    p.set_defaults(func=cmd_cg)

    p = sub.add_parser("diag", parents=[common],
                       help="spectrum (or Jacobi unitary) of a Hermitian "
                            "JSON matrix")
    p.add_argument("matrix", help="Hermitian matrix (JSON file)")
    p.add_argument("--solver", choices=("lapack", "jacobi"),
                   help="lapack (default) runs numpy eigvalsh; jacobi runs "
                        "the paper's Givens sweeps, the cross-check")
    p.add_argument("--tol", type=float,
                   help="jacobi: off-diagonal convergence threshold "
                        "(default 1e-12)")
    p.add_argument("--max-sweeps", type=int,
                   help="jacobi: sweep limit (default 30)")
    p.add_argument("--single-sweep", action="store_true",
                   help="jacobi: stop after one full pass")
    p.add_argument("--unitary", action="store_true",
                   help="emit the accumulated Jacobi unitary instead of the "
                        "spectrum (runs jacobi)")
    p.set_defaults(func=cmd_diag)

    p = sub.add_parser("heisenberg", parents=[common],
                       help="spin-1/2 chain Hamiltonian")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--jx", type=_fraction, default=Fraction(1))
    p.add_argument("--jy", type=_fraction, default=Fraction(1))
    p.add_argument("--jz", type=_fraction, default=Fraction(1))
    p.add_argument("--open", action="store_true",
                   help="open chain (default closes the ring)")
    p.add_argument("--diag", action="store_true",
                   help="emit the CSV spectrum instead of the matrix")
    p.set_defaults(func=cmd_heisenberg)

    p = sub.add_parser("hubbard", parents=[common],
                       help="fermionic Hubbard chain Hamiltonian "
                            "(order 4^sites, capped by KRONX_MAX_DIM)")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--eps", type=_fraction, default=Fraction(0))
    p.add_argument("--mu", type=_fraction, default=Fraction(0))
    p.add_argument("--u", type=_fraction, default=Fraction(0))
    p.add_argument("--t", type=_fraction, default=Fraction(0),
                   help="nearest-neighbor hopping")
    p.add_argument("--diag", action="store_true",
                   help="emit the CSV spectrum instead of the matrix")
    p.set_defaults(func=cmd_hubbard)

    p = sub.add_parser("jc", parents=[common],
                       help="Jaynes-Cummings evolution operator")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--cutoff", type=int, required=True,
                   help="photon number cutoff (Fock dimension - 1)")
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--two-cavity", action="store_true",
                   help="tensor two identical cavities")
    p.set_defaults(func=cmd_jc)

    p = sub.add_parser("verify", parents=[common],
                       help="run a module property suite, exit 3 on failure")
    p.add_argument("--suite", required=True, choices=tuple(_SUITES))
    p.add_argument("--max-twoj", type=int, default=4)
    p.add_argument("--n", type=int, default=16,
                   help="largest transform size for the fourier suite")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return EX_USAGE
    except SystemExit as exc:  # argparse --help
        return EX_OK if exc.code in (0, None) else EX_USAGE
    try:
        return args.func(args)
    except (
        DomainError,
        DimensionError,
        ClosureError,
        ResourceError,
        ConvergenceError,
        ValueError,
        IndexError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_INVALID
    except cgmod.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_VERIFY


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
