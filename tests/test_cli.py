import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import kronx
from kronx.cli import run
from kronx.coupling import product_gen
from kronx.hubbard import XSum
from kronx.kron import kron
from kronx.models import NLevelHamiltonian, diagonalize
from kronx.serialize import matrix_from_json, matrix_to_json, spectrum_to_csv
from kronx.su2 import jpm

from _oracles import bethe_xxx_ground_energy, dense_hubbard_jw, exact_moments


@pytest.fixture
def capcli(capsys):
    def call(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return call


def write_matrix(tmp_path, name, x):
    path = tmp_path / name
    path.write_text(matrix_to_json(x) + "\n")
    return str(path)


def printed_levels(csv: str) -> np.ndarray:
    """The printed spectrum as an ascending array, multiplicities expanded."""
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    return np.array([float(v) for v, mult in rows for _ in range(int(mult))])


JACOBI = ("--solver", "jacobi")
# levels 1..4 on the diagonal, every off-diagonal entry 1/2: one sweep
# leaves off-diagonal mass, so it does not converge
SWEPT = XSum(4, {(p, q): p if p == q else Fraction(1, 2)
                 for p in range(1, 5) for q in range(1, 5)})


class TestExitCodes:
    def test_success(self, capcli):
        code, out, _ = capcli("su2", "--twoj", "2")
        assert code == 0 and out

    def test_domain_error_is_2(self, capcli):
        code, _, err = capcli("su2", "--twoj", "-1")
        assert code == 2 and "error:" in err

    def test_unknown_flag_is_64(self, capcli):
        code, _, err = capcli("su2", "--twoj", "1", "--frobnicate")
        assert code == 64 and err

    def test_unknown_subcommand_is_64(self, capcli):
        assert capcli("warp")[0] == 64

    def test_missing_subcommand_is_64(self, capcli):
        assert capcli()[0] == 64

    @pytest.mark.parametrize("model, option", [
        ("heisenberg", "--jx"), ("heisenberg", "--jy"), ("heisenberg", "--jz"),
        ("hubbard", "--eps"), ("hubbard", "--mu"), ("hubbard", "--u"),
        ("hubbard", "--t"),
    ])
    @pytest.mark.parametrize("value", ["abc", "1/0", "7/00"])
    def test_bad_fraction_option_is_64(self, capcli, model, option, value):
        code, out, err = capcli(model, "--sites", "2", option, value)
        assert code == 64 and not out
        assert f"argument {option}: invalid Fraction value: '{value}'" in err

    @pytest.mark.parametrize("head, option, value", [
        (("heisenberg", "--sites", "2"), "--jx", "-3/2"),
        (("heisenberg", "--sites", "2"), "--jz", "-1e0"),
        (("hubbard", "--sites", "2"), "--t", "-1/2"),
        (("jc", "--gamma", "1", "--cutoff", "2"), "--time", "-1e200"),
        (("jc", "--cutoff", "2", "--time", "1"), "--gamma", "-2e3"),
    ])
    def test_negative_value_reads_as_its_equals_form(self, capcli, head,
                                                     option, value):
        code, out, err = capcli(*head, option, value)
        assert (code, err) == (0, "") and out
        assert capcli(*head, f"{option}={value}") == (code, out, err)

    def test_flag_after_a_flag_is_still_64(self, capcli):
        code, out, err = capcli("heisenberg", "--sites", "2", "--jx", "--jy", "1")
        assert code == 64 and not out
        assert "argument --jx: expected one argument" in err

    def test_help_is_0(self, capcli):
        for argv in (("--help",), ("cg", "--help"), ("verify", "--help")):
            code, out, _ = capcli(*argv)
            assert code == 0 and "--" in out

    def test_every_subcommand_help_lists_flags(self, capcli):
        for name, flag in (
            ("kron", "--output"), ("perm", "--op"), ("fft-factor", "--n"),
            ("su2", "--twoj"), ("couple", "--twoj1"), ("cg", "--table"),
            ("diag", "--tol"), ("heisenberg", "--sites"),
            ("hubbard", "--eps"), ("jc", "--gamma"), ("verify", "--suite"),
        ):
            code, out, _ = capcli(name, "--help")
            assert code == 0 and flag in out

    def test_mismatched_schema_is_2(self, capcli, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 2, "terms": [[1, 1, 1]]}')
        good = write_matrix(tmp_path, "good.json", XSum(2, {(1, 1): 1}))
        code, _, err = capcli("kron", str(bad), good)
        assert code == 2 and "error:" in err

    def test_missing_file_is_2(self, capcli):
        assert capcli("diag", "/nonexistent/h.json")[0] == 2

    def test_output_into_missing_directory_is_2(self, capcli, tmp_path):
        dest = tmp_path / "missing" / "su2.json"
        code, out, err = capcli("su2", "--twoj", "1", "-o", str(dest))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 2] No such file or directory")

    def test_nonpositive_tol_is_2(self, capcli, tmp_path):
        path = write_matrix(tmp_path, "h.json", XSum(2, {(1, 1): 1}))
        assert capcli("diag", path, "--tol", "-1")[0] == 2

    @pytest.mark.parametrize("kind, row", [
        ("rational", [9, 9, 1, 0]), ("sqrt", [1, 1, 2, 1, 1]),
        ("complex", [1, 1, "x", 0]),
    ])
    def test_order_over_the_cap_is_named_before_a_bad_row(
        self, capcli, tmp_path, monkeypatch, kind, row
    ):
        monkeypatch.setenv("KRONX_MAX_DIM", "8")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"order": 9, "kind": kind, "terms": [row]}))
        for argv in (("kron", str(bad), str(bad)), ("diag", str(bad))):
            code, out, err = capcli(*argv)
            assert code == 2 and out == ""
            assert err == "error: order 9 exceeds KRONX_MAX_DIM=8\n"

    @pytest.mark.parametrize("cap", ["abc", "0", "-3", "", "4.5"])
    def test_malformed_max_dim_names_itself(self, capcli, monkeypatch, cap):
        monkeypatch.setenv("KRONX_MAX_DIM", cap)
        code, out, err = capcli("heisenberg", "--sites", "2")
        assert code == 2 and out == ""
        assert err == (f"error: KRONX_MAX_DIM must be a positive integer, "
                       f"not {cap!r}\n")


class TestKron:
    def test_product_of_files(self, capcli, tmp_path):
        a = XSum(2, {(1, 2): Fraction(1, 2)})
        b = XSum(2, {(2, 1): 3})
        pa = write_matrix(tmp_path, "a.json", a)
        pb = write_matrix(tmp_path, "b.json", b)
        code, out, _ = capcli("kron", pa, pb)
        assert code == 0
        assert matrix_from_json(out) == kron(a, b)

    def test_output_file(self, capcli, tmp_path):
        pa = write_matrix(tmp_path, "a.json", XSum(1, {(1, 1): 2}))
        dest = tmp_path / "out.json"
        code, out, _ = capcli("kron", pa, pa, "-o", str(dest))
        assert code == 0 and out == ""
        assert matrix_from_json(dest.read_text()).coeff(1, 1) == 4

    @pytest.mark.parametrize("swap", (False, True), ids=("float-first",
                                                        "exact-first"))
    def test_exact_value_past_float_range_meets_a_float_is_2(
            self, capcli, tmp_path, swap):
        c = tmp_path / "c.json"
        c.write_text('{"kind":"complex","order":1,"terms":[[1,1,1.5,0.5]]}')
        big = tmp_path / "big.json"
        big.write_text('{"kind":"rational","order":1,"terms":'
                       f'[[1,1,{10**400},1]]}}')
        files = [str(c), str(big)][::-1 if swap else 1]
        code, out, err = capcli("kron", *files)
        assert code == 2 and out == ""
        assert err == "error: an exact value is too large for a float\n"


class TestPerm:
    def test_swap(self, capcli):
        code, out, _ = capcli("perm", "--op", "swap", "--n", "2")
        assert code == 0
        assert matrix_from_json(out).order == 4

    def test_commutation_needs_m(self, capcli):
        assert capcli("perm", "--op", "commutation", "--n", "2")[0] == 2

    def test_explicit_images(self, capcli):
        code, out, _ = capcli("perm", "--op", "matrix", "--images", "2", "1")
        assert code == 0
        x = matrix_from_json(out)
        assert x.coeff(1, 2) == 1 and x.coeff(2, 1) == 1

    def test_non_bijection_is_2(self, capcli):
        assert capcli("perm", "--op", "matrix", "--images", "1", "1")[0] == 2

    def test_symmetrizer(self, capcli):
        code, out, _ = capcli("perm", "--op", "symmetrizer", "--p", "2",
                              "--n", "2")
        assert code == 0
        assert matrix_from_json(out).coeff(2, 3) == Fraction(1, 2)


class TestFftFactor:
    def test_verify_passes(self, capcli):
        code, out, _ = capcli("fft-factor", "--n", "16", "--verify")
        assert code == 0
        assert out.count("stage") == 4
        assert "max reconstruction error" in out

    @pytest.mark.parametrize("n, stages", [(1, 1), (2, 1), (4, 2), (256, 8)])
    def test_verify_exact_factorizations(self, capcli, n, stages):
        # F_1 is one stage I_1 with one term; every butterfly stage has 2n
        code, out, _ = capcli("fft-factor", "--n", str(n), "--verify")
        assert code == 0
        want = 1 if n == 1 else 2 * n
        assert out.splitlines()[:stages] == [
            f"stage {s}: {want} terms" for s in range(stages)
        ]
        assert out.count("stage") == stages

    def test_stage_round_trips_through_kron(self, capcli, tmp_path):
        code, out, _ = capcli("fft-factor", "--n", "4", "--stage", "0")
        assert code == 0
        path = tmp_path / "stage.json"
        path.write_text(out)
        one = write_matrix(tmp_path, "one.json", XSum(1, {(1, 1): 1}))
        assert capcli("kron", str(path), one)[0] == 0

    def test_bundle_shape(self, capcli):
        code, out, _ = capcli("fft-factor", "--n", "8")
        obj = json.loads(out)
        assert code == 0
        assert obj["n"] == 8 and len(obj["stages"]) == 3
        assert sorted(obj["bit_reversal"]) == list(range(1, 9))

    def test_non_power_of_two_is_2(self, capcli):
        assert capcli("fft-factor", "--n", "12")[0] == 2

    def test_bad_stage_is_2(self, capcli):
        assert capcli("fft-factor", "--n", "8", "--stage", "5")[0] == 2

    def test_verify_report_goes_to_output_file(self, capcli, tmp_path):
        dest = tmp_path / "report.txt"
        code, out, _ = capcli("fft-factor", "--n", "8", "--verify",
                              "-o", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == capcli("fft-factor", "--n", "8",
                                          "--verify")[1]

    @pytest.mark.parametrize("argv", [
        ("--verify", "--format", "json"),
        ("--format", "pretty"),
        ("--format", "csv"),
    ])
    def test_format_without_a_form_is_2(self, capcli, argv):
        code, out, err = capcli("fft-factor", "--n", "8", *argv)
        assert code == 2 and out == "" and "error:" in err

    def test_explicit_json_format_matches_default(self, capcli):
        assert (capcli("fft-factor", "--n", "8", "--format", "json")
                == capcli("fft-factor", "--n", "8"))

    @pytest.mark.parametrize("modes", [
        ("--stage", "0", "--verify"),
        ("--perm", "--verify"),
        ("--stage", "0", "--perm"),
    ])
    def test_modes_mutually_exclusive(self, capcli, modes):
        code, out, err = capcli("fft-factor", "--n", "4", *modes)
        assert code == 64 and out == "" and "not allowed with" in err


class TestSu2AndCouple:
    def test_jplus_matrix(self, capcli):
        code, out, _ = capcli("su2", "--twoj", "1", "--op", "jplus")
        assert code == 0
        assert matrix_from_json(out) == jpm(1, "plus")

    def test_couple_paths_agree(self, capcli):
        outs = []
        for path in ("kron", "ceiling"):
            code, out, _ = capcli("couple", "--twoj1", "2", "--twoj2", "1",
                                  "--op", "jplus", "--path", path)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]  # byte-identical artifacts
        assert matrix_from_json(outs[0]) == product_gen(2, 1, "plus")

    def test_couple_block(self, capcli):
        code, out, _ = capcli("couple", "--twoj1", "1", "--twoj2", "1",
                              "--block", "--op", "j3")
        assert code == 0
        x = matrix_from_json(out)
        assert x.coeff(1, 1) == 1 and x.coeff(3, 3) == -1


class TestCg:
    def test_table_has_four_groups_for_half_half(self, capcli):
        code, out, _ = capcli("cg", "--twoj1", "1", "--twoj2", "1", "--table")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 4
        assert lines[0].startswith("2J=2 2M=2:")
        assert "sqrt(1/2)" in lines[1] and "-sqrt(1/2)" in lines[3]

    def test_matrix_is_sqrt_kind(self, capcli):
        code, out, _ = capcli("cg", "--twoj1", "1", "--twoj2", "1")
        obj = json.loads(out)
        assert code == 0 and obj["kind"] == "sqrt"
        assert [1, 1, 1, 1, 1] in obj["terms"]

    def test_coef_prints_exact_and_float(self, capcli):
        code, out, _ = capcli("cg", "--twoj1", "1", "--twoj2", "1",
                              "--coef", "-1", "1", "0", "0")
        assert code == 0
        assert out.startswith("-sqrt(1/2) = -0.7071")

    def test_parity_violation_is_2(self, capcli):
        assert capcli("cg", "--twoj1", "1", "--twoj2", "1",
                      "--coef", "0", "0", "0", "0")[0] == 2

    @pytest.mark.parametrize("mode", [
        ("--coef", "-1", "1", "0", "0"),
        ("--table",),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_text_output_refuses_format(self, capcli, mode, fmt):
        code, out, err = capcli("cg", "--twoj1", "1", "--twoj2", "1",
                                *mode, "--format", fmt)
        assert code == 2 and out == "" and "error:" in err

    def test_modes_mutually_exclusive(self, capcli):
        assert capcli("cg", "--twoj1", "1", "--twoj2", "1",
                      "--table", "--matrix")[0] == 64


class TestDiag:
    def test_spectrum_csv(self, capcli, tmp_path):
        h = XSum(2, {(1, 1): 1, (2, 2): 1, (1, 2): 2, (2, 1): 2})
        path = write_matrix(tmp_path, "h.json", h)
        code, out, _ = capcli("diag", path)
        assert code == 0
        assert out == "eigenvalue,multiplicity\n-1.0,1\n3.0,1\n"

    def test_unitary_round_trips(self, capcli, tmp_path):
        h = XSum(2, {(1, 2): 1j, (2, 1): -1j})
        path = write_matrix(tmp_path, "h.json", h)
        code, out, _ = capcli("diag", path, "--unitary")
        assert code == 0
        u = matrix_from_json(out)
        assert u.order == 2

    def test_non_hermitian_is_2(self, capcli, tmp_path):
        # a lone upper entry, a lone lower entry, a non-real diagonal
        for terms in ({(1, 2): 1}, {(2, 1): 1}, {(1, 1): 1j, (2, 2): 1}):
            path = write_matrix(tmp_path, "h.json", XSum(2, terms))
            assert capcli("diag", path)[0] == 2
            assert capcli("diag", path, "--unitary")[0] == 2

    def test_explicit_csv_format_matches_default(self, capcli, tmp_path):
        h = XSum(2, {(1, 1): 1, (2, 2): 3})
        path = write_matrix(tmp_path, "h.json", h)
        assert capcli("diag", path, "--format", "csv") == capcli("diag", path)

    def test_format_mismatch_is_2(self, capcli, tmp_path):
        h = XSum(2, {(1, 1): 1, (2, 2): 3})
        path = write_matrix(tmp_path, "h.json", h)
        assert capcli("diag", path, "--format", "json")[0] == 2
        assert capcli("diag", path, "--unitary", "--format", "csv")[0] == 2
        assert capcli("kron", path, path, "--format", "csv")[0] == 2

    def test_non_finite_input_is_2(self, capcli, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"order":1,"kind":"complex","terms":[[1,1,NaN,0]]}')
        code, out, err = capcli("diag", str(path))
        assert code == 2 and out == "" and "(1,1)" in err
        code, out, err = capcli("kron", str(path), str(path))
        assert code == 2 and out == "" and "(1,1)" in err

    def test_product_overflowing_to_infinity_is_2(self, capcli, tmp_path):
        path = write_matrix(tmp_path, "big.json", XSum(1, {(1, 1): 1e300j}))
        code, out, err = capcli("kron", path, path)
        assert code == 2 and out == "" and "error:" in err

    @pytest.mark.parametrize("argv", [
        ("heisenberg", "--sites", "2", "--jx", "1e400", "--diag"),
        ("hubbard", "--sites", "2", "--u", "1e400", "--diag"),
        ("diag", "F"),
        ("diag", "F", *JACOBI),
    ])
    def test_exact_entry_past_float_range_is_2(self, capcli, tmp_path, argv):
        path = tmp_path / "f.json"
        path.write_text('{"kind":"rational","order":2,"terms":'
                        f'[[1,1,{10**400},1],[2,2,1,1]]}}')
        argv = [str(path) if a == "F" else a for a in argv]
        code, out, err = capcli(*argv)
        assert code == 2 and out == ""
        assert err.startswith("error: entry (") and err.count("\n") == 1
        assert "too large for a float" in err
        # the exact matrix itself still writes
        if argv[0] != "diag":
            assert capcli(*argv[:-1])[0] == 0

    def test_degenerate_multiplicity_merged(self, capcli, tmp_path):
        h = XSum(3, {(1, 1): 2, (2, 2): 2, (3, 3): 5})
        path = write_matrix(tmp_path, "h.json", h)
        code, out, _ = capcli("diag", path)
        assert code == 0
        assert "2.0,2" in out and "5.0,1" in out

    def test_single_sweep_prints_the_unconverged_spectrum(self, capcli,
                                                          tmp_path):
        path = write_matrix(tmp_path, "h.json", SWEPT)
        h = NLevelHamiltonian.from_xsum(SWEPT)
        code, once, _ = capcli("diag", path, *JACOBI, "--single-sweep")
        assert code == 0
        assert once == spectrum_to_csv(diagonalize(h, single_sweep=True)[0])
        code, converged, _ = capcli("diag", path, *JACOBI)
        assert code == 0 and converged == spectrum_to_csv(diagonalize(h)[0])
        assert once != converged

    def test_zero_max_sweeps_is_2(self, capcli, tmp_path):
        path = write_matrix(tmp_path, "h.json", SWEPT)
        code, out, err = capcli("diag", path, *JACOBI, "--max-sweeps", "0")
        assert code == 2 and out == "" and "after 0 sweeps" in err

    def test_negative_max_sweeps_is_2(self, capcli, tmp_path):
        path = write_matrix(tmp_path, "h.json", SWEPT)
        code, out, err = capcli("diag", path, *JACOBI, "--max-sweeps", "-1")
        assert code == 2 and out == "" and "max_sweeps" in err

    def test_large_tol_changes_the_spectrum(self, capcli, tmp_path):
        # every off-diagonal entry is below 1, so no rotation runs at all
        path = write_matrix(tmp_path, "h.json", SWEPT)
        code, out, _ = capcli("diag", path, *JACOBI, "--tol", "1")
        assert code == 0
        assert out == "eigenvalue,multiplicity\n1.0,1\n2.0,1\n3.0,1\n4.0,1\n"
        assert out != capcli("diag", path, *JACOBI)[1]

    @pytest.mark.parametrize("flags", [
        ("--tol", "1e-3"), ("--max-sweeps", "30"), ("--single-sweep",),
        ("--solver", "lapack", "--tol", "1e-3"),
        ("--solver", "lapack", "--unitary"),
    ])
    def test_sweep_flags_and_unitary_refuse_lapack(self, capcli, tmp_path,
                                                   flags):
        path = write_matrix(tmp_path, "h.json", SWEPT)
        code, out, err = capcli("diag", path, *flags)
        assert code == 2 and out == ""
        named = [f for f in flags if f.startswith("--") and f != "--solver"]
        assert named[0] in err
        # --unitary runs the sweeps, so it takes them
        if "lapack" not in flags:
            assert capcli("diag", path, "--unitary", *flags)[0] == 0

    def test_solvers_agree_and_lapack_is_the_default(self, capcli, tmp_path):
        path = write_matrix(tmp_path, "h.json", SWEPT)
        lapack = capcli("diag", path)
        assert lapack == capcli("diag", path, "--solver", "lapack")
        jacobi = capcli("diag", path, *JACOBI)
        assert np.abs(printed_levels(lapack[1])
                      - printed_levels(jacobi[1])).max() < 1e-10

    def test_lapack_failure_is_2(self, capcli, tmp_path, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        path = write_matrix(tmp_path, "h.json", SWEPT)
        for argv in (("diag", path), ("heisenberg", "--sites", "3", "--diag"),
                     ("hubbard", "--sites", "2", "--t", "1", "--diag")):
            code, out, err = capcli(*argv)
            assert code == 2 and out == "" and "LAPACK" in err
        assert capcli("diag", path, *JACOBI)[0] == 0


class TestHeisenbergHubbardJc:
    def test_heisenberg_diag_fixture(self, capcli):
        code, out, _ = capcli("heisenberg", "--sites", "2", "--jx", "1",
                              "--jy", "1", "--jz", "1", "--diag")
        assert code == 0
        assert out == "eigenvalue,multiplicity\n-1.0,3\n3.0,1\n"

    def test_heisenberg_ring_levels_print_without_round_off(self, capcli):
        code, out, _ = capcli("heisenberg", "--sites", "4", "--diag")
        assert code == 0
        assert out == "eigenvalue,multiplicity\n-2.0,5\n0.0,7\n2.0,3\n4.0,1\n"

    def test_heisenberg_matrix_round_trips_into_diag(self, capcli, tmp_path):
        code, out, _ = capcli("heisenberg", "--sites", "2", "--jz", "1",
                              "--jx", "0", "--jy", "0")
        assert code == 0
        path = tmp_path / "h.json"
        path.write_text(out)
        code2, out2, _ = capcli("diag", str(path))
        assert code2 == 0 and out2.startswith("eigenvalue,multiplicity")

    def test_heisenberg_byte_stable(self, capcli):
        a = capcli("heisenberg", "--sites", "3", "--jx", "1/2")
        b = capcli("heisenberg", "--sites", "3", "--jx", "1/2")
        assert a == b and a[0] == 0

    def test_heisenberg_bad_sites_is_2(self, capcli):
        assert capcli("heisenberg", "--sites", "1")[0] == 2

    def test_hubbard_single_site_spectrum(self, capcli):
        code, out, _ = capcli("hubbard", "--sites", "1", "--eps", "1",
                              "--mu", "1/2", "--u", "4", "--diag")
        assert code == 0
        assert out == ("eigenvalue,multiplicity\n"
                       "0.0,1\n0.5,2\n5.0,1\n")

    def test_hubbard_cap_is_2(self, capcli):
        # order 4^7 = 16384 is over the default KRONX_MAX_DIM of 4096
        assert capcli("hubbard", "--sites", "7")[0] == 2

    def test_hubbard_three_site_spectrum_is_fermionic(self, capcli):
        code, out, _ = capcli("hubbard", "--sites", "3", "--t", "1",
                              "--u", "4", "--eps", "3/10", "--diag")
        assert code == 0
        hops = {(1, 2): 1.0, (2, 3): 1.0}
        oracle = np.linalg.eigvalsh(dense_hubbard_jw(3, 0.3, 4.0, hops))
        assert out == spectrum_to_csv(oracle)
        # the paper's sweeps on the same dense matrix, beside LAPACK
        h = dense_hubbard_jw(3, 0.3, 4.0, hops)
        jacobi = diagonalize(NLevelHamiltonian(
            h.diagonal(), {(p + 1, q + 1): h[p, q] for p in range(64)
                           for q in range(p + 1, 64) if h[p, q]}))[0]
        assert np.abs(printed_levels(out) - jacobi).max() < 1e-11

    @pytest.mark.parametrize("sites", (4, 6, 8, 10))
    def test_antiferromagnetic_ring_ground_state_is_bethe(self, capcli, sites):
        # heisenberg_h with every J = -1 is 2 sum S.S
        code, out, _ = capcli("heisenberg", "--sites", str(sites), "--jx=-1",
                              "--jy=-1", "--jz=-1", "--diag")
        assert code == 0
        ground = printed_levels(out)[0]
        assert abs(ground - 2 * bethe_xxx_ground_energy(sites)) < 1e-12

    @pytest.mark.parametrize("argv", [
        ("heisenberg", "--sites", "2"),
        ("heisenberg", "--sites", "5", "--jz", "3/2"),
        ("heisenberg", "--sites", "6", "--jy", "0", "--open"),
        ("heisenberg", "--sites", "8", "--jx", "7/10", "--jy=-2/5",
         "--jz", "11/10"),
        ("hubbard", "--sites", "1", "--eps", "1", "--mu", "1/2", "--u", "4"),
        ("hubbard", "--sites", "3", "--t", "1", "--u", "4", "--eps", "3/10"),
        ("hubbard", "--sites", "4", "--t", "1/2", "--u", "2", "--mu", "1"),
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv))
    def test_spectrum_moments_are_the_exact_traces(self, capcli, argv):
        # Tr H and Tr H^2 in Fractions from the term list, against the sum
        # and the sum of squares of the printed (12-decimal) multiset
        code, matrix, _ = capcli(*argv)
        assert code == 0
        trace, square = exact_moments(matrix_from_json(matrix))
        code, out, _ = capcli(*argv, "--diag")
        assert code == 0
        levels = printed_levels(out)
        slack = len(levels) * 1e-12 * (1 + np.abs(levels).max()) ** 2
        assert abs(levels.sum() - float(trace)) < slack
        assert abs((levels**2).sum() - float(square)) < slack

    @pytest.mark.parametrize("argv", [
        ("heisenberg", "--sites", "3", "--jx", "1/2"),
        ("heisenberg", "--sites", "6", "--jz", "3/2", "--open"),
        ("heisenberg", "--sites", "6", "--jy", "0"),
        ("heisenberg", "--sites", "8", "--jz", "3/2"),
        ("heisenberg", "--sites", "8", "--jx", "7/10", "--jy=-2/5",
         "--jz", "11/10", "--open"),
        ("hubbard", "--sites", "3", "--t", "1", "--u", "4", "--eps", "3/10"),
    ], ids=lambda argv: "-".join(a.strip("-") for a in argv))
    def test_jacobi_and_lapack_spectra_agree(self, capcli, tmp_path, argv):
        # the two 8-site cases print a last digit differently on the two
        # solvers: their exact levels lie within 1e-14 of a rounding boundary
        code, matrix, _ = capcli(*argv)
        assert code == 0
        path = tmp_path / "h.json"
        path.write_text(matrix)
        lapack = capcli(*argv, "--diag")
        jacobi = capcli("diag", str(path), *JACOBI)
        assert lapack[0] == jacobi[0] == 0
        assert lapack[1] == capcli("diag", str(path))[1]
        assert np.abs(printed_levels(lapack[1])
                      - printed_levels(jacobi[1])).max() < 1e-10

    def test_hubbard_matrix_is_rational(self, capcli):
        code, out, _ = capcli("hubbard", "--sites", "2", "--eps", "1",
                              "--t", "1")
        assert code == 0
        assert json.loads(out)["kind"] == "rational"

    def test_heisenberg_matrix_is_rational(self, capcli):
        code, out, _ = capcli("heisenberg", "--sites", "2")
        assert code == 0
        assert json.loads(out)["kind"] == "rational"

    def test_jc_unitary_entries(self, capcli):
        code, out, _ = capcli("jc", "--gamma", "1", "--cutoff", "2",
                              "--time", "0.5")
        assert code == 0
        u = matrix_from_json(out)
        # survival of the one-photon excited state: cos(gamma t sqrt(2))
        f = 2 + 1 - 1  # fock index for n = 1
        got = complex(u.coeff(f, f))
        assert abs(got - math.cos(0.5 * math.sqrt(2))) < 1e-12

    def test_jc_two_cavity_order(self, capcli):
        code, out, _ = capcli("jc", "--gamma", "1", "--cutoff", "1",
                              "--time", "1.0", "--two-cavity")
        assert code == 0
        assert matrix_from_json(out).order == 16

    def test_jc_bad_cutoff_is_2(self, capcli):
        assert capcli("jc", "--gamma", "1", "--cutoff", "0",
                      "--time", "1")[0] == 2

    @pytest.mark.parametrize("gamma, time, extra, named", [
        ("nan", "1", (), "gamma"),
        ("inf", "1", (), "gamma"),
        ("1", "nan", (), "time"),
        ("1", "inf", (), "time"),
        ("nan", "1", ("--two-cavity",), "gamma"),
        ("1", "nan", ("--two-cavity",), "time"),
        ("1e200", "1e200", (), "Rabi angle"),
        ("1e200", "-1e200", ("--two-cavity",), "Rabi angle"),
    ])
    def test_jc_non_finite_input_is_2(self, capcli, gamma, time, extra, named):
        code, out, err = capcli("jc", "--gamma", gamma, "--cutoff", "2",
                                f"--time={time}", *extra)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {named}") and err.count("\n") == 1


class TestVerify:
    def test_intertwining_suite_passes(self, capcli):
        code, out, _ = capcli("verify", "--suite", "intertwining",
                              "--max-twoj", "3")
        assert code == 0
        assert "max residual" in out

    def test_intertwining_suite_checks_column_norms(self, capcli, monkeypatch):
        build_S = kronx.cg.build_S

        def singlet_doubled(two_j1, two_j2):
            s = build_S(two_j1, two_j2)
            if (two_j1, two_j2) != (1, 1):
                return s
            # the singlet column q = 4 still intertwines when doubled;
            # only its squared norm, 4, gives it away
            terms = {key: 2 * c if key[1] == 4 else c
                     for key, c in s.matrix.items()}
            return kronx.cg.CGMatrix(s.layout, XSum(4, terms))

        assert kronx.cg.verify_intertwining(singlet_doubled(1, 1)).passed()
        monkeypatch.setattr(kronx.cg, "build_S", singlet_doubled)
        code, out, _ = capcli("verify", "--suite", "intertwining",
                              "--max-twoj", "1")
        assert code == 3
        lines = out.splitlines()
        assert lines[-1].startswith("S(1/2 x 1/2)")
        assert lines[-1].endswith("  FAIL")
        assert not any("FAIL" in line for line in lines[:-1])

    def test_su2_suite_passes(self, capcli):
        code, out, _ = capcli("verify", "--suite", "su2", "--max-twoj", "6")
        assert code == 0 and "exact" in out

    def test_kron_suite_passes(self, capcli):
        assert capcli("verify", "--suite", "kron")[0] == 0

    def test_perm_suite_passes(self, capcli):
        assert capcli("verify", "--suite", "perm")[0] == 0

    def test_fourier_suite_passes(self, capcli):
        code, out, _ = capcli("verify", "--suite", "fourier", "--n", "32")
        assert code == 0 and "n=32" in out

    def test_report_goes_to_output_file(self, capcli, tmp_path):
        dest = tmp_path / "kron.txt"
        code, out, _ = capcli("verify", "--suite", "kron", "-o", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == "50 random pairs: exact\n"

    def test_failed_report_goes_to_output_file(self, capcli, tmp_path):
        dest = tmp_path / "fourier.txt"
        code, out, _ = capcli("verify", "--suite", "fourier", "--n", "4",
                              "--tol", "1e-300", "-o", str(dest))
        assert code == 3 and out == ""
        lines = dest.read_text().splitlines()
        assert len(lines) == 2 and all(ln.endswith("  FAIL") for ln in lines)

    @pytest.mark.parametrize("fmt", ["json", "csv", "pretty"])
    def test_format_is_2(self, capcli, fmt):
        code, out, err = capcli("verify", "--suite", "su2", "--format", fmt)
        assert code == 2 and out == "" and "error:" in err

    def test_unknown_suite_is_64(self, capcli):
        assert capcli("verify", "--suite", "astrology")[0] == 64

    def test_intertwining_over_order_cap_fails_before_any_build(
        self, capcli, monkeypatch
    ):
        def refuse(*args):
            raise AssertionError("built S before the order check")

        monkeypatch.setenv("KRONX_MAX_DIM", "24")
        monkeypatch.setattr(kronx.cg, "build_S", refuse)
        code, out, err = capcli("verify", "--suite", "intertwining",
                                "--max-twoj", "4")  # S(4/2 x 4/2) has order 25
        assert code == 2 and out == "" and "KRONX_MAX_DIM" in err

    def test_negative_max_twoj_is_2(self, capcli):
        assert capcli("verify", "--suite", "intertwining",
                      "--max-twoj", "-1")[0] == 2

    @pytest.mark.parametrize("n", ["1", "0", "-4"])
    def test_fourier_suite_below_two_is_2(self, capcli, n):
        code, out, err = capcli("verify", "--suite", "fourier", "--n", n)
        assert code == 2 and out == "" and "--n" in err

    def test_intertwining_suite_checks_each_pair_once(self, capcli,
                                                      monkeypatch):
        calls = []
        check = kronx.cg.verify_intertwining

        def counted(s):
            calls.append(s.layout)
            return check(s)

        monkeypatch.setattr(kronx.cg, "verify_intertwining", counted)
        code, out, _ = capcli("verify", "--suite", "intertwining",
                              "--max-twoj", "3")
        assert code == 0 and len(out.splitlines()) == 16
        assert len(calls) == 16


# One document per integer field of the JSON schema, with X in that field;
# each is a valid Hermitian matrix when X is 1.
_BOOL_FIELDS = {
    "order": '{"order":X,"kind":"rational","terms":[[1,1,1,1]]}',
    "row": '{"order":1,"kind":"rational","terms":[[X,1,1,1]]}',
    "col": '{"order":1,"kind":"rational","terms":[[1,X,1,1]]}',
    "num": '{"order":1,"kind":"rational","terms":[[1,1,X,1]]}',
    "den": '{"order":1,"kind":"rational","terms":[[1,1,1,X]]}',
    "sqrt_sign": '{"order":1,"kind":"sqrt","terms":[[1,1,X,1,1]]}',
    "sqrt_num": '{"order":1,"kind":"sqrt","terms":[[1,1,1,X,1]]}',
    "sqrt_den": '{"order":1,"kind":"sqrt","terms":[[1,1,1,1,X]]}',
    "re": '{"order":1,"kind":"complex","terms":[[1,1,X,0]]}',
    "im": '{"order":2,"kind":"complex","terms":[[1,2,0,X],[2,1,0,-1]]}',
}


class TestJsonBooleans:
    @pytest.mark.parametrize("field", _BOOL_FIELDS)
    def test_bool_in_an_integer_field_is_2(self, capcli, tmp_path, field):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(_BOOL_FIELDS[field].replace("X", "1"))
        bad.write_text(_BOOL_FIELDS[field].replace("X", "true"))
        assert capcli("diag", str(good))[0] == 0
        assert capcli("kron", str(good), str(good))[0] == 0
        for argv in (("diag", str(bad)), ("kron", str(bad), str(good)),
                     ("kron", str(good), str(bad))):
            code, out, err = capcli(*argv)
            assert code == 2 and out == "" and "error:" in err, argv


class TestByteStability:
    def test_exact_artifacts_are_byte_stable(self, capcli):
        for argv in (
            ("su2", "--twoj", "3", "--op", "jminus"),
            ("cg", "--twoj1", "2", "--twoj2", "1"),
            ("couple", "--twoj1", "1", "--twoj2", "1", "--op", "j3"),
            ("perm", "--op", "commutation", "--n", "3", "--m", "2"),
        ):
            first = capcli(*argv)
            second = capcli(*argv)
            assert first == second and first[0] == 0


class TestModuleEntryPoint:
    @staticmethod
    def env():
        src = str(Path(kronx.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    @classmethod
    def module(cls, *argv):
        return subprocess.run([sys.executable, "-m", *argv], env=cls.env(),
                              capture_output=True, text=True, timeout=60)

    def test_reader_closing_the_pipe_exits_0(self):
        # 270 kB, more than a pipe buffer holds: the writer is still
        # writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "kronx", "cg", "--twoj1", "24", "--twoj2",
             "24"], env=self.env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        head = proc.stdout.read(10)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert head == b'{"kind":"s'
        assert (proc.returncode, err) == (0, b"")

    def test_help_prints_usage(self):
        for target in ("kronx", "kronx.cli"):
            proc = self.module(target, "--help")
            assert proc.returncode == 0
            assert proc.stdout.startswith("usage: kronx")

    def test_output_equals_run(self, capcli):
        proc = self.module("kronx", "su2", "--twoj", "1")
        assert (proc.returncode, proc.stdout, proc.stderr) == capcli(
            "su2", "--twoj", "1"
        )


class TestOneParser:
    @pytest.fixture
    def h(self, tmp_path):
        return write_matrix(tmp_path, "h.json", XSum(3, {
            (1, 1): 1, (1, 2): 1j, (2, 1): -1j, (2, 3): 2, (3, 2): 2}))

    def test_two_runs_construct_one_parser(self, capcli, monkeypatch):
        built = []

        class Counted(kronx.cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(kronx.cli, "_Parser", Counted)
        kronx.cli.build_parser.cache_clear()
        try:
            for _ in range(2):
                assert capcli("su2", "--twoj", "1")[0] == 0
        finally:
            kronx.cli.build_parser.cache_clear()
        assert built.count("kronx") == 1

    @pytest.mark.parametrize("first, second", [
        (("diag", "{h}", "--unitary"), ("diag", "{h}")),
        (("diag", "{h}", "--frobnicate"), ("diag", "{h}")),
        (("--help",), ("diag", "{h}")),
        (("heisenberg", "--sites", "3", "--open", "--jy", "0", "--diag"),
         ("heisenberg", "--sites", "3", "--diag")),
    ], ids=("unitary-then-spectrum", "usage-error-then-valid",
            "help-then-valid", "flags-then-defaults"))
    def test_calls_on_one_parser_leak_no_state(self, capcli, h, monkeypatch,
                                               first, second):
        monkeypatch.setenv("COLUMNS", "80")  # one help width for both sides
        for argv in (first, second):
            argv = [a.format(h=h) for a in argv]
            fresh = TestModuleEntryPoint.module("kronx", *argv)
            assert capcli(*argv) == (fresh.returncode, fresh.stdout,
                                     fresh.stderr)

    def test_spectrum_paths_build_no_unitary(self, capcli, h, monkeypatch):
        # nor do they copy H through NLevelHamiltonian on the way to LAPACK;
        # the Jacobi cross-check does both
        def refuse(*args):
            raise AssertionError("a spectrum path built U or copied H")

        monkeypatch.setattr(kronx.models, "from_dense", refuse)
        monkeypatch.setattr(kronx.models.NLevelHamiltonian, "from_xsum",
                            classmethod(refuse))
        monkeypatch.setattr(kronx.models.NLevelHamiltonian, "to_xsum", refuse)
        for argv in (("diag", h), ("diag", h, "--solver", "lapack"),
                     ("heisenberg", "--sites", "3", "--diag"),
                     ("hubbard", "--sites", "2", "--t", "1", "--u", "4",
                      "--diag")):
            code, out, _ = capcli(*argv)
            assert code == 0 and out.startswith("eigenvalue,multiplicity")
        for argv in (("diag", h, "--unitary"),
                     ("diag", h, *JACOBI, "--single-sweep")):
            with pytest.raises(AssertionError):
                capcli(*argv)
