"""Physics payloads: the Hermitian eigenvalue kernel, the paper's n-level
Jacobi diagonalization, spin chains, fermionic Hubbard clusters, and
Jaynes-Cummings evolution, all in X-operator form.

A shared convention runs through the module: basis levels are ordered by
descending weight or occupation (the su2 ordering), so the JC photon
index f carries n = cutoff + 1 - f photons and the Rabi ladder reads
N_f = sqrt(cutoff + 2 - f) straight off the Fock diagonal.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Mapping, Tuple

import numpy as np

from .exactnum import DomainError, scalar_mul
from .hubbard import XSum, check_order, from_dense, x_op, xsum_mul
from .kron import kron
from .perm import _digit_table
from .su2 import pauli


class ConvergenceError(RuntimeError):
    """An eigensolver gave up.  After exhausted Jacobi sweeps it carries the
    remaining off-diagonal mass and the sweep count; when LAPACK fails both
    are None and the message says so."""

    def __init__(self, residual: float | None, sweeps: int | None,
                 message: str | None = None):
        super().__init__(message or f"off-diagonal residual {residual:.3e} "
                                    f"after {sweeps} sweeps")
        self.residual = residual
        self.sweeps = sweeps


@dataclass(frozen=True)
class NLevelHamiltonian:
    """H = sum eps_p X^{p,p} + sum V_{p,q} X^{p,q}, Hermitian by storage:
    only p < q couplings are kept, the mirror entry is the conjugate."""

    eps: Tuple[float, ...]
    v: Mapping[Tuple[int, int], complex] = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.eps)
        if n < 1:
            raise ValueError("need at least one level")
        eps = tuple(float(e) for e in self.eps)
        canon: Dict[Tuple[int, int], complex] = {}
        for (p, q), val in dict(self.v).items():
            if not (1 <= p <= n and 1 <= q <= n) or p == q:
                raise IndexError(f"coupling ({p},{q}) outside the plane set")
            key, cval = ((p, q), complex(val)) if p < q else (
                (q, p),
                complex(val).conjugate(),
            )
            if key in canon and abs(canon[key] - cval) > 1e-12:
                raise ValueError(f"conflicting couplings for {key}")
            if cval != 0:
                canon[key] = cval
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "v", canon)

    @property
    def order(self) -> int:
        return len(self.eps)

    def coupling(self, p: int, q: int) -> complex:
        if p < q:
            return self.v.get((p, q), 0j)
        return self.v.get((q, p), 0j).conjugate()

    def to_xsum(self) -> XSum:
        terms: Dict[Tuple[int, int], complex] = {}
        for p, e in enumerate(self.eps, start=1):
            if e:
                terms[(p, p)] = e
        for (p, q), val in self.v.items():
            terms[(p, q)] = val
            terms[(q, p)] = val.conjugate()
        return XSum(self.order, terms)

    @classmethod
    def from_xsum(cls, x: XSum) -> "NLevelHamiltonian":
        a = _hermitian_array(x)
        return cls(a.diagonal().real, {(p, q): a[p - 1, q - 1]
                                       for p, q in x.term_map() if p < q})


_HERMITIAN_TOL = 1e-12


def _hermitian_array(x: XSum) -> np.ndarray:
    """x as a dense Hermitian array: its real diagonal and upper triangle,
    mirrored; float64 when every stored term is real (no complex n x n
    array is allocated then), complex otherwise.  Raises DomainError unless,
    on x's stored terms, the diagonal is real and each (p, q) matches
    conj (q, p) within _HERMITIAN_TOL, so a lone entry in either triangle
    fails; O(nnz) past the n x n array."""
    rows, cols, vals = x.triplets()
    if not vals.imag.any():
        vals = vals.real
    a = np.zeros((x.order, x.order), dtype=vals.dtype)
    a[rows, cols] = vals
    diag = rows == cols
    if (bad := diag & (np.abs(vals.imag) > _HERMITIAN_TOL)).any():
        raise DomainError(f"diagonal entry {rows[bad].min() + 1} is not real")
    mirror = np.abs(vals - a[cols, rows].conj()) > _HERMITIAN_TOL
    if (bad := ~diag & mirror).any():
        p, q = min(sorted(pq) for pq in zip(rows[bad] + 1, cols[bad] + 1))
        raise DomainError(f"entries ({p},{q}) and ({q},{p}) are not conjugate")
    upper, lower = rows < cols, rows > cols
    a[rows[lower], cols[lower]] = 0
    a[cols[upper], rows[upper]] = vals[upper].conj()
    a[rows[diag], cols[diag]] = vals[diag].real
    return a


def eigenvalues(x: XSum) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian x: LAPACK's eigvalsh on
    _hermitian_array(x), the package's one production eigenvalue kernel.
    A LAPACK failure to converge raises ConvergenceError."""
    a = _hermitian_array(x)
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            None, None, f"LAPACK eigvalsh did not converge: {exc}") from exc


def givens_unitary(
    n: int, k: int, m: int, absalpha: float, mu: float
) -> XSum:
    """exp(alpha X^{k,m} - conj(alpha) X^{m,k}) with alpha = |a| e^{i mu}:
    a plane rotation, identity outside the (k, m) plane."""
    if not (1 <= k < m <= n):
        raise IndexError(f"need 1 <= k < m <= n, got ({k},{m}) for n={n}")
    c = math.cos(absalpha)
    s = math.sin(absalpha)
    ph = cmath.exp(1j * mu)
    terms: Dict[Tuple[int, int], complex] = {
        (p, p): 1 for p in range(1, n + 1) if p not in (k, m)
    }
    terms[(k, k)] = c
    terms[(m, m)] = c
    terms[(k, m)] = s * ph
    terms[(m, k)] = -s * ph.conjugate()
    return XSum(n, terms)


def _rotate(
    a: np.ndarray, k: int, m: int, u: np.ndarray | None = None
) -> complex:
    """a <- G+ a G in place, G = givens_unitary(n, k + 1, m + 1, |alpha|,
    arg alpha): only rows and columns k < m (0-based) of the Hermitian work
    array change, a[k, m] becomes exactly 0, and u, if given, becomes u G.
    Returns alpha; 0j, changing nothing, if a[k, m] is 0.  |alpha| in
    (0, pi/4] splits the pair as (eps_k + eps_m)/2 -+ sqrt(delta^2/4 +
    |V|^2), each level keeping its side of the crossing."""
    vkm = complex(a[k, m])
    if vkm == 0:
        return 0j
    ek, em = a[k, k].real, a[m, m].real
    delta = em - ek
    sigma = -1.0 if delta < 0 else 1.0
    absalpha = math.atan2(2 * abs(vkm), abs(delta)) / 2
    ph = cmath.exp(1j * cmath.phase(sigma * vkm))
    c = math.cos(absalpha)
    sp = math.sin(absalpha) * ph
    a[k], a[m] = c * a[k] - sp * a[m], sp.conjugate() * a[k] + c * a[m]
    a[:, k], a[:, m] = a[k].conj(), a[m].conj()
    half = (ek + em) / 2
    shift = math.sqrt(delta * delta / 4 + abs(vkm) ** 2)
    a[k, k], a[m, m] = half - sigma * shift, half + sigma * shift
    a[k, m] = a[m, k] = 0
    if u is not None:
        u[:, k], u[:, m] = (c * u[:, k] - sp.conjugate() * u[:, m],
                            sp * u[:, k] + c * u[:, m])
    return absalpha * ph


def rotate_step(
    h: NLevelHamiltonian, k: int, m: int
) -> Tuple[NLevelHamiltonian, complex]:
    """Zero the (k, m) coupling by one Givens rotation H' = U+ H U (the
    kernel diagonalize runs); returns H' and the complex angle alpha."""
    if not (1 <= k < m <= h.order):
        raise IndexError(f"need 1 <= k < m <= n, got ({k},{m})")
    if h.coupling(k, m) == 0:
        return h, 0j
    a = h.to_xsum().to_numpy()
    alpha = _rotate(a, k - 1, m - 1)
    return NLevelHamiltonian.from_xsum(from_dense(a.tolist())), alpha


def diagonalize(
    h: NLevelHamiltonian,
    tol: float = 1e-12,
    max_sweeps: int = 30,
    single_sweep: bool = False,
) -> Tuple[Tuple[float, ...], XSum]:
    """The paper's construction: cyclic Jacobi sweeps of Givens rotations
    until the off-diagonal mass drops below tol.

    Returns eigenvalues sorted ascending and the accumulated unitary U
    with its columns permuted to match (so U+ H U is the sorted diagonal).
    With single_sweep the loop stops after one full pass regardless of
    the residual, reproducing the plain n-1 rotation construction.
    eigenvalues() is the production kernel; this is its cross-check.
    """
    if max_sweeps < 0:
        raise ValueError(f"max_sweeps must be nonnegative, got {max_sweeps}")
    a = h.to_xsum().to_numpy()
    n = len(a)
    u = np.eye(n, dtype=complex)
    sweeps = 0
    while (residual := float(np.abs(a - np.diag(a.diagonal())).max())) > tol:
        if sweeps >= max_sweeps:
            raise ConvergenceError(residual, sweeps)
        for k in range(n - 1):
            for m in range(k + 1, n):
                _rotate(a, k, m, u)
        sweeps += 1
        if single_sweep:
            break
    eps = a.diagonal().real.tolist()
    order = sorted(range(n), key=eps.__getitem__)
    if not sweeps:  # nothing rotated: U is an exact permutation
        u = np.eye(n, dtype=int)
    return tuple(eps[i] for i in order), from_dense(u[:, order].tolist())


def _site_sum(n: int, d: int, terms) -> XSum:
    """Sum of coef * op_1(site_1) ... op_m(site_m) over (coef, ((site, op),
    ...)) terms on n sites of d levels; a term's sites are distinct, in
    1..n, and a local op has order d and at most one entry per column.  A
    term with no factors is coef * I, as if its one factor were I on a site.

    For each column q the site digits of q are read from one digit table
    (perm._digit_table); each factor maps its own site's digit to one
    entry, one X^{p,q} per term that acts on q.  Entries, promoted as kron
    promotes them beside an identity (1 * v), multiply right to left, and
    the X^{p,q} of all columns are summed in that order by _summed: spin
    sums equal the kron_many/xsum_mul composition term for term."""
    order = d**n
    check_order(order)
    plan = []
    for coef, factors in terms:
        steps = []
        for site, op in reversed(factors):
            col = {c: ((r - c) * d ** (n - site), scalar_mul(1, v))
                   for (r, c), v in op.term_map().items()}
            if op.order != d or len(col) < op.nnz():
                raise ValueError(f"local ops are {d}x{d}, one entry per column")
            steps.append((site - 1, col))
        if len({s for s, _ in steps}.intersection(range(n))) < len(steps):
            raise ValueError(f"a term's sites are not distinct sites in 1..{n}")
        plan.append((coef, steps))

    def contributions():
        for q, digits in enumerate((_digit_table(d, n) + 1).tolist(), 1):
            for coef, steps in plan:
                p, amp = q, None
                for s, col in steps:
                    if digits[s] not in col:
                        break
                    shift, v = col[digits[s]]
                    amp = v if amp is None else scalar_mul(v, amp)
                    p += shift
                else:  # a term with no factors is coef times I
                    yield (p, q), scalar_mul(coef, 1 if amp is None else amp)

    return XSum._of_pairs(order, contributions())


@dataclass(frozen=True)
class SpinChainParams:
    sites: int
    jx: float
    jy: float
    jz: float

    def __post_init__(self):
        if self.sites < 2:
            raise ValueError("need at least two sites")


def heisenberg_h(params: SpinChainParams, periodic: bool = True) -> XSum:
    """-1/2 sum_j (Jx sx sx + Jy sy sy + Jz sz sz) over nearest bonds.

    The xy part of a bond is built in ladder form, (Jx+Jy)(s+ s- + s- s+)
    + (Jx-Jy)(s+ s+ + s- s-) with s+ = X^{1,2} and s- = X^{2,1}, so rational
    couplings give an exact rational H (sy alone would bring in +-i).
    Periodic closure identifies site n+1 with site 1; note that for
    n = 2 this makes the single physical bond appear twice.
    """
    n = params.sites
    bonds = [(j, j % n + 1) for j in range(1, (n if periodic else n - 1) + 1)]
    up, dn, sz = x_op(2, 1, 2), x_op(2, 2, 1), pauli("z")
    parts = ((params.jx + params.jy, ((up, dn), (dn, up))),
             (params.jx - params.jy, ((up, up), (dn, dn))),
             (params.jz, ((sz, sz),)))
    terms = [(coupling, ((a, s), (b, t))) for coupling, ops in parts
             if coupling for s, t in ops for (a, b) in bonds]
    return _site_sum(n, 2, terms).scale(Fraction(-1, 2))


def total_sz(n: int) -> XSum:
    sz = pauli("z")
    return _site_sum(n, 2, [(1, ((j, sz),)) for j in range(1, n + 1)])


def hubbard_site_ops() -> Dict[str, XSum]:
    """Single-site ladder operators on the (0, +, -, 2) basis."""
    cdag_up = x_op(4, 2, 1) + x_op(4, 4, 3)
    cdag_dn = x_op(4, 3, 1) - x_op(4, 4, 2)
    return {
        "cdag_up": cdag_up,
        "cdag_dn": cdag_dn,
        "c_up": cdag_up.dagger(),
        "c_dn": cdag_dn.dagger(),
    }


@dataclass(frozen=True)
class HubbardParams:
    """On-site energies (E0, E1, E2) and symmetric hoppings t[(i, j)]."""

    sites: int
    e0: float
    e1: float
    e2: float
    t: Mapping[Tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        if self.sites < 1:
            raise ValueError("need at least one site")
        canon = {}
        for (i, j), val in dict(self.t).items():
            if not (1 <= i <= self.sites and 1 <= j <= self.sites) or i == j:
                raise IndexError(f"hopping ({i},{j}) out of range")
            key = (i, j) if i < j else (j, i)
            if key in canon and canon[key] != val:
                raise ValueError(f"conflicting hoppings for {key}")
            if val:
                canon[key] = val
        object.__setattr__(self, "t", canon)

    @classmethod
    def from_physical(
        cls, sites: int, eps: float, mu: float, u: float, t=None
    ) -> "HubbardParams":
        e1 = eps - mu
        return cls(sites, 0.0, e1, 2 * e1 + u, t or {})


def hubbard_h(params: HubbardParams) -> XSum:
    """H0 + H1 on sites x (0,+,-,2): on-site energies plus the hopping
    sum t_ij (c+_{i s} c_{j s} + c+_{j s} c_{i s}) of a fermionic cluster,
    Jordan-Wigner ordered 1 up, 1 down, 2 up, ...: c+_i c_j = (c+ P)_i
    P_{i+1} ... P_{j-1} c_j for i < j, P the site parity (-1)^(n_up+n_dn)."""
    ops = hubbard_site_ops()
    onsite = XSum(4, {(1, 1): params.e0, (2, 2): params.e1,
                      (3, 3): params.e1, (4, 4): params.e2})
    parity = XSum(4, {(1, 1): 1, (2, 2): -1, (3, 3): -1, (4, 4): 1})
    cdag_p = {s: xsum_mul(ops[f"cdag_{s}"], parity) for s in ("up", "dn")}
    p_c = {s: op.dagger() for s, op in cdag_p.items()}  # P c = (c+ P)^dagger
    terms = [(1, ((i, onsite),)) for i in range(1, params.sites + 1)]
    for (i, j), tij in params.t.items():
        string = tuple((k, parity) for k in range(i + 1, j))
        for s in ("up", "dn"):
            terms += [(tij, ((i, cdag_p[s]), *string, (j, ops[f"c_{s}"]))),
                      (tij, ((j, ops[f"cdag_{s}"]), *string, (i, p_c[s])))]
    return _site_sum(params.sites, 4, terms)


@dataclass(frozen=True)
class JCConfig:
    gamma: float
    fock_cutoff: int

    def __post_init__(self):
        if self.fock_cutoff < 1:
            raise ValueError("fock_cutoff must be at least 1")
        if not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite, not {self.gamma}")

    @property
    def fock_dim(self) -> int:
        return self.fock_cutoff + 1

    @property
    def order(self) -> int:
        return 2 * self.fock_dim


def jc_lowering(cfg: JCConfig) -> XSum:
    """Truncated photon annihilation; Fock index f holds n = cutoff+1-f
    photons, so a is subdiagonal here."""
    nd = cfg.fock_dim
    return XSum(
        nd,
        (((f + 1, f), math.sqrt(nd - f)) for f in range(1, nd)),
    )


def jc_hamiltonian(cfg: JCConfig) -> XSum:
    """H_I = gamma (s+ a + s- a+) on (excited, ground) x Fock."""
    a = jc_lowering(cfg)
    sp = x_op(2, 1, 2)  # atomic raising; level 1 is the excited state
    return (
        kron(sp, a) + kron(sp.dagger(), a.dagger())
    ).scale(cfg.gamma)


def jc_evolution(cfg: JCConfig, t: float) -> XSum:
    """U(t) = exp(-i H_I t) in closed form.

    Each pair |excited, f> ~ |ground, f-1> rotates with Rabi factor
    N_f = sqrt(cutoff + 2 - f); the two unpaired corners (excited atom
    at the top Fock level, ground atom in vacuum) stay fixed, the first
    as a truncation artifact.
    """
    if not math.isfinite(t):
        raise DomainError(f"time t must be finite, not {t}")
    nd = cfg.fock_dim
    n = cfg.order
    check_order(n)
    terms: Dict[Tuple[int, int], complex] = {
        (1, 1): 1.0,
        (n, n): 1.0,
    }
    for f in range(2, nd + 1):
        i = f            # |excited, f>
        j = nd + f - 1   # |ground, f-1>
        th = cfg.gamma * t * math.sqrt(nd + 1 - f)
        if not math.isfinite(th):
            raise DomainError(f"Rabi angle gamma*t*N_{f} = {th} is not finite")
        cos_t, sin_t = math.cos(th), math.sin(th)
        terms[(i, i)] = cos_t
        terms[(j, j)] = cos_t
        terms[(i, j)] = -1j * sin_t
        terms[(j, i)] = -1j * sin_t
    return XSum(n, terms)


def two_cavity_evolution(cfg1: JCConfig, cfg2: JCConfig, t: float) -> XSum:
    """U1(t) (x) U2(t) for two independent atom-cavity pairs."""
    return kron(jc_evolution(cfg1, t), jc_evolution(cfg2, t))
