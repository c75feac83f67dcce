"""Independent oracles shared by the test modules.

Everything here is deliberately written the slow, obvious way (explicit
loops, Kronecker products, full enumerations) so that library results are
checked against code with no shared machinery.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
ID2 = np.eye(2)


def kron_chain(ops):
    out = np.array([[1.0 + 0.0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed(op, i, n, d=2):
    """op acting on site i of an n-site chain, identity elsewhere."""
    return kron_chain([op if k == i else np.eye(d) for k in range(n)])


def five_tuple_of_assignment(assignment):
    """Symmetrized one/two-body sums from explicit per-site (m0, m1) signs."""
    n = len(assignment)
    s0 = sum(m0 for m0, _ in assignment)
    s1 = sum(m1 for _, m1 in assignment)
    s00 = s01 = s11 = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            s00 += assignment[i][0] * assignment[j][0]
            s01 += assignment[i][0] * assignment[j][1]
            s11 += assignment[i][1] * assignment[j][1]
    return (s0, s1, s00, s01, s11)


def pi_value(coeffs, assignment):
    """alpha*S0 + beta*S1 + gamma/2*S00 + delta*S01 + epsilon/2*S11."""
    a, b, g, d, e = coeffs
    s0, s1, s00, s01, s11 = five_tuple_of_assignment(assignment)
    return a * s0 + b * s1 + g * s00 / 2 + d * s01 + e * s11 / 2


def pi_min_bruteforce(coeffs, n):
    """Exact minimum of a permutation-symmetric expression over 4^n strategies."""
    best = None
    for assignment in itertools.product([(1, 1), (1, -1), (-1, 1), (-1, -1)], repeat=n):
        v = pi_value(coeffs, assignment)
        if best is None or v < best:
            best = v
    return best


def correlators_of_counts(counts):
    """Symmetrized correlators of a deterministic strategy given its counts.

    With ``Sig0 = a+b-c-d``, ``Sig1 = a-b+c-d`` and the same-site product sum
    ``D = a-b-c+d``:

        S0 = Sig0, S1 = Sig1,
        S00 = Sig0^2 - n, S11 = Sig1^2 - n, S01 = Sig0*Sig1 - D.
    """
    from bellscope.symmetric import SymmetrizedCorrelators

    a, b, c, d = counts.a, counts.b, counts.c, counts.d
    n = counts.n
    sig0 = a + b - c - d
    sig1 = a - b + c - d
    same = a - b - c + d
    return SymmetrizedCorrelators(
        s0=sig0,
        s1=sig1,
        s00=sig0 * sig0 - n,
        s01=sig0 * sig1 - same,
        s11=sig1 * sig1 - n,
    )


def dicke_dense(n, k):
    """|n, k down spins> as an explicit symmetric sum in the 2^n space."""
    vec = np.zeros(2**n, dtype=complex)
    for positions in itertools.combinations(range(n), k):
        idx = 0
        for i in range(n):
            idx = 2 * idx + (1 if i in positions else 0)
        vec[idx] = 1.0
    return vec / np.linalg.norm(vec)


def dicke_embedding(n):
    """(2^n, n+1) isometry sending Dicke basis vectors into the full space."""
    cols = [dicke_dense(n, k) for k in range(n + 1)]
    return np.stack(cols, axis=1)


def partial_trace_loops(mat, da, db, keep):
    """Index-loop partial trace of a (da*db, da*db) matrix."""
    mat = np.asarray(mat).reshape(da, db, da, db)
    if keep == "A":
        out = np.zeros((da, da), dtype=complex)
        for i in range(da):
            for j in range(da):
                for m in range(db):
                    out[i, j] += mat[i, m, j, m]
    else:
        out = np.zeros((db, db), dtype=complex)
        for m in range(db):
            for p in range(db):
                for i in range(da):
                    out[m, p] += mat[i, m, i, p]
    return out


def shannon(probs, base=2.0):
    p = np.asarray(probs, dtype=float).reshape(-1)
    p = p[p > 0]
    return float(-(p * np.log(p)).sum() / math.log(base))


def entropy_of_matrix(rho, base=2.0):
    w = np.linalg.eigvalsh(rho)
    return shannon(np.clip(w, 0.0, None), base=base)


def ti_value_direct(n, alpha, beta, gammas, epsilons, omegas, assignment):
    """Ring expression value from explicit per-site signs, indices mod n."""
    total = 0.0
    for i in range(n):
        total += alpha * assignment[i][0] + beta * assignment[i][1]
    for k, g in enumerate(gammas, start=1):
        for i in range(n):
            total += g * assignment[i][0] * assignment[(i + k) % n][0]
    for k, e in enumerate(epsilons, start=1):
        for i in range(n):
            total += e * assignment[i][1] * assignment[(i + k) % n][1]
    for k, w in enumerate(omegas, start=1):
        for i in range(n):
            total += w * assignment[i][0] * assignment[(i + k) % n][1]
    return total


def ground_energy_power_iteration(h, iters=8000, seed=5):
    """Lowest eigenvalue by power iteration on (c - H), independent of eigh."""
    h = np.asarray(h, dtype=complex)
    shift = np.abs(h).sum(axis=1).max() + 1.0  # Gershgorin cap
    m = shift * np.eye(h.shape[0]) - h
    rng = np.random.default_rng(seed)
    v = rng.normal(size=h.shape[0]) + 1j * rng.normal(size=h.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = m @ v
        v /= np.linalg.norm(v)
    return float(shift - np.real(np.vdot(v, m @ v)))


def complex_normal(rng, size):
    """Standard complex Gaussians from a numpy Generator, real parts drawn first."""
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def haar_vector(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def pure_density(amplitudes, dims):
    from bellscope.quantum import DensityOperator

    v = np.asarray(amplitudes, dtype=complex)
    return DensityOperator(dims=dims, matrix=np.outer(v, v.conj()))


def random_rank_r_state(m, n, r, rng):
    """Pure (m, n) state with exact Schmidt rank r."""
    from bellscope.quantum import StateVector

    lam = rng.uniform(0.5, 1.0, size=r)
    lam = np.sqrt(lam / lam.sum())
    left = np.linalg.qr(rng.normal(size=(m, r)) + 1j * rng.normal(size=(m, r)))[0]
    right = np.linalg.qr(rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r)))[0]
    psi = np.einsum("k,ik,jk->ij", lam, left, right).reshape(-1)
    return StateVector(dims=(m, n), amplitudes=psi)


def full_space_bell(expr, theta):
    """Site-by-site Kronecker build of the 2^n Bell operator."""
    n = expr.n
    m0 = SZ
    m1 = math.cos(theta) * SZ + math.sin(theta) * SX
    a, b, g, d, e = (float(v) for v in expr.coefficients())
    out = np.zeros((2**n, 2**n), dtype=complex)
    for i in range(n):
        out += a * embed(m0, i, n) + b * embed(m1, i, n)
        for j in range(n):
            if i == j:
                continue
            out += g / 2 * embed(m0, i, n) @ embed(m0, j, n)
            out += d * embed(m0, i, n) @ embed(m1, j, n)
            out += e / 2 * embed(m1, i, n) @ embed(m1, j, n)
    return out


def pi_bound_grid(coeffs, n):
    """Exact classical bound and witness counts (a, b, c, d) over the full
    (p, q) grid of +1 counts on settings 0 and 1.

    For each (p, q) both extremes of the (+,+) count a are tried, since the
    value is linear in it.  Ties go to the first (p, q) in row-major order,
    then to the smaller a.  All arithmetic is in integers: the value is
    scaled by twice the common denominator of the coefficients.
    """
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    al, be, ga, de, ep = (int(Fraction(c) * 2 * den) for c in coeffs)
    best = witness = None
    for p in range(n + 1):
        for q in range(n + 1):
            for a in (max(0, p + q - n), min(p, q)):
                b, c, d = p - a, q - a, n - p - q + a
                sig0, sig1, same = a + b - c - d, a - b + c - d, a - b - c + d
                # Sig^2 - n is even, so the halvings are exact
                value = (al * sig0 + be * sig1 + ga * (sig0 * sig0 - n) // 2
                         + de * (sig0 * sig1 - same) + ep * (sig1 * sig1 - n) // 2)
                if best is None or value < best:
                    best, witness = value, (a, b, c, d)
    return Fraction(-best, 2 * den), witness


def pi_bound_candidate_scan(coeffs, n):
    """Exact classical bound and witness counts (a, b, c, d) from the per-p
    candidate scan that ``classical_bound_symmetric`` ran before it
    minimised along arithmetic progressions: for each p = 0..n, the q in
    {0, kink, n} and the floor and ceiling of each piece's vertex clipped to
    the piece, O(n) evaluations in all.  Ties go to the smallest (p, q).
    """
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    a, b, g, d, e = (int(Fraction(c) * den) for c in coeffs)
    a2, b2, d2 = 2 * a, 2 * b, 2 * d

    def same_plus(p, q):
        return min(p, q) if d2 > 0 else max(0, p + q - n)

    def value(p, q):
        s0, s1 = 2 * p - n, 2 * q - n
        same = 4 * same_plus(p, q) + n - 2 * p - 2 * q
        return (a2 * s0 + b2 * s1 + g * (s0 * s0 - n) + e * (s1 * s1 - n)
                + d2 * (s0 * s1 - same))

    def candidates(p):
        kink = p if d2 > 0 else n - p
        qs = {0, kink, n}
        if e > 0:
            sign = 1 if d2 > 0 else -1
            for lo, hi, tau in ((0, kink, sign), (kink, n, -sign)):
                num = 2 * e * n - b2 - d2 * (2 * p - n) + d2 * tau
                floor = num // (4 * e)
                qs.update(min(max(q, lo), hi) for q in (floor, floor + 1))
        return qs

    best, p, q = min((value(p, q), p, q) for p in range(n + 1) for q in candidates(p))
    pa = same_plus(p, q)
    return Fraction(-best, 2 * den), (pa, p - pa, q - pa, n - p - q + pa)


def page_oracle(m, n, samples, rng):
    """Haar-average entanglement, one complex Gaussian draw per sample.

    The per-sample loop ``quantum.page_experiment`` replaced with blocked
    draws; returns (mean entropy in nats, its standard error, mean purity).
    """
    ent = np.empty(samples)
    pur = np.empty(samples)
    for i in range(samples):
        amp = complex_normal(rng, m * n)
        amp /= np.linalg.norm(amp)
        s = np.linalg.svd(amp.reshape(m, n), compute_uv=False)
        p = s * s
        p = p[p > 0.0]
        p /= p.sum()
        ent[i] = float(-(p * np.log(p)).sum())
        pur[i] = float((p * p).sum())
    se = float(ent.std(ddof=1) / math.sqrt(samples)) if samples > 1 else 0.0
    return float(ent.mean()), se, float(pur.mean())


def bell_operator_bands_explicit(expr, theta):
    """Lower band storage (3, n+1) of the Bell operator, entry by entry.

    The formula ``collective.bell_operator_bands`` used before it cached
    the trigonometric decomposition: the diagonal and the two off-diagonals
    of alpha A + beta B + gamma/2 (A^2 - n) + delta ((AB + BA)/2 - n cos)
    + epsilon/2 (B^2 - n), with A = 2 Jz and B = 2 (cos Jz + sin Jx).
    """
    n = expr.n
    alpha, beta, gamma, delta, epsilon = (float(v) for v in expr.coefficients())
    c, s = math.cos(theta), math.sin(theta)
    k = np.arange(n + 1, dtype=float)
    a = n - 2.0 * k
    b = c * a
    f = s * np.sqrt(k[1:] * (n - k[1:] + 1.0))
    fsq = np.zeros(n + 1)
    fsq[:-1] += f * f
    fsq[1:] += f * f
    bands = np.zeros((3, n + 1))
    bands[0] = (alpha * a + beta * b + 0.5 * gamma * (a * a - n)
                + delta * (a * b - n * c) + 0.5 * epsilon * (b * b + fsq - n))
    bands[1, :n] = (beta * f + 0.5 * delta * f * (a[:-1] + a[1:])
                    + 0.5 * epsilon * f * (b[:-1] + b[1:]))
    bands[2, : n - 1] = 0.5 * epsilon * f[:-1] * f[1:]
    return bands


def dense_from_bands(bands):
    """The symmetric matrix of lower band storage ``bands``, entry by entry:
    ``bands[d, k]`` sits at (k + d, k) and (k, k + d)."""
    m = bands.shape[1]
    mat = np.zeros((m, m))
    for d in range(bands.shape[0]):
        for k in range(m - d):
            mat[k + d, k] = mat[k, k + d] = bands[d, k]
    return mat


def bell_operator_dense(expr, theta):
    """Dense Bell operator on the Dicke basis, from the explicit bands."""
    return dense_from_bands(bell_operator_bands_explicit(expr, theta))


def dicke_measurements(n, theta):
    """Dense A = 2 Jz and B = 2 (cos(theta) Jz + sin(theta) Jx) on the Dicke
    basis, from <k|Jz|k> = n/2 - k and <k-1|J+|k> = sqrt(k (n - k + 1))."""
    a, b = np.zeros((n + 1, n + 1)), np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        a[k, k] = n - 2 * k
        b[k, k] = math.cos(theta) * (n - 2 * k)
    for k in range(1, n + 1):
        b[k - 1, k] = b[k, k - 1] = math.sin(theta) * math.sqrt(k * (n - k + 1))
    return a, b


def pointwise_eigen_above(bands, level):
    """The Cholesky screen of ``numerics.eigen_above_stacked`` on one
    matrix alone, through scipy: one ``pbtrf`` of H - (level + rho) I on a
    copy, rho from the largest band entry.  For finite bands."""
    import scipy.linalg

    top = float(bands.max())
    if not (math.isfinite(top) and math.isfinite(level)):
        return False
    nb = bands.shape[0] - 1
    rho = ((nb + 2) * (2 * nb + 1) + 4) * float(np.finfo(float).eps) * (abs(top) + abs(level))
    ab = np.array(bands, dtype=float, order="F")
    ab[0] -= level + rho
    (pbtrf,) = scipy.linalg.get_lapack_funcs(("pbtrf",), dtype=np.float64)
    return pbtrf(ab, lower=1, overwrite_ab=1)[1] == 0


def grid_brent_minimize(f, lo, hi, tol=1e-8, grid_points=64):
    """The grid scan plus bounded Brent polish ``numerics.scalar_minimize``
    used before its slope polish: same grid, same first-argmin bracket."""
    import scipy.optimize

    xs = np.linspace(lo, hi, grid_points)
    fs = np.array([float(f(x)) for x in xs])
    i = int(np.argmin(fs))
    a, b = xs[max(i - 1, 0)], xs[min(i + 1, grid_points - 1)]
    best_x, best_f = float(xs[i]), float(fs[i])
    res = scipy.optimize.minimize_scalar(
        f, bounds=(a, b), method="bounded", options={"xatol": tol}
    )
    if float(res.fun) < best_f:
        best_x, best_f = float(res.x), float(res.fun)
    return best_x, best_f


# The two-sweep MPS truncation and plain-SVD cut spectra that
# ``bellscope.mps`` used before its single capped sweep and QR-first cuts,
# copied verbatim apart from the names.

def _plain_left_sweep(amp, d, dmax=None):
    from bellscope.mps import SVD_CUTOFF, _infer_sites

    n = _infer_sites(amp.size, d)
    work = amp.reshape(1, -1)
    left_dim = 1
    blocks = []
    svals = []
    for _ in range(n - 1):
        work = work.reshape(left_dim * d, -1)
        u, s, vh = np.linalg.svd(work, full_matrices=False)
        keep = int(np.count_nonzero(s > SVD_CUTOFF * s[0])) if s[0] > 0 else 1
        if dmax is not None:
            keep = min(keep, dmax)
        keep = max(1, keep)
        blocks.append(u[:, :keep])
        svals.append(s[:keep])
        work = s[:keep, None] * vh[:keep]
        left_dim = keep
    return blocks, svals, work


def _plain_project_tails(amp, d, dmax):
    blocks, _, out = _plain_left_sweep(amp, d, dmax)
    for u in reversed(blocks):
        out = u @ out.reshape(u.shape[1], -1)   # (D_k * d, rest)
        out = out.reshape(u.shape[0] // d, -1)  # (D_k, d * rest)
    return out.reshape(-1)


def _plain_mps_from_dense(psi, d=2, dmax=None):
    from bellscope.mps import MpsState, _as_amplitudes, _infer_sites

    amp, d = _as_amplitudes(psi, d)
    if dmax is not None:
        amp = _plain_project_tails(amp, d, int(dmax))
        amp = amp / np.linalg.norm(amp)
    n = _infer_sites(amp.size, d)

    # left sweep: psi = L^[0] ... L^[N-1] with isometric L and cut spectra s
    blocks, svals, rest = _plain_left_sweep(amp, d)
    ls = [u.reshape(u.shape[0] // d, d, u.shape[1]) for u in blocks]
    ls.append(rest.reshape(rest.shape[0], d, 1))

    # rescale into canonical tensors: A^[k] = diag(1/s^[k-1]) L^[k] diag(s^[k])
    tensors = []
    for k, t in enumerate(ls):
        a = t.astype(complex).copy()
        if k > 0:
            a /= svals[k - 1][:, None, None]
        if k < n - 1:
            a *= svals[k][None, None, :]
        tensors.append(a)
    lambdas = [s * s for s in svals]
    return MpsState(tensors=tensors, lambdas=lambdas)


def two_sweep_truncate(psi, dmax, d=2):
    """``mps.truncate`` as two full left sweeps: project, then re-factor."""
    from bellscope.mps import _as_amplitudes

    if dmax < 1:
        raise ValueError("dmax must be at least 1")
    amp, d = _as_amplitudes(psi, d)
    projected = _plain_project_tails(amp, d, int(dmax))
    err2 = float(np.linalg.norm(amp - projected) ** 2)
    norm = np.linalg.norm(projected)
    truncated = _plain_mps_from_dense(projected / norm, d=d)
    return truncated, err2


def projection_truncation_error(psi, truncated, d=2):
    """``|| psi - <phi|psi> phi ||^2`` for the dense input psi and the
    truncated, renormalised MPS phi: the error that ``mps.truncate``
    computed before it summed the weights its sweep discards."""
    from bellscope.mps import _as_amplitudes, mps_to_dense

    amp, _ = _as_amplitudes(psi, d)
    phi = mps_to_dense(truncated)
    return float(np.linalg.norm(amp - np.vdot(phi, amp) * phi) ** 2)


def plain_svd_cut_spectra(psi, d=2):
    """``mps.cut_spectra`` with one plain ``np.linalg.svd`` per cut."""
    from bellscope.mps import SVD_CUTOFF, _as_amplitudes, _infer_sites

    amp, d = _as_amplitudes(psi, d)
    n = _infer_sites(amp.size, d)
    out = []
    for k in range(1, n):
        s = np.linalg.svd(amp.reshape(d**k, d ** (n - k)), compute_uv=False)
        keep = s > SVD_CUTOFF * s[0] if s.size and s[0] > 0 else slice(0)
        out.append((s[keep] ** 2).astype(float))
    return out


# The sparse kron assembly and ``eigsh`` solve that ``bellscope.chains``
# used before its matrix-free ``apply`` and Lanczos solver.

def chain_kron_sparse(ham):
    """The chain Hamiltonian as a sum of sparse kron-embedded terms."""
    import scipy.sparse

    n, d = ham.n_sites, ham.local_dim
    dim = d**n
    h = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for i, term in enumerate(ham.bond_terms):
        if i + 1 < n:
            left = scipy.sparse.identity(d**i, format="csr")
            right = scipy.sparse.identity(d ** (n - i - 2), format="csr")
            h = h + scipy.sparse.kron(
                scipy.sparse.kron(left, scipy.sparse.csr_matrix(term)), right)
        else:
            h = h + _kron_wrap_term(term, n, d)
    for i, f in enumerate(ham.site_fields or ()):
        left = scipy.sparse.identity(d**i, format="csr")
        right = scipy.sparse.identity(d ** (n - i - 1), format="csr")
        h = h + scipy.sparse.kron(scipy.sparse.kron(left, scipy.sparse.csr_matrix(f)), right)
    return h.tocsr()


def _kron_wrap_term(term, n, d):
    """kron-embed a (site N-1, site 0) term without reordering sites:
    sum t[a'b'ab] |b'><b| (site 0) x I x |a'><a| (site N-1)."""
    import scipy.sparse

    t4 = np.asarray(term).reshape(d, d, d, d)  # (a' b' | a b) on (N-1, 0)
    mid = scipy.sparse.identity(d ** (n - 2), format="coo")
    out = scipy.sparse.csr_matrix((d**n, d**n), dtype=complex)
    for ap, bp, a, b in itertools.product(range(d), repeat=4):
        if t4[ap, bp, a, b] == 0:
            continue
        first = scipy.sparse.coo_matrix(([1.0], ([bp], [b])), shape=(d, d))
        last = scipy.sparse.coo_matrix(([1.0], ([ap], [a])), shape=(d, d))
        out = out + t4[ap, bp, a, b] * scipy.sparse.kron(scipy.sparse.kron(first, mid), last)
    return out


def eigsh_ground_state(ham):
    """Lowest eigenpair of ``chain_kron_sparse(ham)`` by ARPACK ``eigsh``."""
    import scipy.sparse.linalg

    from bellscope.numerics import _start_vector

    h = chain_kron_sparse(ham)
    w, v = scipy.sparse.linalg.eigsh(h, k=1, which="SA", v0=_start_vector(h.shape[0]))
    return float(w[0]), v[:, 0] / np.linalg.norm(v[:, 0])


# Context loops, sign profiles, subset sums and Kronecker products: the
# behaviour tables, correlators and PI functionals of two-outcome scenarios,
# written out one context at a time.  Tables are settings first, shape
# (m,)*n + (d,)*n; outcome 0 has sign +1.

OUTCOME_SIGNS = np.array([1.0, -1.0])


def pair_correlator(rho_matrix, ta, tb):
    """<A(ta) x A(tb)> for A(t) = cos(t) Z + sin(t) X, by one np.kron."""
    def observable(t):
        return math.cos(t) * SZ + math.sin(t) * SX

    return float(np.trace(rho_matrix @ np.kron(observable(ta), observable(tb))).real)


def strategy_table_loops(responses, m, d):
    """Behavior table of a deterministic strategy, one context at a time."""
    n = len(responses)
    t = np.zeros((m,) * n + (d,) * n)
    for x in itertools.product(range(m), repeat=n):
        t[x + tuple(responses[i][x[i]] for i in range(n))] = 1.0
    return t


def settings_first(t, m, d):
    """``(m*d,)*n`` party-paired axes back to ``(m,)*n + (d,)*n``."""
    n = t.ndim
    return t.reshape((m, d) * n).transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)])


@dataclass(frozen=True)
class DeterministicStrategy:
    """Local deterministic strategy: ``responses[i][x]`` is party i's outcome."""

    responses: tuple


def strategy_behavior(strategy, scenario):
    """Behavior of a deterministic strategy, by one-hot rows party by party."""
    from bellscope.correlations import Behavior, _map_parties, _one_hot

    m, d = scenario.settings, scenario.outcomes
    rows = _one_hot(strategy.responses, d)
    t = _map_parties(np.ones((1,) * len(rows)), rows[:, :, None])
    return Behavior(scenario, settings_first(t, m, d))


def strategy_value(functional, strategy):
    """Exact value on a deterministic strategy (no table built)."""
    from bellscope.correlations import _map_parties, _one_hot, _pair_axes

    rows = _one_hot(strategy.responses, functional.scenario.outcomes)
    total = _map_parties(_pair_axes(functional.coefficients), rows[:, None, :])
    return float(total.item() + functional.offset)


def strategy_value_loops(coefficients, offset, responses):
    """offset + sum over contexts x of c(x, responses(x)), in context order."""
    n = len(responses)
    total = offset
    for x in itertools.product(range(coefficients.shape[0]), repeat=n):
        total += coefficients[x + tuple(responses[i][x[i]] for i in range(n))]
    return float(total)


def strategy_values_contraction(coefficients, m, d):
    """Values of every deterministic strategy, flat in lexicographic
    per-party order, by matrix products on moved axes."""
    n = coefficients.ndim // 2
    per_party = list(itertools.product(range(d), repeat=m))
    select = np.zeros((len(per_party), m * d))
    for k, responses in enumerate(per_party):
        for x, a in enumerate(responses):
            select[k, x * d + a] = 1.0
    # axes of t: r remaining x's first, their a's next, finished K's last
    t = coefficients
    for r in range(n, 0, -1):
        t = np.moveaxis(t, (0, r), (-2, -1))
        t = t.reshape(t.shape[:-2] + (m * d,)) @ select.T
    return t.reshape(-1)


def local_bound_contraction(functional):
    """(max, min) of the functional over every deterministic strategy."""
    sc = functional.scenario
    values = strategy_values_contraction(functional.coefficients, sc.settings, sc.outcomes)
    return float(values.max() + functional.offset), float(values.min() + functional.offset)


def sign_profile(present, d=2):
    """Outer product of per-party sign vectors (ones where absent)."""
    out = np.array(1.0)
    for p in present:
        out = np.multiply.outer(out, OUTCOME_SIGNS if p else np.ones(d))
    return out


def correlators_loops(table, m):
    """Every correlator of a d = 2 table; absent parties read setting 0."""
    n = table.ndim // 2
    vals = np.empty((m + 1,) * n)
    for c in itertools.product(range(m + 1), repeat=n):
        x = tuple(ci - 1 if ci > 0 else 0 for ci in c)
        vals[c] = float((table[x] * sign_profile([ci > 0 for ci in c])).sum())
    return vals


def behavior_from_correlators_loops(values, m):
    """p(a|x) = 2^-n sum_S prod_{i in S} sign(a_i) <S at settings x>."""
    n = values.ndim
    table = np.empty((m,) * n + (2,) * n)
    subsets = list(itertools.product((False, True), repeat=n))
    for x in itertools.product(range(m), repeat=n):
        block = np.zeros((2,) * n)
        for s in subsets:
            c = tuple(x[i] + 1 if s[i] else 0 for i in range(n))
            block += values[c] * sign_profile(s)
        table[x] = block / 2**n
    return table


def quantum_table_kron(rho_matrix, measurements):
    """Born-rule table Tr(rho E_1 x ... x E_n), one np.kron chain per entry."""
    n, m, d = len(measurements), len(measurements[0]), len(measurements[0][0])
    table = np.empty((m,) * n + (d,) * n)
    for x in itertools.product(range(m), repeat=n):
        for a in itertools.product(range(d), repeat=n):
            op = kron_chain([measurements[i][x[i]][a[i]] for i in range(n)])
            table[x + a] = float(np.trace(rho_matrix @ op).real)
    return table


def pi_functional_loops(expr):
    """A PI expression as a dense two-setting Bell functional, with one-body
    terms charged to the all-same-setting context and each ordered pair
    (i, j) to the context where everyone else measures setting 0."""
    from bellscope.correlations import BellFunctional, Scenario

    n = expr.n
    coeffs = np.zeros((2,) * (2 * n))
    alpha, beta, gamma, delta, epsilon = (float(v) for v in expr.coefficients())

    def signs(*parties):
        shape = [1] * n
        out = np.ones((1,) * n)
        for i in parties:
            shape[i] = 2
            out = out * OUTCOME_SIGNS.reshape(shape)
            shape[i] = 1
        return out

    for i in range(n):
        coeffs[(0,) * n] += alpha * signs(i)
        coeffs[(1,) * n] += beta * signs(i)
        for j in range(n):
            if i != j:
                for weight, si, sj in ((gamma / 2.0, 0, 0), (delta, 0, 1),
                                       (epsilon / 2.0, 1, 1)):
                    x = [0] * n
                    x[i], x[j] = si, sj
                    coeffs[tuple(x)] += weight * signs(i, j)
    return BellFunctional(Scenario(n, 2, 2), coeffs, name=expr.name or "pi-expression")
