"""End-to-end acceptance suite.

One test per shipped guarantee, each printing a single PASS/FAIL line with
the measured numbers, then asserting.  Stated tolerances appear literally in
the assertions; nothing is loosened to make a check go green.  Where a
guarantee does not hold, the test fails and its message carries the measured
counterexample.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from bellscope.chains import classical_gibbs_mutual_info, random_chain, thermal_mutual_info_check
from bellscope.cli import main as cli_main
from bellscope.collective import dicke_violation, lmg_energies, max_violation
from bellscope.correlations import (
    chsh_correlator_functional,
    chsh_probability_functional,
    chsh_quantum_demo,
    local_bound_bruteforce,
)
from bellscope.mps import (
    canonical_residuals,
    cut_spectra,
    mps_from_dense,
    mps_to_dense,
    renyi_tail_bound,
    truncate,
    truncation_bound,
)
from bellscope.numerics import seeded_generator
from bellscope.quantum import DensityOperator, page_experiment, ppt_report
from bellscope.symmetric import (
    PIBellExpression,
    classical_bound_symmetric,
    dicke_expression,
    murcia,
    rioja,
    rioja_parity_ok,
)

from helpers import (
    SX,
    SY,
    SZ,
    embed,
    full_space_bell,
    haar_vector,
    pi_functional_loops,
    pure_density,
    random_rank_r_state,
)


def report(num, name, ok, elapsed, limit, detail):
    line = (
        f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
        f"({elapsed:.1f}s / limit {limit:.0f}s) {detail}"
    )
    print(line)
    assert elapsed < limit, line
    assert ok, line


def test_criterion_01_chsh_classical_bounds():
    start = time.perf_counter()
    prob = local_bound_bruteforce(chsh_probability_functional()).max_value
    corr = local_bound_bruteforce(chsh_correlator_functional()).max_value
    ok = prob == 3.0 and corr == 2.0
    report(1, "chsh classical bounds", ok, time.perf_counter() - start, 1.0,
           f"probability form max = {prob}, correlator form max = {corr}")


def test_criterion_02_chsh_quantum_demo():
    start = time.perf_counter()
    value, _angles = chsh_quantum_demo()
    target = 2.0 * math.sqrt(2.0)
    ok = value >= 2.828 and abs(value - target) <= 1e-4
    report(2, "chsh quantum optimum", ok, time.perf_counter() - start, 5.0,
           f"reached {value:.9f}, |target - value| = {abs(value - target):.2e}")


def test_criterion_03_closed_form_bound_identity():
    start = time.perf_counter()
    total = 0
    mismatches = []
    for x in (1, 2, 3):
        for y in (1, 2, 3):
            for sigma in (1, -1):
                for mu in range(-3, 4):
                    for branch in ("plus", "minus"):
                        for n in range(2, 21):
                            if not rioja_parity_ok(x, y, mu, n):
                                continue
                            total += 1
                            expr = rioja(x, y, sigma, mu, n, branch=branch)
                            enum, _ = classical_bound_symmetric(expr)
                            if expr.bound != enum:
                                mismatches.append(
                                    (x, y, sigma, mu, branch, n,
                                     expr.bound - enum)
                                )
    points = sorted({(m[0], m[1], m[3]) for m in mismatches})
    gaps = sorted({m[6] for m in mismatches})
    detail = (
        f"{len(mismatches)} mismatching combinations of {total}; "
        f"mismatching (x, y, mu) points: {points}; closed minus enumerated "
        f"gaps: {[str(g) for g in gaps]} (the (3,3,0) coefficients are 9x "
        f"the (1,1,0) ones, whose exact bound 2n scales to 18n, below the "
        f"closed form 18n + 4)"
    )
    report(3, "closed-form bound identity", not mismatches,
           time.perf_counter() - start, 120.0, detail)


def test_criterion_04_count_enumeration_oracle():
    start = time.perf_counter()
    rng = seeded_generator(4)
    checked = 0
    worst = None
    for trial in range(20):
        coeffs = [int(v) for v in rng.integers(-5, 6, size=5)]
        for n in range(2, 9):
            expr = PIBellExpression(
                n=n, alpha=coeffs[0], beta=coeffs[1], gamma=coeffs[2],
                delta=coeffs[3], epsilon=coeffs[4],
            )
            fast, _ = classical_bound_symmetric(expr)
            full = local_bound_bruteforce(pi_functional_loops(expr))
            if Fraction(fast) != -Fraction(full.min_value):
                worst = (coeffs, n, fast, full.min_value)
            checked += 1
    report(4, "count enumeration vs 4^n", worst is None,
           time.perf_counter() - start, 120.0,
           f"{checked} expression/size pairs agree exactly"
           if worst is None else f"first disagreement: {worst}")


def test_criterion_05_murcia_family():
    start = time.perf_counter()
    bad_bounds = [
        n for n in range(2, 101)
        if classical_bound_symmetric(murcia(n))[0] != 2 * n
    ]

    # genuine violation means exceeding the solver's 1e-9 significance floor
    violations = {}
    for n in range(3, 101):
        violations[n] = max_violation(murcia(n)).violation
    no_violation = [n for n, v in violations.items() if v <= 1e-9]
    ratio_positive = [n for n, v in violations.items() if v / (2 * n) > 0]

    cross_errs = []
    for n in range(2, 7):
        mv = max_violation(murcia(n))
        full_min = float(np.linalg.eigvalsh(full_space_bell(murcia(n), mv.theta))[0])
        cross_errs.append(abs(mv.quantum_value - full_min))
    ok = (not bad_bounds) and (not no_violation) and max(cross_errs) <= 1e-9
    detail = (
        f"bound 2n holds for n in 2..100 ({'yes' if not bad_bounds else bad_bounds}); "
        f"sizes without genuine violation: {no_violation} "
        f"(measured Q_v there: "
        f"{ {n: f'{violations[n]:.2e}' for n in no_violation} }, "
        f"lambda_min = -2n exactly at n <= 4 under this measurement family); "
        f"ratio > 0 for {len(ratio_positive)}/98 sizes; "
        f"full-space cross-check max |diff| = {max(cross_errs):.2e}"
    )
    report(5, "murcia bound and violations", ok,
           time.perf_counter() - start, 300.0, detail)


def test_criterion_06_dicke_class():
    start = time.perf_counter()
    bad_bounds = []
    for n in range(2, 21):
        expr = dicke_expression(n)
        enum, _ = classical_bound_symmetric(expr)
        if expr.bound != enum:
            bad_bounds.append(n)

    not_violated = []
    ratios = {}
    for n in range(4, 41, 2):
        dv = dicke_violation(n)
        if not dv.violated:
            not_violated.append(n)
        ratios[n] = (-dv.quantum_value - dv.bound) / dv.bound

    trend = [ratios[n] for n in range(10, 41, 2)]
    increases = [
        (n, trend[i], trend[i + 1])
        for i, n in enumerate(range(10, 39, 2))
        if trend[i + 1] > trend[i] + 1e-9
    ]
    ok = not bad_bounds and not not_violated and not increases
    detail = (
        f"closed bound matches enumeration for n in 2..20 "
        f"({'yes' if not bad_bounds else bad_bounds}); violation exists for "
        f"even n in 4..40 ({'yes' if not not_violated else not_violated}); "
        f"relative violation falls from {trend[0]:.3e} to {trend[-1]:.3e} "
        f"monotonically ({'yes' if not increases else increases})"
    )
    report(6, "dicke expressions", ok, time.perf_counter() - start, 300.0, detail)


def test_criterion_07_lmg():
    start = time.perf_counter()
    worst = 0.0
    for n in range(2, 7):
        for lam in (0.5, 1.0):
            for h in (0.0, 0.5, 1.0):
                hx = sum(
                    embed(SX, i, n) @ embed(SX, j, n)
                    + embed(SY, i, n) @ embed(SY, j, n)
                    for i in range(n) for j in range(i + 1, n)
                )
                hz = sum(embed(SZ, i, n) for i in range(n))
                full = np.linalg.eigvalsh(-(lam / n) * hx - h * hz)
                sector, _ = lmg_energies(n, lam, h)
                worst = max(
                    worst,
                    max(float(np.min(np.abs(full - e))) for e in sector),
                )
    ground_ok = True
    for n in range(2, 13):
        _, ground = lmg_energies(n, 1.0, 0.0)
        want = (n // 2,) if n % 2 == 0 else (n // 2, n // 2 + 1)
        ground_ok = ground_ok and ground == want
    ok = worst <= 1e-9 and ground_ok
    report(7, "lmg spectrum", ok, time.perf_counter() - start, 60.0,
           f"max sector-vs-full deviation = {worst:.2e}; "
           f"half-filled ground indices correct: {ground_ok}")


def test_criterion_08_random_state_entropy():
    start = time.perf_counter()
    m, n, samples = 2, 16, 10**4
    rng = seeded_generator(20260815)
    mean, se, purity = page_experiment(m, n, samples, rng)
    target = math.log(m) - m / (2.0 * n)
    exact_mean = sum(1.0 / k for k in range(n + 1, m * n + 1)) - (m - 1) / (2.0 * n)
    purity_target = (m + n) / (m * n)
    mean_ok = abs(mean - target) <= 3.0 * se
    purity_ok = abs(purity - purity_target) <= 0.05 * purity_target
    detail = (
        f"sample mean {mean:.6f} vs asymptotic target {target:.6f}: "
        f"{abs(mean - target) / se:.1f} standard errors (se = {se:.2e}); "
        f"the exact finite-size ensemble mean is {exact_mean:.6f}, "
        f"{abs(mean - exact_mean) / se:.1f} se away, so the sampler is sound "
        f"and the asymptotic formula's O(1/mn) corrections exceed 3 se at "
        f"10^4 samples; mean purity {purity:.6f} vs {purity_target} "
        f"({'within' if purity_ok else 'outside'} 5%)"
    )
    report(8, "random-state entropy", mean_ok and purity_ok,
           time.perf_counter() - start, 120.0, detail)


def test_criterion_09_ppt_structure():
    start = time.perf_counter()
    rng = seeded_generator(9)
    count_ok = True
    for r in (2, 3, 4):
        for trial in range(10):
            psi = random_rank_r_state(4, 4, r, rng)
            rep = ppt_report(pure_density(psi.amplitudes, (4, 4)))
            if rep.negative_count != r * (r - 1) // 2:
                count_ok = False

    false_positives = 0
    for trial in range(50):
        da, db = (2, 2) if trial % 2 else (3, 3)
        k = int(rng.integers(2, 6))
        weights = rng.dirichlet(np.ones(k))
        rho = np.zeros((da * db, da * db), dtype=complex)
        for w in weights:
            ga = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
            gb = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
            ra = ga @ ga.conj().T
            rb = gb @ gb.conj().T
            rho += w * np.kron(ra / np.trace(ra), rb / np.trace(rb))
        rep = ppt_report(DensityOperator((da, db), rho), tol=1e-10)
        if rep.entangled:
            false_positives += 1
    ok = count_ok and false_positives == 0
    report(9, "ppt structure", ok, time.perf_counter() - start, 60.0,
           f"rank-r negative counts all equal r(r-1)/2: {count_ok}; "
           f"separable mixtures flagged entangled: {false_positives}/50")


def test_criterion_10_mps():
    start = time.perf_counter()
    rng = seeded_generator(10)
    worst_fidelity = 1.0
    worst_residual = 0.0
    for n in range(2, 9):
        amp = haar_vector(2**n, rng)
        mps = mps_from_dense(amp, dmax=2 ** (n // 2))
        worst_fidelity = min(worst_fidelity, abs(np.vdot(amp, mps_to_dense(mps))))
        worst_residual = max(worst_residual, float(np.max(canonical_residuals(mps))))

    bound_failures = 0
    for trial in range(100):
        amp = haar_vector(2**8, rng)
        spectra = cut_spectra(amp)
        for dmax in (1, 2, 4):
            truncated, err2 = truncate(amp, dmax)
            if err2 > truncation_bound(spectra, dmax) + 1e-12:
                bound_failures += 1
        if trial % 10 == 0:
            worst_residual = max(
                worst_residual, float(np.max(canonical_residuals(truncated)))
            )

    tail_failures = 0
    for trial in range(100):
        lam = np.sort(rng.dirichlet(np.ones(16)))[::-1]
        for alpha in (0.3, 0.5, 0.7):
            for dmax in (1, 2, 4, 8):
                eps = float(lam[dmax:].sum())
                if eps > 0 and math.log2(eps) > renyi_tail_bound(lam, alpha, dmax) + 1e-12:
                    tail_failures += 1
    ok = (
        worst_fidelity >= 1 - 1e-10
        and worst_residual <= 1e-10
        and bound_failures == 0
        and tail_failures == 0
    )
    report(10, "mps round trip and bounds", ok, time.perf_counter() - start, 120.0,
           f"min fidelity {worst_fidelity:.12f}; max canonical residual "
           f"{worst_residual:.2e}; tail-bound violations {bound_failures}/300; "
           f"entropy-bound violations {tail_failures}/1200")


def test_criterion_11_mutual_information_bounds():
    start = time.perf_counter()
    rng = seeded_generator(11)
    thermal_failures = 0
    for trial in range(50):
        n = int(rng.integers(4, 9))
        ham = random_chain(n, 2, rng, field_scale=0.5)
        cut = int(rng.integers(1, n))
        for beta in (0.1, 1.0, 5.0):
            rep = thermal_mutual_info_check(ham, beta, cut)
            if rep.mutual_info > rep.bound + 1e-9:
                thermal_failures += 1

    classical_failures = 0
    for trial in range(100):
        d = int(rng.integers(2, 5))
        n = int(rng.integers(3, 9))
        if d**n > 10**6:
            n = 6
        boundary = "periodic" if trial % 3 == 0 else "open"
        bonds = n if boundary == "periodic" else n - 1
        couplings = [rng.standard_normal((d, d)) for _ in range(bonds)]
        cut = int(rng.integers(1, n))
        beta = float(rng.uniform(0.0, 3.0))
        rep = classical_gibbs_mutual_info(couplings, beta, cut, boundary=boundary)
        if rep.mutual_info > rep.bound + 1e-9:
            classical_failures += 1
    ok = thermal_failures == 0 and classical_failures == 0
    report(11, "mutual information bounds", ok,
           time.perf_counter() - start, 180.0,
           f"thermal bound violations {thermal_failures}/150; "
           f"classical bound violations {classical_failures}/100")


def test_criterion_12_cli_reproducibility(tmp_path, capsys):
    start = time.perf_counter()
    inprocess = [
        ["scan", "--family", "dicke", "--n-max", "8", "--theta-points", "64"],
        ["gibbs-mi", "--sites", "6", "--cut", "3", "--seed", "3"],
        ["mps", "--random", "5", "--seed", "2"],
        ["page", "--m", "2", "--n", "8", "--samples", "200", "--seed", "7"],
    ]
    mismatched = []
    for k, args in enumerate(inprocess):
        f1 = str(tmp_path / f"run{k}a.csv")
        f2 = str(tmp_path / f"run{k}b.csv")
        assert cli_main(args + ["--out", f1]) == 0
        assert cli_main(args + ["--out", f2]) == 0
        if open(f1, "rb").read() != open(f2, "rb").read():
            mismatched.append(args[0])
    capsys.readouterr()

    cmd = [sys.executable, "-m", "bellscope.cli", "page", "--m", "2", "--n", "16",
           "--samples", "100", "--seed", "42"]
    outs = [
        subprocess.run(cmd, capture_output=True, text=True, timeout=120).stdout
        for _ in range(2)
    ]
    if outs[0] != outs[1]:
        mismatched.append("page (subprocess)")
    report(12, "cli reproducibility", not mismatched,
           time.perf_counter() - start, 60.0,
           f"commands with non-identical reruns: {mismatched or 'none'}")
