"""Command-line interface.

Every subcommand resolves its configuration, echoes it to stderr as one JSON
line, computes a row table, and writes CSV (default) or JSON to stdout or to
``--out PATH``.  File outputs are written to a temporary file and renamed
into place, and get a ``<out>.run.json`` sidecar with the resolved config
and library version.  Floats are printed with 12 significant digits; exact
rationals print in full, as integers or as 'p/q' strings.

Exit codes: 0 success, 2 usage or validation error, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import numbers
import os
import sys
import tempfile
import traceback

from . import __version__


def _lazy(name):
    """The submodule ``bellscope.<name>``, executed at its first attribute access.

    A command thus runs only the modules it uses, and numpy only if one of
    them needs it.  The module is in ``sys.modules`` from the start, because
    the benchmark's tracer (``benchmarks/tracing.py``) looks every module up
    there right after importing this one, to wrap its functions.
    """
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


chains, collective, correlations, mps, numerics, quantum, symmetric = map(
    _lazy, ("chains", "collective", "correlations", "mps", "numerics", "quantum", "symmetric"))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _jsonable(value):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if not isinstance(value, numbers.Rational):
        return float(value)
    return symmetric.number_to_json(value)


def _emit(args, header, rows, sidecar_extra=None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    if args.format == "csv":
        payload = "\n".join(lines) + "\n"
    else:
        payload = json.dumps(
            [dict(zip(header, map(_jsonable, row))) for row in rows], indent=2
        ) + "\n"
    if args.out is None:
        sys.stdout.write(payload)
        return
    _write_atomic(args.out, payload)
    sidecar = {
        "version": __version__,
        "command": args.command,
        "config": _config_dict(args),
    }
    if sidecar_extra:
        sidecar.update(sidecar_extra)
    _write_atomic(args.out + ".run.json", json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bellscope-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_dict(args):
    skip = {"func"}
    return {
        k: _jsonable(v) for k, v in sorted(vars(args).items()) if k not in skip
    }


def _echo_config(args):
    print("config: " + json.dumps(_config_dict(args), sort_keys=True), file=sys.stderr)


def _float_list(text):
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_list(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


# ---------------------------------------------------------------------------
# subcommand implementations


def _cmd_chsh(args):
    prob = correlations.chsh_probability_functional()
    corr = correlations.chsh_correlator_functional()
    rp = correlations.local_bound_bruteforce(prob)
    rc = correlations.local_bound_bruteforce(corr)
    qval, _angles = correlations.chsh_quantum_demo(grid_points=args.grid_points)
    rows = [
        ("probability_form_local_max", rp.max_value),
        ("correlator_form_local_max", rc.max_value),
        ("correlator_form_local_min", rc.min_value),
        ("quantum_max", qval),
    ]
    return ["quantity", "value"], rows, None


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cmd_bound(args):
    data = _load_json(args.expr)
    rows = []
    sidecar = {"expression": data}
    if "kind" not in data and "alpha" in data:
        expr = symmetric.expression_from_json(data)
        bound, witness = symmetric.classical_bound_symmetric(expr)
        rows.append(("enumerated_bound", bound))
        if expr.bound is not None:
            rows.append(("declared_bound", expr.bound))
            rows.append(("match", bound == expr.bound))
        rows.append(("witness_counts", f"{witness.a}|{witness.b}|{witness.c}|{witness.d}"))
    else:
        expr = correlations.expression_from_json(data)
        if isinstance(expr, correlations.TIExpression):
            rows.append(("beta_c", float(correlations.ti_classical_bound(expr))))
        else:
            rep = correlations.local_bound_bruteforce(expr)
            rows.append(("local_max", rep.max_value))
            rows.append(("local_min", rep.min_value))
    return ["quantity", "value"], rows, sidecar


def _rioja_row(x, y, sigma, mu, n, branch, check_parity, verify):
    expr = symmetric.rioja(x, y, sigma, mu, n, branch=branch, check_parity=check_parity)
    if verify:
        enum, _ = symmetric.classical_bound_symmetric(expr)
        tail = (expr.bound, enum, expr.bound == enum)
    else:
        tail = (expr.bound, "", "")
    return (n, x, y, sigma, mu, branch) + tail, expr


def _cmd_rioja(args):
    row, expr = _rioja_row(
        args.x, args.y, args.sigma, args.mu, args.n, args.branch,
        not args.skip_parity_check, args.verify,
    )
    header = ["n", "x", "y", "sigma", "mu", "branch", "bound_closed", "bound_enum", "match"]
    return header, [row], {"expression": symmetric.expression_to_json(expr)}


def _cmd_murcia(args):
    expr = symmetric.murcia(args.n)
    enum, _ = symmetric.classical_bound_symmetric(expr)
    header = ["n", "alpha", "beta", "gamma", "delta", "epsilon",
              "bound_closed", "bound_enum", "match"]
    row = (args.n, -2, 0, 1, -1, 1, expr.bound, enum, expr.bound == enum)
    return header, [row], {"expression": symmetric.expression_to_json(expr)}


def _cmd_dicke(args):
    expr = symmetric.dicke_expression(args.n)
    dv = collective.dicke_violation(args.n, grid_points=args.theta_points)
    header = ["n", "alpha", "beta", "gamma", "delta", "epsilon",
              "beta_c", "quantum_value", "violated", "theta_star"]
    row = (
        args.n,
        float(expr.alpha), float(expr.beta), float(expr.gamma),
        float(expr.delta), float(expr.epsilon),
        dv.bound, dv.quantum_value, dv.violated, dv.theta,
    )
    return header, [row], {"expression": symmetric.expression_to_json(expr)}


# family -> name of the symmetric function building its expression at n
_SCAN_FAMILIES = {
    "murcia": "murcia",
    "dicke": "dicke_expression",
}


def _cmd_scan(args):
    if args.n_step < 1:
        raise ValueError(f"--n-step must be at least 1, got {args.n_step}")
    ns = list(range(args.n_min, args.n_max + 1, args.n_step))
    if not ns:
        raise ValueError("empty n range")
    family = getattr(symmetric, _SCAN_FAMILIES[args.family])
    scan = functools.partial(collective.ratio_scan, family,
                             tol=args.tol, grid_points=args.theta_points)
    if args.jobs > 1:
        import concurrent.futures

        # contiguous chunks, none empty, so each worker's scan warm-starts
        # every n after its first from the one before
        k = min(args.jobs, len(ns))
        cuts = [len(ns) * i // k for i in range(k + 1)]
        chunks = [ns[a:b] for a, b in zip(cuts, cuts[1:])]
        with concurrent.futures.ProcessPoolExecutor(max_workers=k) as pool:
            results = sorted((r for rows in pool.map(scan, chunks) for r in rows),
                             key=lambda r: r.n)
    else:
        results = scan(ns)
    rows = [(r.n, r.beta_c, r.qv, r.ratio, r.theta_star) for r in results]
    header = ["n", "beta_c", "qv", "ratio", "theta_star"]
    counts = {"evals": sum(r.evals for r in results),
              "screened": sum(r.screened for r in results)}
    return header, rows, counts


def _cmd_theta_sweep(args):
    if args.points < 1:
        raise ValueError(f"--points must be at least 1, got {args.points}")
    import numpy as np

    expr = getattr(symmetric, _SCAN_FAMILIES[args.family])(args.n)
    thetas = np.linspace(args.theta_min, args.theta_max, args.points)
    rows = [
        (r.n, r.theta, r.value, r.beta_c, r.violated)
        for r in collective.theta_sweep(expr, thetas)
    ]
    header = ["n", "theta", "value", "beta_c", "violated"]
    return header, rows, {"expression": symmetric.expression_to_json(expr)}


def _cmd_lmg(args):
    energies, ground = collective.lmg_energies(args.n, args.coupling, args.field)
    rows = []
    for k, e in enumerate(energies):
        rows.append((k, args.n / 2.0 - k, float(e), k in ground))
    return ["k", "m", "energy", "is_ground"], rows, None


def _cmd_page(args):
    rng = numerics.RandomSource(args.seed)
    mean_s, se, purity = quantum.page_experiment(args.m, args.n, args.samples, rng)
    predicted = math.log(args.m) - args.m / (2.0 * args.n)
    predicted_purity = (args.m + args.n) / (args.m * args.n)
    header = ["m", "n", "samples", "mean_entropy_nats", "std_error",
              "mean_purity", "asymptotic_mean", "asymptotic_purity"]
    row = (args.m, args.n, args.samples, mean_s, se, purity, predicted, predicted_purity)
    return header, [row], None


def _cmd_ppt(args):
    state = quantum.state_from_json(_load_json(args.state))
    report = quantum.ppt_report(state, side=args.side)
    neg = quantum.negativity(state, side=args.side)
    header = ["negative_count", "min_eigenvalue", "entangled",
              "negativity", "log_negativity"]
    row = (
        report.negative_count, report.min_eigenvalue, report.entangled,
        neg, math.log2(2.0 * neg + 1.0),
    )
    return header, [row], None


def _mps_input_state(args):
    if args.state is not None:
        psi = quantum.state_from_json(_load_json(args.state))
        if not isinstance(psi, quantum.StateVector):
            raise ValueError("mps needs a pure state vector")
        return psi.amplitudes, args.local_dim
    n = args.random
    if n is None:
        raise ValueError("pass either --state FILE or --random N")
    import numpy as np

    rng = numerics.RandomSource(args.seed)
    amp = rng.complex_normal(args.local_dim**n)
    amp /= np.linalg.norm(amp)
    return amp, args.local_dim


def _cmd_mps(args):
    amp, d = _mps_input_state(args)
    spectra = mps.cut_spectra(amp, d)
    n_sites = len(spectra) + 1
    rows = []
    for dmax in args.dmax:
        truncated, err2 = mps.truncate(amp, dmax, d)
        bound = mps.truncation_bound(spectra, dmax)
        rows.append((n_sites, dmax, err2, bound, err2 <= bound + 1e-12,
                     max(truncated.bond_dimensions, default=1)))
    header = ["n_sites", "dmax", "err2", "bound", "within_bound", "max_bond"]
    return header, rows, None


def _cmd_area_law(args):
    import numpy as np

    ham = chains.transverse_ising_chain(args.sites, j=args.coupling, g=args.field,
                                        boundary=args.boundary)
    energy, psi = chains.ground_state_exact(ham)
    residual = float(np.linalg.norm(ham.apply(psi.amplitudes) - energy * psi.amplitudes))
    curve = chains.block_entropy_curve(psi)
    rows = [(r + 1, float(s)) for r, s in enumerate(curve)]
    return ["block", "entropy_bits"], rows, dict(ground_energy=energy, ground_residual=residual)


def _thermal_chain(args):
    if args.model == "heisenberg":
        return chains.heisenberg_chain(args.sites, j=args.coupling,
                                       boundary=args.boundary)
    if args.model == "ising":
        return chains.transverse_ising_chain(args.sites, j=args.coupling,
                                             g=args.field, boundary=args.boundary)
    rng = numerics.RandomSource(args.seed)
    return chains.random_chain(args.sites, 2, rng, boundary=args.boundary)


def _cmd_thermal_mi(args):
    ham = _thermal_chain(args)
    rows = []
    for beta in args.beta:
        rep = chains.thermal_mutual_info_check(ham, beta, args.cut)
        rows.append((beta, rep.mutual_info, rep.bound, rep.ok))
    return ["beta", "mutual_info", "bound", "ok"], rows, None


def _cmd_gibbs_mi(args):
    rng = numerics.RandomSource(args.seed)
    bonds = args.sites if args.boundary == "periodic" else args.sites - 1
    couplings = [rng.normal((args.local_dim, args.local_dim)) for _ in range(bonds)]
    rows = []
    for beta in args.beta:
        rep = chains.classical_gibbs_mutual_info(
            couplings, beta, args.cut, boundary=args.boundary
        )
        rows.append((beta, rep.mutual_info, rep.bound, rep.ok))
    return ["beta", "mutual_info", "bound", "ok"], rows, None


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bellscope",
        description="Bell inequality bounds, collective-spin violations, "
                    "and entanglement diagnostics.",
    )
    parser.add_argument("--version", action="version", version=f"bellscope {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = add("chsh", _cmd_chsh, "CHSH local bounds and quantum optimum")
    p.add_argument("--grid-points", type=int, default=24)

    p = add("bound", _cmd_bound, "classical bound of an expression from JSON")
    p.add_argument("--expr", required=True, help="expression JSON file")

    p = add("rioja", _cmd_rioja, "closed-form family bound, checked by enumeration")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--sigma", type=int, choices=(-1, 1), required=True)
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--branch", choices=("plus", "minus"), default="plus")
    p.add_argument("--verify", action="store_true",
                   help="also enumerate the exact bound and compare")
    p.add_argument("--skip-parity-check", action="store_true")

    p = add("murcia", _cmd_murcia, "the (-2,0,1,-1,1) expression with bound 2n")
    p.add_argument("--n", type=int, required=True)

    p = add("dicke", _cmd_dicke, "Dicke-tailored expression and its violation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-points", type=int, default=512)

    p = add("scan", _cmd_scan, "violation ratio scan over system sizes")
    p.add_argument("--family", choices=sorted(_SCAN_FAMILIES), required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.add_argument("--theta-points", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--jobs", type=int, default=1)

    p = add("theta-sweep", _cmd_theta_sweep, "Bell operator minimum along an angle grid")
    p.add_argument("--family", choices=sorted(_SCAN_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--points", type=int, default=64)

    p = add("lmg", _cmd_lmg, "collective XY spectrum in the symmetric sector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--field", type=float, default=0.0)

    p = add("page", _cmd_page, "Haar-average entanglement experiment")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)

    p = add("ppt", _cmd_ppt, "partial-transpose test of a state from JSON")
    p.add_argument("--state", required=True, help="state JSON file")
    p.add_argument("--side", choices=("A", "B"), default="B")

    p = add("mps", _cmd_mps, "MPS truncation errors against the tail bound")
    p.add_argument("--state", default=None, help="state JSON file")
    p.add_argument("--random", type=int, default=None, metavar="N",
                   help="use a Haar-random N-site state")
    p.add_argument("--local-dim", type=int, default=2)
    p.add_argument("--dmax", type=_int_list, default=[1, 2, 4])
    p.add_argument("--seed", type=int, default=0)

    p = add("area-law", _cmd_area_law, "block entropies of a gapped chain ground state")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--field", type=float, default=2.0)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")

    p = add("thermal-mi", _cmd_thermal_mi, "thermal mutual information vs bound")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--beta", type=_float_list, default=[0.1, 1.0, 5.0])
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--model", choices=("heisenberg", "ising", "random"),
                   default="heisenberg")
    p.add_argument("--coupling", type=float, default=1.0)
    p.add_argument("--field", type=float, default=1.0)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p.add_argument("--seed", type=int, default=0)

    p = add("gibbs-mi", _cmd_gibbs_mi, "classical Gibbs mutual information vs bound")
    p.add_argument("--sites", type=int, required=True)
    p.add_argument("--local-dim", type=int, default=2)
    p.add_argument("--beta", type=_float_list, default=[0.1, 1.0, 5.0])
    p.add_argument("--cut", type=int, required=True)
    p.add_argument("--boundary", choices=("open", "periodic"), default="open")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    _echo_config(args)
    try:
        header, rows, sidecar = args.func(args)
        _emit(args, header, rows, sidecar)
        return 0
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
