"""Command-line entry point: verification suites and simulations.

Every subcommand emits machine-readable output (JSON with a schema
version, or CSV for sampled data).  Exit codes: 0 all residuals within
tolerance, 1 numeric failure (report still emitted), 2 usage error.

Each suite, `run` branch and option type imports the modules it uses, so
a subcommand loads only what it runs (`cohomology`, `orbit classify` and
`trajectory` load no numpy).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import cohomology as coh
from .model import (ClassicalState, ModelParams, classical_trajectory,
                    classify, proper_time)

__all__ = ["main", "run", "run_all_checks"]

SCHEMA = 1

#: pass thresholds of the representation residuals reported by rep_suite
REP_GATES = {"homomorphism": 1e-8, "unitarity": 1e-8,
             "commutators": 1e-9, "casimir": 1e-9}

#: pass threshold of the generator gaps (irreps.generator_gaps), relative
#: coefficient gaps that read round-off
GENERATOR_GATE = 1e-12

#: labels of the representation each family is checked at, and the
#: defaults of the matching `rep` options
REP_LABELS = {"A": {"c2": 1.0, "z3": -1.0},
              "B": {"zeta2": 0.7},
              "C": {"zeta0": 1.0, "zeta1": 0.3}}


def _emit_json(payload: dict, stream) -> None:
    payload = {"schema": SCHEMA, **payload}
    json.dump(payload, stream, sort_keys=True, indent=2)
    stream.write("\n")


def _params(args) -> ModelParams:
    return ModelParams(B=args.B, hbar=args.hbar)


# ---------------------------------------------------------------------------
# individual suites (also used by all-checks)


def suite_cohomology(params: ModelParams, seed: int) -> dict:
    dims = {}
    for name in coh.CATALOG_NAMES:
        sc = coh.catalog_algebra(name, B=params.B)
        got = coh.cohomology_dims(coh.EXPECTED_DIMS[name], sc)
        dims[name] = {str(k): dim for k, dim in got.items()}
    ok = all(dims[n][str(k)] == v
             for n, exp in coh.EXPECTED_DIMS.items() for k, v in exp.items())
    return {"dims": dims, "pass": ok}


def suite_structure(params: ModelParams, seed: int) -> dict:
    from .group import structural_report
    rep = structural_report(params)
    ok = bool(rep["central_series_dims"][-1] == 3
              and rep["derived_series_dims"][-1] == 0
              and rep["ad_spectrum"] <= 1e-10)
    return {**rep, "pass": ok}


def suite_coadjoint(params: ModelParams, seed: int) -> dict:
    import numpy as np
    from .group import CoadjointPoint, GroupElement, casimir_pairing, coadjoint_action
    # the draws of 1000 (zeta, g) pairs one pair at a time: zeta from
    # [-3, 3)^4, then g from [-2, 2)^4
    u = np.random.default_rng(seed).random((1000, 2, 4))
    zeta = CoadjointPoint(-3.0 + 6.0 * u[:, 0])
    g = GroupElement(*(-2.0 + 4.0 * u[:, 1]).T)
    moved = coadjoint_action(g, zeta, params)
    with np.errstate(over="ignore", invalid="ignore"):
        c0, c1 = casimir_pairing(zeta, params), casimir_pairing(moved, params)
        worst_cas = float(np.max(np.abs(c1 - c0) / np.maximum(np.abs(c0), 1.0)))
    if not math.isfinite(worst_cas):  # moved components of order B, squared
        raise ValueError("the coadjoint Casimir residual leaves the float range")
    worst_u3 = float(np.max(np.abs(moved.u[3] - zeta.u[3])))
    return {"casimir_residual": worst_cas, "u3_residual": worst_u3,
            "pass": worst_cas <= 1e-12 and worst_u3 <= 1e-12}


def suite_orbits(params: ModelParams, seed: int) -> dict:
    from . import orbits as orb
    from .group import CoadjointPoint
    cases = [("CaseA", (0.0, 0.0, 0.5, -1.0), orb.CASE_A_SUBALGEBRA),
             ("CaseB", (0.0, 0.0, 0.7, 0.0), orb.CASE_B_SUBALGEBRA),
             ("CaseC", (1.0, 0.3, 0.0, 0.0), orb.CASE_C_SUBALGEBRA)]
    report = {}
    ok = True
    for tag, u, subalgebra in cases:
        zeta, h = CoadjointPoint(u), subalgebra(params)
        sub = orb.subordination_check(h, zeta, params)
        try:
            puk = orb.pukanszky_check(h, zeta, params)
            report[tag] = {"subordinate": sub, "pukanszky": puk,
                           "orbit_dim": orb.classify(zeta, params).orbit_dim}
            ok = bool(ok and sub and puk)
        except (orb.MaximalityError, ValueError) as exc:
            report[tag] = {"subordinate": sub, "error": str(exc)}
            ok = False
    return {"cases": report, "pass": ok}


def _rep_for_family(family: str, params: ModelParams, args=None):
    from . import irreps as ir
    labels = REP_LABELS[family]
    if args is not None:
        labels = {name: getattr(args, name) for name in labels}
    return ir.RepParams(family, params, **labels)


def _rep_pass(res: dict) -> bool:
    """Every field of a rep_suite report within its gate."""
    return all(res[k] <= tol for k, tol in REP_GATES.items())


def suite_reps(params: ModelParams, seed: int) -> dict:
    from . import irreps as ir
    report = {}
    ok = True
    for family in ("A", "B", "C"):
        # every field is decided for every B and label, and draws nothing
        res = ir.rep_suite(_rep_for_family(family, params))
        res["pass"] = _rep_pass(res)
        ok = ok and res["pass"]
        report[family] = res
    return {"families": report, "pass": ok}


def suite_generators(params: ModelParams, seed: int) -> dict:
    from . import irreps as ir
    # exact coefficient arithmetic: no draws, and a gate at round-off
    report = {family: ir.generator_gaps(_rep_for_family(family, params))
              for family in ("A", "C")}
    ok = all(gap <= GENERATOR_GATE
             for gaps in report.values() for gap in gaps.values())
    return {"families": report, "pass": ok}


def _field(check, *args):
    """check(*args), or {"error": ...} where its residual leaves the float
    range: one failing check of a suite leaves its siblings standing."""
    try:
        return check(*args)
    except ValueError as exc:
        return {"error": str(exc)}


def suite_quantization(params: ModelParams, seed: int, m: float = 1.0) -> dict:
    from . import quantization as qz
    # Dirac (with its wrong-sign z3, the negative control), hermiticity and
    # covariance are decided for every B, hbar, m and group element
    try:
        qz.PolynomialObservable({(2, 1): 1.0})
        nogo = False
    except qz.NoGoError:
        nogo = True
    report = {**qz.decided_identities(), "covariance": qz.decided_covariance(),
              "degree3_rejected": nogo}
    ok = (report["dirac"] <= 1e-9 and report["dirac_wrong_sign"] > 0.1
          and report["covariance"] <= 1e-8 and report["hermiticity"] <= 1e-9
          and nogo)
    return {**report, "pass": ok}


def suite_classical(params: ModelParams, seed: int, m: float = 1.0) -> dict:
    import numpy as np
    from . import quantization as qz
    worst = qz.casimir_defect(params, m)
    # the light-cone coordinates q^0 = -p/B and q^1 = -q - p/B carry 1/B,
    # which overflows at subnormal B: there is no float bracket to take
    inv_b = 1.0 / params.B
    bracket_ok = math.isfinite(inv_b)
    if bracket_ok:
        q0 = qz.PolynomialObservable({(0, 1): -inv_b})
        q1 = qz.PolynomialObservable({(1, 0): -1.0, (0, 1): -inv_b})
        pb = qz.poisson_bracket(q0, q1, params)
        bracket_ok = pb[(0, 0)] == inv_b and len(pb.coeffs) == 1
    points = np.random.default_rng(seed).uniform(-2, 2, size=(5, 2)).tolist()
    pull = _field(qz.pullback_defect, params, m, points)
    ok = bool(worst <= 1e-12 and bracket_ok
              and not isinstance(pull, dict) and pull <= 1e-6)
    return {"comoment_casimir": worst, "lightcone_bracket_exact": bracket_ok,
            "pullback": pull, "pass": ok}


def suite_dynamics(params: ModelParams, seed: int, m: float = 1.0) -> dict:
    import numpy as np
    from . import dynamics as dy
    c0 = dy.gaussian_spectral(0.0, 1.0)
    worst = (0.0, 0.0, 0.0)  # closed form vs oracle, norm, energy expectation
    # the closed form and both oracles at the report's B times b, at mass m
    sweep = [(1.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (-2.0, 0.5), (1.0, 2.0)]
    for b, mass in sweep:
        p = ModelParams(B=params.B * b, hbar=params.hbar)
        cs = dy.ClassicalState(0.0, 0.7, 0.1, mass, p)
        grid, c = dy.oracle_propagate(cs, c0, 1.6)
        with np.errstate(all="ignore"):
            cf = dy.c_closed_form(cs, grid, 1.6, c0)
            gaps = (float(np.max(np.abs(cf - c))),
                    abs(dy.spectral_norm(grid, c) - 1.0),
                    abs(dy.expectation_from_grid(cs, 1.6, grid, c)
                        - dy.expectation_total_energy(cs, c0.center, 1.6)))
        if not all(map(math.isfinite, gaps)):
            raise ValueError(f"the dynamics residuals at B={p.B!r} leave the "
                             "float range")
        worst = tuple(map(max, worst, gaps))
    worst_dev, worst_norm, worst_exp = worst
    cs = dy.ClassicalState(0.0, -2.0, 0.0, m, ModelParams(B=params.B,
                                                          hbar=params.hbar))
    tau, v, width = dy.locate_minimum(
        lambda t: dy.expectation_total_energy(cs, 0.0, t), cs.tau0)
    tau_star, v_star = dy.total_energy_minimum(cs, 0.0)
    # tau is known to the final bracket plus the distance over which the
    # expectation, of curvature B^2 / (2 m) at tau*, rises by the 1e-10
    # value gate; never wider than 0.005
    tau_tol = min(width + math.sqrt(4e-10 * m) / abs(params.B), 0.005)
    min_ok = bool(abs(tau - tau_star) <= tau_tol
                  and abs(v - v_star) <= 1e-10)
    ok = bool(worst_dev <= 1e-6 and worst_norm <= 1e-8 and worst_exp <= 1e-6
              and min_ok)
    return {"closed_vs_oracle": worst_dev, "norm_drift": worst_norm,
            "energy_expectation": worst_exp, "minimum_located": min_ok,
            "pass": ok}


_SUITES = (
    ("cohomology", suite_cohomology),
    ("structure", suite_structure),
    ("coadjoint", suite_coadjoint),
    ("orbits", suite_orbits),
    ("representations", suite_reps),
    ("generators", suite_generators),
    ("quantization", suite_quantization),
    ("classical", suite_classical),
    ("dynamics", suite_dynamics),
)


def run_all_checks(params: ModelParams, seed: int) -> dict:
    # in turn, in one thread: the suites' numpy calls are too small for a
    # thread pool to overlap them, and on two cores a pool of four made the
    # report slower
    report = {}
    for name, fn in _SUITES:
        try:
            report[name] = fn(params, seed)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # a coefficient or an integral left the float range, or the
            # dynamics oracles disagree: a failed entry, not a traceback
            report[name] = {"error": str(exc), "pass": False}
    report["pass"] = all(report[name]["pass"] for name, _ in _SUITES)
    return report


# ---------------------------------------------------------------------------
# argument parsing


def _linspace(x0: float, x1: float, n: int) -> list:
    """np.linspace(x0, x1, n), bit for bit, as a list of floats."""
    if n < 0:
        raise ValueError(f"number of samples {n} is negative")
    delta, div = x1 - x0, max(n - 1, 1)
    step = delta / div
    # a step that underflows to 0: divide first, as numpy does
    xs = [(k / div * delta if step == 0 else k * step) + x0 for k in range(n)]
    return xs[:-1] + [x1] if n > 1 else xs


def _add_common(sp):
    sp.add_argument("--B", type=float, default=1.0)
    sp.add_argument("--hbar", type=float, default=1.0)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--output", default="-", help="output path, '-' for stdout")


def _build_parser() -> argparse.ArgumentParser:
    # argparse turns a ValueError raised by a type into a usage error
    # naming the type: "argument --span: invalid samples value: '0:1'"
    def covector(text):
        u = tuple(float(t) for t in text.split(","))
        if len(u) != 4 or not all(map(math.isfinite, u)):
            raise ValueError(text)
        return u

    def element(text):
        from .group import GroupElement
        return GroupElement(*(float(t) for t in text.split(",")))

    def probe(text):
        kind, _, idx = text.partition(":")
        k = int(idx or 0)
        if kind != "hermite" or k < 0:
            raise ValueError(text)
        from .wavefunctions import HERMITE_MAX, hermite_probe
        if k > HERMITE_MAX:
            raise argparse.ArgumentTypeError(
                f"hermite:{k} is past hermite:{HERMITE_MAX}, the last index "
                "whose values hold 1e-12")
        return hermite_probe(k)

    def samples(text):
        x0, x1, n = text.split(":")
        return _linspace(float(x0), float(x1), int(n))

    def count(text):
        if int(text) < 1:
            raise ValueError(text)
        return int(text)

    def packet(text):
        kind, _, rest = text.partition(":")
        if kind != "gaussian":
            raise ValueError(kind)
        opts = dict(kv.split("=") for kv in rest.split(",") if kv)
        sigma = float(opts.get("sigma", 1.0))
        if not sigma > 0.0:
            raise ValueError(text)
        from .dynamics import gaussian_spectral
        try:
            return gaussian_spectral(float(opts.get("E0", 0.0)), sigma)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    ap = argparse.ArgumentParser(
        prog="poincare-ext",
        description="verification suites for the extended Poincare toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("algebra-check", help="structural report of the algebra")
    _add_common(sp)

    sp = sub.add_parser("cohomology", help="Lie algebra cohomology dimension")
    _add_common(sp)
    sp.add_argument("--algebra", choices=coh.CATALOG_NAMES, default="i12")
    sp.add_argument("--degree", type=int, default=2)

    sp = sub.add_parser("orbit", help="coadjoint orbit tools")
    orbsub = sp.add_subparsers(dest="orbit_cmd", required=True)
    c = orbsub.add_parser("classify")
    _add_common(c)
    c.add_argument("--zeta", required=True, type=covector, help="u0,u1,u2,u3")
    c = orbsub.add_parser("check", help="subordination + maximality sweep")
    _add_common(c)

    sp = sub.add_parser("rep", help="representation verification and sampling")
    repsub = sp.add_subparsers(dest="rep_cmd", required=True)
    for name in ("verify", "apply"):
        c = repsub.add_parser(name)
        _add_common(c)
        c.add_argument("--family", choices=tuple(REP_LABELS), default="A")
        for labels in REP_LABELS.values():
            for label, default in labels.items():
                c.add_argument(f"--{label}", type=float, default=default)
        if name == "apply":
            c.add_argument("--g", required=True, type=element, help="t0,t1,a,b")
            c.add_argument("--probe", default="hermite:0", type=probe,
                           help="hermite:k")
            c.add_argument("--emit-samples", default="-4:4:81", type=samples,
                           help="x0:x1:n  (CSV columns: x, Re, Im)")

    sp = sub.add_parser("quantize", help="quantization checks and operators")
    qsub = sp.add_subparsers(dest="q_cmd", required=True)
    c = qsub.add_parser("check")
    _add_common(c)
    c.add_argument("--m", type=float, default=1.0)
    c = qsub.add_parser("op")
    _add_common(c)
    c.add_argument("--poly", required=True, help="e.g. 'q^2+2qp'")

    sp = sub.add_parser("evolve", help="spectral amplitude evolution")
    _add_common(sp)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--q1", type=float, default=0.0)
    sp.add_argument("--ptilde0", type=float, default=-2.0)
    sp.add_argument("--tau0", type=float, default=0.0)
    sp.add_argument("--tau", type=float, default=2.0)
    sp.add_argument("--packet", default="gaussian:E0=0,sigma=1", type=packet)
    sp.add_argument("--grid", type=count, default=400)
    sp.add_argument("--emit", choices=("csv", "json"), default="csv")

    sp = sub.add_parser("trajectory", help="classical trajectory table")
    _add_common(sp)
    sp.add_argument("--m", type=float, default=1.0)
    sp.add_argument("--q1", type=float, default=0.0)
    sp.add_argument("--ptilde0", type=float, default=0.0)
    sp.add_argument("--tau0", type=float, default=0.0)
    sp.add_argument("--span", default="0:10:100", type=samples,
                    help="tau0:tau1:n")

    sp = sub.add_parser("all-checks", help="every verification suite")
    _add_common(sp)

    return ap


def _open_output(args):
    if args.output == "-":
        return sys.stdout, False
    return open(args.output, "w"), True


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        params = _params(args)
        if args.cmd in ("evolve", "trajectory"):
            cs = ClassicalState(args.q1, args.ptilde0, args.tau0, args.m,
                                params)
        if args.cmd == "rep":
            irrep = _rep_for_family(args.family, params, args)
    except ValueError as exc:
        ap.error(str(exc))
    stream, close = _open_output(args)
    code = 0
    try:
        if args.cmd == "algebra-check":
            rep = suite_structure(params, args.seed)
            _emit_json(rep, stream)
            code = 0 if rep["pass"] else 1

        elif args.cmd == "cohomology":
            try:
                sc = coh.catalog_algebra(args.algebra, B=params.B)
            except ValueError as exc:
                ap.error(f"cohomology of {args.algebra} at B={args.B!r}: {exc}")
            try:
                dim = coh.cohomology_dim(args.degree, sc)
            except ValueError as exc:
                ap.error(f"argument --degree: {exc}")
            _emit_json({"algebra": args.algebra, "degree": args.degree,
                        "dim": dim}, stream)

        elif args.cmd == "orbit":
            if args.orbit_cmd == "classify":
                cls = classify(args.zeta, params)
                for name in ("casimir", "mass_square"):
                    if not math.isfinite(cls.labels.get(name, 0.0)):
                        ap.error(f"orbit classify at B={args.B!r}: the label "
                                 f"{name} leaves the float range")
                _emit_json({"tag": cls.tag, "labels": cls.labels,
                            "orbit_dim": cls.orbit_dim}, stream)
            else:
                rep = suite_orbits(params, args.seed)
                _emit_json(rep, stream)
                code = 0 if rep["pass"] else 1

        elif args.cmd == "rep":
            from . import irreps as ir
            if args.rep_cmd == "verify":
                res = ir.rep_suite(irrep)
                res["pass"] = _rep_pass(res)
                _emit_json(res, stream)
                code = 0 if res["pass"] else 1
            else:
                # an operator that leaves the float range (tiny B, huge
                # alpha) is a usage error
                xs = args.emit_samples
                try:
                    vals = ir.rep_apply(irrep, args.g, args.probe, xs)
                except ValueError as exc:
                    ap.error(f"family {args.family} at B={args.B!r}: {exc}")
                stream.write("x,re,im\n")
                for x, v in zip(xs, vals):
                    stream.write(f"{float(x)!r},{float(v.real)!r},"
                                 f"{float(v.imag)!r}\n")

        elif args.cmd == "quantize":
            if args.q_cmd == "check":
                rep = suite_quantization(params, args.seed, m=args.m)
                rep["classical"] = suite_classical(params, args.seed, m=args.m)
                _emit_json(rep, stream)
                code = 0 if rep["pass"] and rep["classical"]["pass"] else 1
            else:
                from . import quantization as qz
                try:
                    poly = qz.parse_poly(args.poly)
                except ValueError as exc:
                    ap.error(f"argument --poly: {exc}")
                op = qz.quantize(poly, params)
                _emit_json({"poly": args.poly, "operator": op.describe()},
                           stream)

        elif args.cmd == "evolve":
            import numpy as np
            from . import dynamics as dy
            # a grid the floats do not resolve, or oracles that disagree
            try:
                grid = dy.default_e_grid(cs, args.packet, args.tau, n=args.grid)
                grid, c = dy.oracle_propagate(cs, args.packet, args.tau, grid)
            except (ValueError, dy.OracleError) as exc:
                ap.error(f"evolve at B={args.B!r}: {exc}")
            # an amplitude past the float range is an error line, not a nan
            with np.errstate(all="ignore"):
                cf = dy.c_closed_form(cs, grid, args.tau, args.packet)
            if not np.all(np.isfinite(cf)):
                ap.error(f"evolve at B={args.B!r}: the amplitudes leave the "
                         "float range")
            dev = np.abs(cf - c)
            if args.emit == "csv":
                stream.write("E,re_c,im_c,abs2_c,closed_form_deviation\n")
                for e, v, d in zip(grid, cf, dev):
                    stream.write(f"{float(e)!r},{float(v.real)!r},"
                                 f"{float(v.imag)!r},{float(abs(v) ** 2)!r},"
                                 f"{float(d)!r}\n")
            else:
                _emit_json({"max_deviation": float(np.max(dev)),
                            "norm": dy.spectral_norm(grid, cf)}, stream)

        elif args.cmd == "trajectory":
            rows = [(tau, *classical_trajectory(cs, tau), proper_time(cs, tau))
                    for tau in args.span]
            for row in rows:
                if not all(map(math.isfinite, row)):
                    ap.error(f"trajectory at B={args.B!r}: the values at "
                             f"tau={row[0]!r} leave the float range")
            stream.write("tau,q0,q1,ptilde,proper_time\n")
            for row in rows:
                stream.write(",".join(repr(float(v)) for v in row) + "\n")

        elif args.cmd == "all-checks":
            rep = run_all_checks(params, args.seed)
            _emit_json(rep, stream)
            code = 0 if rep["pass"] else 1
    finally:
        if close:
            stream.close()
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
