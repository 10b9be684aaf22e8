"""Command-line entry point: verification suites and simulations.

Every subcommand emits machine-readable output (JSON with a schema
version, or CSV for sampled data).  Exit codes: 0 every check passes, 1
numeric failure (report still emitted), 2 usage error.  Every suite
reads identities decided once per process, for every B != 0, and draws
nothing, so a report depends on neither B nor a seed.  A field passes
only at 0.0 (_exact), except the wrong-sign Dirac control (above 0.1) and
the degree-3 rejection.

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


def _exact(*fields) -> bool:
    """The one pass rule of a decided or exact field: it reads 0.0.  Such a
    field is an identity's defect in exact arithmetic, so any other value
    is a failure, not round-off."""
    return all(v == 0.0 for v in fields)


# ---------------------------------------------------------------------------
# individual suites (also used by all-checks)


def suite_cohomology(params: ModelParams) -> dict:
    # the dimensions are decided for every B != 0 at once
    dims = {name: {str(k): dim for k, dim in got.items()}
            for name, got in coh.decided_dims().items()}
    ok = all(dims[n][str(k)] == v
             for n, exp in coh.EXPECTED_DIMS.items() for k, v in exp.items())
    return {"dims": dims, "pass": ok}


def suite_structure(params: ModelParams) -> dict:
    from .group import structural_report
    rep = structural_report(params)  # decided for every B != 0
    ok = bool(rep["central_series_dims"][-1] == 3
              and rep["derived_series_dims"][-1] == 0
              and _exact(rep["ad_spectrum"]))
    return {**rep, "pass": ok}


def suite_coadjoint(params: ModelParams) -> dict:
    from .group import decided_coadjoint
    # coadjoint_action keeps the Casimir and u3 for every B != 0, g and zeta
    rep = decided_coadjoint()
    return {**rep, "pass": _exact(*rep.values())}


def suite_orbits(params: ModelParams) -> dict:
    from . import orbits as orb
    # subordination, Pukanszky and the orbit dimensions are decided for
    # every B != 0 at once
    cases, ok = orb.decided_cases()
    return {"cases": {tag: dict(entry) for tag, entry in cases.items()},
            "pass": ok}


def _rep_for_family(family: str, params: ModelParams, args=None):
    from . import irreps as ir
    labels = REP_LABELS[family]
    if args is not None:
        labels = {name: getattr(args, name) for name in labels}
    return ir.RepParams(family, params, **labels)


def _rep_pass(res: dict) -> bool:
    """Every decided field of a rep_suite report reads 0.0."""
    return _exact(*(v for k, v in res.items() if k != "family"))


def suite_reps(params: ModelParams) -> dict:
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


def suite_generators(params: ModelParams) -> dict:
    from . import irreps as ir
    # dT(X) = d/dt T(exp tX) at 0 is decided for every B and label: no draws
    report = {family: dict(ir.decided_identities()[family]["generators"])
              for family in ("A", "C")}
    return {"families": report,
            "pass": _exact(*(v for gaps in report.values() for v in gaps.values()))}


def suite_quantization(params: ModelParams) -> dict:
    from . import quantization as qz
    # Dirac (with its wrong-sign z3, the negative control), hermiticity and
    # covariance are decided for every B, hbar, m and group element
    try:
        qz.PolynomialObservable({(2, 1): 1.0})
        nogo = False
    except qz.NoGoError:
        nogo = True
    decided = qz.decided_identities()
    report = {**{k: decided[k] for k in ("dirac", "dirac_wrong_sign", "hermiticity")},
              "covariance": qz.decided_covariance(), "degree3_rejected": nogo}
    ok = (_exact(report["dirac"], report["hermiticity"], report["covariance"])
          and report["dirac_wrong_sign"] > 0.1 and nogo)
    return {**report, "pass": ok}


def suite_classical(params: ModelParams) -> dict:
    from . import quantization as qz
    # the comoment Casimir, the light-cone bracket and the pullback are
    # decided for every B, hbar and m
    decided = qz.decided_identities()
    fields = [decided[k] for k in ("comoment_casimir", "lightcone_bracket", "pullback")]
    return {"comoment_casimir": decided["comoment_casimir"],
            "lightcone_bracket_exact": decided["lightcone_bracket"] == 0.0,
            "pullback": decided["pullback"], "pass": _exact(*fields)}


def suite_dynamics(params: ModelParams) -> dict:
    from . import dynamics as dy
    # the closed form's phase against both oracles', for every state, time
    # and B != 0; the other fields follow from the definitions
    decided = dy.decided_identities()
    return {**{k: decided[k] for k in ("closed_vs_oracle", "norm_drift",
                                       "energy_expectation")},
            "minimum_located": decided["minimum"] == 0.0,
            "pass": _exact(*decided.values())}


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


def run_all_checks(params: ModelParams, seed: int | None = None) -> dict:
    """Every suite's report at params.  seed is taken for callers that
    pass one: no suite reads it, as none draws."""
    # in turn, in one thread: the suites are too small for a thread pool to
    # overlap them, and on two cores a pool of four made the report slower
    report = {}
    for name, fn in _SUITES:
        try:
            report[name] = fn(params)
        except (ValueError, RuntimeError, ArithmeticError) as exc:
            # a decision that fails to run: a failed entry, not a traceback
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
            rep = suite_structure(params)
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
                rep = suite_orbits(params)
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
                rep = suite_quantization(params)
                rep["classical"] = suite_classical(params)
                _emit_json(rep, stream)
                code = 0 if rep["pass"] and rep["classical"]["pass"] else 1
            else:
                from . import quantization as qz
                try:
                    op = qz.quantize(qz.parse_poly(args.poly), params)
                except ValueError as exc:
                    ap.error(f"argument --poly: {exc}")
                _emit_json({"poly": args.poly, "operator": op.describe()},
                           stream)

        elif args.cmd == "evolve":
            import numpy as np
            from . import dynamics as dy
            # a grid that does not resolve the packet, or oracles that
            # disagree, whose phases carry 1/hbar
            try:
                grid = dy.default_e_grid(cs, args.packet, args.tau, n=args.grid)
                grid, c = dy.oracle_propagate(cs, args.packet, args.tau, grid)
            except ValueError as exc:
                ap.error(f"evolve at B={args.B!r}: {exc}")
            except dy.OracleError as exc:
                ap.error(f"evolve at B={args.B!r}, hbar={args.hbar!r}: {exc}")
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
            rep = run_all_checks(params)
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
