"""Command-line interface: catalog, geodesic, distance, cone, axioms, probe, reduce.

Exit codes: 0 on success or a holding probe, 2 when a probe fails with a
witness (the witness is written to a file), 1 on usage or contract errors.
All outputs are deterministic for identical arguments and seeds.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import causality, discrete, geodesics, probes, profiles
from .errors import Inextendible, LorlabError
from .profiles import SpacetimePoint, TangentVector

GEODESIC_COLUMNS = ("s", "t", "x", "dtds", "dxds", "kappa", "eps")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the artifact reserves 2
    # for failing probes, so remap usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise _CliError(f"expected 'A,B', got {text!r}")
    return float(parts[0]), float(parts[1])


def _float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip()]


def _fmt(value: float) -> str:
    return repr(float(value))


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _load_profile(args) -> profiles.MetricProfile:
    if args.profile_file:
        book = profiles.load_profiles(args.profile_file)
        if args.profile:
            if args.profile not in book:
                raise _CliError(
                    f"profile {args.profile!r} not in {args.profile_file!r} "
                    f"(has: {', '.join(book)})"
                )
            return book[args.profile]
        if len(book) != 1:
            raise _CliError(
                f"{args.profile_file!r} holds {len(book)} profiles; pick one "
                "with --profile"
            )
        return next(iter(book.values()))
    if not args.profile:
        raise _CliError("need --profile NAME or --profile-file PATH")
    return profiles.get_profile(args.profile)


def _check_tolerances(args):
    for name in ("eps_null", "drift_tol"):
        if getattr(args, name, None) is not None and not getattr(args, name) > 0.0:
            raise _CliError(f"--{name.replace('_', '-')} must be positive")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lorlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(sp, profile=True):
        if profile:
            sp.add_argument("--profile", help="built-in profile name")
            sp.add_argument("--profile-file", help="plain-text profile record file")
        sp.add_argument("--out", help="output path (default: stdout)")

    sp = sub.add_parser("catalog", help="list built-in profiles")
    common(sp, profile=False)

    sp = sub.add_parser("geodesic", help="integrate a causal geodesic")
    common(sp)
    sp.add_argument("--p", required=True, help="start point t,x")
    sp.add_argument("--v", required=True, help="initial velocity tau,xi")
    sp.add_argument("--smax", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--method", choices=("ode", "quadrature", "both"), default="ode")
    sp.add_argument("--drift-tol", type=float, default=None,
                    help="conserved-quantity drift allowed per unit parameter (ode)")

    sp = sub.add_parser("distance", help="Lorentzian distance T(p, q)")
    common(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--method", choices=("auto", "reduction", "shooting"),
                    default="auto")
    sp.add_argument("--eps-null", type=float, default=None, help="null classification band")

    sp = sub.add_parser("cone", help="null cone boundary of a point")
    common(sp)
    sp.add_argument("--p", required=True)
    sp.add_argument("--tmax", type=float, required=True)
    sp.add_argument("--n", type=int, default=65)

    sp = sub.add_parser("axioms", help="sample a finite space and check the axioms")
    common(sp)
    sp.add_argument("--region", required=True, help="t0,t1,x0,x1")
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=1e-7)
    sp.add_argument("--eps-null", type=float, default=None, help="null classification band")
    sp.add_argument("--dump-dir", help="write chron/causal/dmat/taumat CSVs here")

    sp = sub.add_parser("probe", help="completeness-condition probes")
    common(sp)
    sp.add_argument("--kind", choices=("fc", "tcc", "ca", "all"), required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", type=_pair, help="second point t,x (fc, ca)")
    # each of these is rejected by a kind that does not read it
    sp.add_argument("--B", type=float, help="finite-compactness bound (fc; default 5)")
    sp.add_argument("--v", type=_pair, help="geodesic direction (ca, tcc; default 1,0)")
    sp.add_argument("--ca-B", type=_float_list,
                    help="comma list of ca bounds (ca; default 10,100)")
    sp.add_argument("--cauchy-span", type=float, help="sequence span (tcc; default 1)")
    sp.add_argument("--cauchy-n", type=int, help="sequence length (tcc; default 30)")
    sp.add_argument("--config", help="key-value config file overriding the flags")
    sp.add_argument("--witness-file", default=None,
                    help="where to write the witness on failure")

    sp = sub.add_parser("reduce", help="flat time coordinates of a point (b == 1)")
    common(sp)
    sp.add_argument("--p", required=True)
    return parser


# -- subcommand bodies -----------------------------------------------------------


def _run_catalog(args) -> int:
    lines = []
    for name in profiles.CATALOG_NAMES:
        prof = profiles.get_profile(name)
        lines.append(profiles.format_profile(prof))
    _emit(args, "\n".join(lines))
    return 0


def _geodesic_rows_ode(profile, p, v, args):
    kwargs = {}
    if args.drift_tol is not None:
        kwargs["drift_tol"] = args.drift_tol
    path = geodesics.integrate_geodesic(profile, p, v, args.smax, args.step, **kwargs)
    rhs, rows = profile.geodesic_rhs, []
    for s, t, x, dtds, dxds in path.samples.tolist():
        _, _, a, b = rhs(t, dtds, dxds)
        rows.append((s, t, x, dtds, dxds, b * dxds, -a * dtds * dtds + b * dxds * dxds))
    return rows, path


def _geodesic_rows_quad(profile, p, v, args):
    n = int(math.floor(args.smax / args.step + 1e-9)) + 1
    s_values = [i * args.step for i in range(n)]
    if s_values[-1] < args.smax - 1e-15:
        s_values.append(args.smax)
    cons = geodesics.conserved_quantities(profile, p, v)
    states = geodesics.geodesic_states(profile, p, v, s_values)
    return [
        (s, t, x, dtds, dxds, cons.kappa, cons.epsilon)
        for s, t, x, dtds, dxds in states
    ]


def _run_geodesic(args) -> int:
    for name in ("smax", "step"):
        if not 0.0 < getattr(args, name) < math.inf:
            raise _CliError(f"--{name} must be positive and finite")
    if args.drift_tol is not None and args.method == "quadrature":
        raise _CliError("--drift-tol applies to --method ode or both")
    profile = _load_profile(args)
    p = SpacetimePoint(*_pair(args.p))
    v = TangentVector(*_pair(args.v))
    chunks = []
    if args.method in ("ode", "both"):
        rows, path = _geodesic_rows_ode(profile, p, v, args)
        header = f"# method=ode inextendible={path.inextendible} max_param={_fmt(path.max_param)}\n"
        chunks.append(header + _csv(rows, GEODESIC_COLUMNS))
    if args.method in ("quadrature", "both"):
        rows = _geodesic_rows_quad(profile, p, v, args)
        chunks.append("# method=quadrature\n" + _csv(rows, GEODESIC_COLUMNS))
    _emit(args, "".join(chunks))
    return 0


def _run_distance(args) -> int:
    profile = _load_profile(args)
    p = SpacetimePoint(*_pair(args.p))
    q = SpacetimePoint(*_pair(args.q))
    kwargs = {}
    if args.eps_null is not None:
        kwargs["eps_null"] = args.eps_null
    result = causality.lorentzian_distance(profile, p, q, method=args.method, **kwargs)
    out = [f"value {_fmt(result.value)}", f"method {result.method}"]
    if result.method == "shooting":
        out.append("note shooting maximizes over geodesics; on profiles that are "
                    "not globally hyperbolic this is a lower bound")
    text = "\n".join(out) + "\n"
    if result.maximizer is not None:
        rows = []
        cons = result.maximizer.conserved
        for s, t, x, dtds, dxds in result.maximizer.samples:
            rows.append((s, t, x, dtds, dxds, cons.kappa, cons.epsilon))
        text += _csv(rows, GEODESIC_COLUMNS)
    _emit(args, text)
    return 0


def _run_cone(args) -> int:
    if args.n < 2:
        raise _CliError("--n must be at least 2: the grid runs from p.t to --tmax")
    if not math.isfinite(args.tmax):
        raise _CliError("--tmax must be finite")
    profile = _load_profile(args)
    p = SpacetimePoint(*_pair(args.p))
    grid = np.linspace(p.t, args.tmax, args.n)
    left, right = causality.cone_boundary(profile, p, grid)
    rows = list(zip(grid, left, right))
    _emit(args, _csv(rows, ("t", "x_left", "x_right")))
    return 0


def _run_reduce(args) -> int:
    profile = _load_profile(args)
    p = SpacetimePoint(*_pair(args.p))
    tau, x = causality.minkowski_reduce(profile, p)
    _emit(args, f"tau {_fmt(tau)}\nx {_fmt(x)}\n")
    return 0


def _run_axioms(args) -> int:
    profile = _load_profile(args)
    region = tuple(_float_list(args.region))
    if len(region) != 4:
        raise _CliError("--region needs t0,t1,x0,x1")
    discrete._require_small(args.n)
    kwargs = {}
    if args.eps_null is not None:
        kwargs["eps_null"] = args.eps_null
    space = discrete.sample_space(profile, region, args.n, args.seed, **kwargs)
    report = discrete.check_axioms(space, tol=args.tol)
    pushup = discrete.check_pushup(space)
    causal = discrete.check_causality(space)
    lines = [f"profile {profile.name}", f"n {len(space)}", f"seed {args.seed}"]
    for check in report.checks + (pushup, causal):
        lines.append(
            f"check {check.name} {check.status} residual {_fmt(check.residual)}"
            + (f" witness {check.witness}" if check.witness else "")
        )
    ok = report.passed and not pushup.failed and not causal.failed
    lines.append(f"verdict {'pass' if ok else 'fail'}")
    _emit(args, "\n".join(lines) + "\n")
    if args.dump_dir:
        import os

        os.makedirs(args.dump_dir, exist_ok=True)
        cols = tuple(f"j{i}" for i in range(len(space)))
        for name in ("chron", "causal", "dmat", "taumat"):
            with open(os.path.join(args.dump_dir, name + ".csv"), "w",
                      encoding="utf-8") as fh:
                fh.write(_csv(getattr(space, name), cols))
    return 0 if ok else 2


# each probe config key's parser and the kinds that read it (kind all reads
# every one)
_PROBE_CONFIG_KEYS = {
    "p": (_pair, ("fc", "ca", "tcc")),
    "q": (_pair, ("fc", "ca")),
    "fc_bound": (float, ("fc",)),
    "ca_direction": (_pair, ("ca",)),
    "ca_bounds": (_float_list, ("ca",)),
    "cauchy_direction": (_pair, ("tcc",)),
    "cauchy_span": (float, ("tcc",)),
    "cauchy_len": (int, ("tcc",)),
}


# the probe flags besides --p, and the config keys each sets; a kind rejects
# a flag that sets no key it reads
_PROBE_FLAGS = {
    "q": ("q",),
    "B": ("fc_bound",),
    "v": ("ca_direction", "cauchy_direction"),
    "ca_B": ("ca_bounds",),
    "cauchy_span": ("cauchy_span",),
    "cauchy_n": ("cauchy_len",),
}


def _probe_config(args) -> probes.ProbeConfig:
    def reads(key):
        return args.kind in (*_PROBE_CONFIG_KEYS[key][1], "all")

    values = {"p": _pair(args.p), "q": None}
    for flag, keys in _PROBE_FLAGS.items():
        value = getattr(args, flag)
        if value is None:
            continue
        if not any(map(reads, keys)):
            raise _CliError(
                f"probe --kind {args.kind} does not read --{flag.replace('_', '-')}")
        values.update(dict.fromkeys(keys, value))
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition(":")
                key = key.strip()
                if not sep or key not in _PROBE_CONFIG_KEYS:
                    raise _CliError(f"unknown probe config line {raw.strip()!r}")
                if not reads(key):
                    raise _CliError(f"probe --kind {args.kind} does not read config key {key!r}")
                values[key] = _PROBE_CONFIG_KEYS[key][0](value.strip())
    p, q = values.pop("p"), values.pop("q")
    if q is None and args.kind != "tcc":
        raise _CliError("probe needs --q (or q: in --config)")
    for key in ("ca_direction", "cauchy_direction"):
        if key in values:
            values[key] = TangentVector(*values[key])
    if "ca_bounds" in values:
        values["ca_bounds"] = tuple(values["ca_bounds"])
    return probes.ProbeConfig(
        p=SpacetimePoint(*p), q=None if q is None else SpacetimePoint(*q), **values)


def _witness_text(report: probes.ProbeReport) -> str:
    lines = [f"condition {report.condition}", f"verdict {report.verdict}"]
    for key in sorted(report.witness):
        lines.append(f"{key} {report.witness[key]!r}")
    return "\n".join(lines) + "\n"


def _run_probe(args) -> int:
    profile = _load_profile(args)
    config = _probe_config(args)
    reports = []
    record = [f"profile {profile.name}", f"kind {args.kind}"]
    if args.kind == "all":
        combined = probes.implication_report(profile, config)
        reports = list(combined.reports)
        record.append(f"consistent {str(combined.consistent).lower()}")
        for broken in combined.violated:
            record.append(f"violated {broken}")
    elif args.kind == "fc":
        # a region is bounded and closed in the domain exactly when it holds
        report, _ = probes._judge_compactness(profile, config.p, config.q, config.fc_bound)
        holds = str(report.holds).lower()
        record += [f"bounded {holds}", f"closed_in_domain {holds}"]
        reports = [report]
    elif args.kind == "ca":
        reports = [
            probes.probe_condition_a(
                profile, config.p, config.q, config.ca_direction, config.ca_bounds
            )
        ]
    else:
        seq, bounds = probes.make_cauchy_sequence(
            profile, config.p, config.cauchy_direction,
            span=config.cauchy_span, n=config.cauchy_len,
        )
        reports = [probes.probe_timelike_cauchy(profile, seq, bounds)]

    failing = [r for r in reports if not r.holds]
    for report in reports:
        record.append(f"{report.condition} {report.verdict}")
        for key in ("t_top", "bounded_by", "max_param", "tail_diameter"):
            if key in report.witness:
                record.append(f"{report.condition}.{key} {_fmt(report.witness[key])}")
    _emit(args, "\n".join(record) + "\n")
    if failing:
        witness_path = args.witness_file or f"witness_{args.kind}.txt"
        with open(witness_path, "w", encoding="utf-8") as fh:
            for report in failing:
                fh.write(_witness_text(report))
        sys.stderr.write(f"witness written to {witness_path}\n")
        return 2
    return 0


_RUNNERS = {
    "catalog": _run_catalog,
    "geodesic": _run_geodesic,
    "distance": _run_distance,
    "cone": _run_cone,
    "axioms": _run_axioms,
    "probe": _run_probe,
    "reduce": _run_reduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_tolerances(args)
        return _RUNNERS[args.command](args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Inextendible as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (LorlabError, ValueError, OSError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
