"""Command line front end.

Subcommands: gen (write an instance), radius (certified enclosure and its
witness value), bounds (full inequality report), range (W_A(T) cloud as
CSV), verify (run the randomized suite). Exit codes: 0 success, 1
counterexample found (a `bounds` report or a suite check that does not
hold; `bounds` names each failed report on stderr), 2 usage error, 3 I/O
or format error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as aio
from .bounds import inequality_reports
from .harness import CONSTRUCTIONS, InstanceSpec, SuiteConfig, gen_instance, run_suite
from .linalg import LinAlgInputError, TolerancePolicy
from .radius import radius_theta_scan, range_cloud, witness_value
from .space import make_a_operator, psd_decompose

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _parse_dims(text: str):
    if ".." in text:
        lo, hi = text.split("..", 1)
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(part) for part in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="anumrad", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance JSON")
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--rank-a", type=int, default=None)
    gen.add_argument("--construction", choices=CONSTRUCTIONS, default="random")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--out", required=True)

    radius = sub.add_parser("radius", help="certified enclosure of w_A(T)")
    radius.add_argument("--in", dest="infile", required=True)
    radius.add_argument("--grid-n", type=int, default=720)
    radius.add_argument("--out", default=None)

    bounds = sub.add_parser("bounds", help="evaluate all inequality reports")
    bounds.add_argument("--in", dest="infile", required=True)
    bounds.add_argument("--grid-n", type=int, default=720)
    bounds.add_argument("--out", default=None)

    rng = sub.add_parser("range", help="emit a W_A(T) point cloud as CSV")
    rng.add_argument("--in", dest="infile", required=True)
    rng.add_argument("--n-theta", type=int, default=360)
    rng.add_argument("--seed", type=int, default=0)
    rng.add_argument("--out", required=True)

    verify = sub.add_parser("verify", help="run the randomized verification suite")
    suite = SuiteConfig()
    verify.add_argument("--n", type=int, default=suite.n_instances)
    verify.add_argument("--dims", type=_parse_dims, default=suite.dims)
    verify.add_argument("--seed", type=int, default=suite.seed)
    verify.add_argument("--grid-n", type=int, default=suite.grid_n)
    rel = "relative to the larger of the two compared magnitudes (default %(default)s)"
    tol = TolerancePolicy()
    verify.add_argument("--tol", type=float, default=tol.check_rel_tol, help=f"holds: {rel}")
    verify.add_argument(
        "--equality-tol", type=float, default=tol.equality_rel_tol, help=f"tight, equality, disk: {rel}"
    )
    verify.add_argument("--construction", choices=CONSTRUCTIONS, action="append", default=None)
    verify.add_argument("--out", default=None)

    return parser


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fp:
            fp.write(text + "\n")
    else:
        print(text)


def _load_operator(path):
    inst = aio.load_instance(path)
    ctx = psd_decompose(inst["A"])
    return inst, ctx, make_a_operator(ctx, inst["T"])


def _cmd_gen(args) -> int:
    rank = args.rank_a if args.rank_a is not None else args.dim
    spec = InstanceSpec(
        dim=args.dim, rank_a=rank, construction=args.construction, seed=args.seed, scale=args.scale
    )
    a, t = gen_instance(spec)
    aio.save_instance(args.out, {"A": a, "T": t})
    return EXIT_OK


def _cmd_radius(args) -> int:
    _, _, op = _load_operator(args.infile)
    rad = radius_theta_scan(op, args.grid_n)
    payload = aio.to_dict(rad)
    payload["witness_value"] = witness_value(op, rad.theta_star)
    _emit(payload, args.out)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    inst, ctx, op = _load_operator(args.infile)
    rad = radius_theta_scan(op, args.grid_n)
    xy = (make_a_operator(ctx, inst["X"]), make_a_operator(ctx, inst["Y"])) if "X" in inst else None
    s = make_a_operator(ctx, inst["S"]) if "S" in inst else None
    reports, cmp = inequality_reports(op, rad, xy, s)
    payload = {"radius": aio.to_dict(rad)}
    if cmp is not None:
        payload["commutator_comparison"] = aio.to_dict(cmp)
    payload["reports"] = [aio.to_dict(r) for r in reports]
    _emit(payload, args.out)
    failed = [r for r in reports if not r.holds]
    for r in failed:
        print(f"counterexample: {r.formula_id} violated (slack {r.slack:.3e})", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


def _cmd_range(args) -> int:
    _, _, op = _load_operator(args.infile)
    cloud = range_cloud(op, args.n_theta, args.seed)
    with open(args.out, "w") as fp:
        aio.cloud_to_csv(cloud, fp)
    return EXIT_OK


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        n_instances=args.n,
        dims=tuple(args.dims),
        seed=args.seed,
        grid_n=args.grid_n,
        constructions=tuple(args.construction or SuiteConfig.constructions),
        tol=TolerancePolicy(check_rel_tol=args.tol, equality_rel_tol=args.equality_tol),
    )
    report = run_suite(config)
    _emit(aio.suite_report_to_dict(report), args.out)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


_COMMANDS = {
    "gen": _cmd_gen,
    "radius": _cmd_radius,
    "bounds": _cmd_bounds,
    "range": _cmd_range,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (aio.InstanceFormatError, LinAlgInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
