"""Command-line front end: constellation generation, metrics, optimization,
Eb/N0 sweeps, and BER simulation, emitting plot-ready CSV/JSON.

Angles are accepted and reported in degrees; everything internal is radians.
Exit codes: 0 success, 2 usage error, 3 bad input data, 4 numerical failure or too large.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import shlex
import sys

import numpy as np

from . import __version__
from .channel import MIN_BITS, ber_monte_carlo
from .constellation import (
    SUPPORTED_QAM_ORDERS,
    Constellation,
    NuqamParams,
    load,
    make_nuqam,
    make_qam_product,
    normalize_energy,
    rotate,
    save,
    save_points_csv,
)
from .liegroup import (RotationMatrix, _power_of_two_exponent, load_rotation_csv, logm_rotation,
                       rotation_at, save_rotation_csv, skew_family)
from .metrics import ChannelSpec, compute_report, cutoff_rate
from .optimize import grid_search_t, optimize_nuqam, optimize_rotation_full


_PAPER_STEP_DEG = math.degrees(1e-3)  # the paper's step: math.radians gives back 1e-3 exactly


class InputDataError(Exception):
    pass


def _provenance(args) -> dict:
    return {
        "command": "rotcon " + shlex.join(args.argv),
        "seed": getattr(args, "seed", None),
        "version": __version__,
    }


def _add_constellation_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--qam", type=int, choices=SUPPORTED_QAM_ORDERS, metavar="M",
                     help="per-2D modulation order")
    src.add_argument("--nuqam", metavar="A1,A2,...", help="non-uniform 2D levels")
    src.add_argument("--file", metavar="PATH", help="constellation JSON file")
    p.add_argument("--half-dims", type=_count_at_least(1), default=1, help="2D slots for --qam")
    p.add_argument("--no-normalize", action="store_true",
                   help="skip normalization to average energy P = q")
    rot = p.add_mutually_exclusive_group()
    rot.add_argument("--rotate-csv", metavar="PATH", help="apply a rotation loaded from CSV")
    rot.add_argument("--rotate-t-deg", type=_finite, metavar="DEG",
                     help="apply the family rotation Q(t)")


@contextlib.contextmanager
def _bad_input():
    """Report a file, value or dimension the library rejects as bad input data (exit 3)."""
    try:
        yield
    except (OSError, ValueError) as e:
        raise InputDataError(str(e)) from e


def _build_constellation(args) -> Constellation:
    if args.qam is not None:  # argparse checked it: a ValueError is a size refused (exit 4)
        x = make_qam_product(args.qam, args.half_dims)
    else:
        with _bad_input():
            x = load(args.file) if args.nuqam is None else make_nuqam(
                NuqamParams(tuple(float(v) for v in args.nuqam.split(","))))
    if not args.no_normalize:
        x = normalize_energy(x, float(x.q_bits))
    if args.rotate_csv:
        x = rotate(x, _load_rotation(args.rotate_csv, x.n))
    elif args.rotate_t_deg is not None:
        k = _family_exponent(x.n)
        x = rotate(x, rotation_at(skew_family(k), math.radians(args.rotate_t_deg)))
    return x


def _family_exponent(n: int) -> int:
    with _bad_input():
        return _power_of_two_exponent(n)


def _load_rotation(path: str, n: int) -> RotationMatrix:
    with _bad_input():
        q = load_rotation_csv(path)
    if q.n != n:
        raise InputDataError(f"rotation {path} is {q.n}x{q.n} "
                             f"but the constellation has dimension {n}")
    return q


def _number(arg: str, ok, what: str) -> float:
    try:
        v = float(arg)
    except ValueError:
        v = math.nan
    if not ok(v):
        raise argparse.ArgumentTypeError(f"{arg!r} is not {what}")
    return v


def _finite(arg: str) -> float:
    return _number(arg, math.isfinite, "a finite number")


def _grid_step_deg(arg: str) -> float:
    return _number(arg, lambda v: 0 < v <= 45, "a number in (0, 45]")


def _radius(arg: str) -> float:
    return _number(arg, lambda v: v > 0, "a positive number or inf")


def _count_at_least(lo: int):
    """A type for an integer option that must be at least lo."""
    def parse(arg: str) -> int:
        try:
            v = int(arg)
        except ValueError:
            v = None
        if v is None or v < lo:
            raise argparse.ArgumentTypeError(f"{arg!r} is not an integer of at least {lo}")
        return v
    return parse


def _channel(arg: str) -> ChannelSpec:
    """An Eb/N0 value in dB whose noise variance is positive and finite."""
    try:
        return ChannelSpec.from_ebn0_db(float(arg))
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"{arg!r} is not an Eb/N0 value in dB") from None


def _channels(arg: str) -> list[ChannelSpec]:
    return [_channel(v) for v in arg.split(",")]


def _out_stream(args):
    """The --out file, or stdout (left open on exit) when --out is not given."""
    return open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)


def _write_json(args, doc: dict) -> None:
    with _out_stream(args) as fh:
        json.dump(doc, fh, indent=2)
    if not args.out:
        print()


def cmd_gen(args) -> int:
    x = _build_constellation(args)
    if args.format == "csv":
        save_points_csv(x, args.out or sys.stdout)
    else:
        save(x, args.out or sys.stdout)
        if not args.out:
            print()
    return 0


def cmd_family(args) -> int:
    with _bad_input():
        family = skew_family(args.k)
    t = math.radians(args.t_deg) if args.t_deg is not None else args.t
    q = rotation_at(family, t)
    if args.format == "json":
        doc = {
            "k": args.k,
            "t_rad": t,
            "t_deg": math.degrees(t),
            "matrix": q.entries.tolist(),
            "note": "the transpose convention of this 4D family is used by "
                    "DVB-NGH rotated constellations",
            "provenance": _provenance(args),
        }
        _write_json(args, doc)
    else:
        save_rotation_csv(q, args.out or sys.stdout)
    return 0


def cmd_metrics(args) -> int:
    x = _build_constellation(args)
    report = compute_report(x, args.channel, radii=tuple(args.radius or (2.0, math.inf)))
    if args.format == "json":
        doc = report.to_jsonable()
        doc["provenance"] = _provenance(args)
        _write_json(args, doc)
    else:
        with _out_stream(args) as fh:
            w = csv.writer(fh)
            w.writerow(["radius", "local_cutoff_rate", "diversity_order",
                        "min_product_distance", "min_product_distance_norm"])
            for r in report.radii:
                w.writerow([r, f"{report.local_cutoff_rate[r]:.12g}", report.diversity[r],
                            f"{report.min_product[r]:.12g}",
                            f"{report.min_product_normalized[r]:.12g}"])
    return 0


def cmd_opt_rotation(args) -> int:
    x = _build_constellation(args)
    ch = args.channel
    if args.mode == "grid":
        k = _family_exponent(x.n)
        step_deg = _PAPER_STEP_DEG if args.grid_step_deg is None else args.grid_step_deg
        res = grid_search_t(x, ch, grid_step=math.radians(step_deg),
                            keep_profile=args.profile is not None)
        q = rotation_at(skew_family(k), res.t_opt)
        if args.profile:
            with open(args.profile, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t_deg", "R_bits"])
                for t, r in res.profile:
                    w.writerow([f"{math.degrees(t):.10g}", f"{r:.12g}"])
        summary = {"mode": "grid", "t_opt_deg": math.degrees(res.t_opt),
                   "R_bits": res.objective, "grid_step_deg": step_deg,
                   "provenance": _provenance(args)}
    else:
        trace = optimize_rotation_full(x, ch)
        q = trace.final_rotation
        summary = {"mode": "manifold", "R_bits": -trace.final_objective,
                   "iterations": trace.iterates[-1][0], "converged": trace.converged,
                   "reason": trace.reason,
                   "log_rotation": logm_rotation(q).entries.tolist(),
                   "provenance": _provenance(args)}
    if args.out:
        save_rotation_csv(q, args.out)
    json.dump(summary, sys.stdout, indent=2)
    print()
    return 0


def cmd_opt_nuqam(args) -> int:
    res = optimize_nuqam(args.q_bits, args.channel, restarts=args.restarts, seed=args.seed)
    doc = {"q_bits": args.q_bits, "alpha": list(res.alpha.alpha),
           "R_bits": res.objective, "iterations": res.iterations,
           "converged": res.converged, "reason": res.reason,
           "provenance": _provenance(args)}
    _write_json(args, doc)
    return 0


def cmd_sweep(args) -> int:
    x = _build_constellation(args)
    _family_exponent(x.n)  # reject before the CSV header is written
    x_compare = rotate(x, _load_rotation(args.compare, x.n)) if args.compare else None
    with _out_stream(args) as fh:
        w = csv.writer(fh)
        header = ["ebn0_db", "t_opt_deg", "R_bits"]
        if x_compare is not None:
            header.append("delta_R_bits")
        w.writerow(header)
        for ch in args.channels:
            res = grid_search_t(x, ch, grid_step=math.radians(args.grid_step_deg))
            row = [ch.ebn0_db, f"{math.degrees(res.t_opt):.6f}", f"{res.objective:.12g}"]
            if x_compare is not None:
                row.append(f"{res.objective - cutoff_rate(x_compare, ch):.12g}")
            w.writerow(row)
    return 0


def cmd_ber(args) -> int:
    x = _build_constellation(args)
    report = ber_monte_carlo(x, args.channels, min_bits=args.min_bits, seed=args.seed)
    with _out_stream(args) as fh:
        report.to_csv(fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rotcon", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, constellation=True, ebn0="one"):
        sp.add_argument("--out", metavar="PATH")
        if constellation:
            _add_constellation_args(sp)
        if ebn0 == "one":
            sp.add_argument("--ebn0-db", dest="channel", type=_channel, required=True,
                            metavar="DB", help="Eb/N0 in dB")
        elif ebn0 == "list":
            sp.add_argument("--ebn0-db", dest="channels", type=_channels, required=True,
                            metavar="DB,...", help="comma-separated Eb/N0 values in dB")
        return sp

    sp = common(sub.add_parser("gen", help="generate a constellation"), ebn0=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.set_defaults(func=cmd_gen)

    sp = common(sub.add_parser("family", help="emit the family rotation Q(t)"),
                constellation=False, ebn0=None)
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("-k", type=int, required=True, help="dimension exponent, n = 2^k")
    t = sp.add_mutually_exclusive_group(required=True)
    t.add_argument("--t", type=_finite, help="parameter in radians")
    t.add_argument("--t-deg", type=_finite, help="parameter in degrees")
    sp.set_defaults(func=cmd_family)

    sp = common(sub.add_parser("metrics", help="rate/diversity/distance report"))
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    sp.add_argument("--radius", action="append", type=_radius, metavar="R",
                    help="ball radius > 0 (repeatable; 'inf' allowed); default 2 and inf")
    sp.set_defaults(func=cmd_metrics)

    sp = common(sub.add_parser("opt-rotation", help="optimize the rotation; JSON summary"))
    sp.add_argument("--mode", choices=["grid", "manifold"], default="grid")
    sp.add_argument("--grid-step-deg", type=_grid_step_deg,
                    help="grid mode: resolution in degrees, in (0, 45] (default 1e-3 rad)")
    sp.add_argument("--profile", metavar="PATH", help="grid mode: write the (t, R) profile CSV")
    sp.set_defaults(func=cmd_opt_rotation)

    sp = common(sub.add_parser("opt-nuqam", help="optimize non-uniformity parameters; JSON"),
                constellation=False)
    sp.add_argument("--q-bits", type=int, required=True, choices=[4, 6, 8, 10])
    sp.add_argument("--restarts", type=_count_at_least(0), default=0)
    sp.add_argument("--seed", type=_count_at_least(0), default=0, help="restart perturbation seed")
    sp.set_defaults(func=cmd_opt_nuqam)

    sp = common(sub.add_parser("sweep", help="t_opt and R across Eb/N0 values; CSV"),
                ebn0="list")
    sp.add_argument("--grid-step-deg", type=_grid_step_deg, default=_PAPER_STEP_DEG,
                    help="grid resolution in degrees, in (0, 45] (default 1e-3 rad)")
    sp.add_argument("--compare", metavar="CSV", help="rotation to compare against")
    sp.set_defaults(func=cmd_sweep)

    sp = common(sub.add_parser("ber", help="Monte Carlo bit error rate; CSV"), ebn0="list")
    sp.add_argument("--min-bits", type=_count_at_least(MIN_BITS), default=10**6)
    sp.add_argument("--seed", type=_count_at_least(0), default=0, help="Monte Carlo seed")
    sp.set_defaults(func=cmd_ber)
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "manifold" and (
            args.profile is not None or args.grid_step_deg is not None):
        parser.error("--mode manifold takes neither --profile nor --grid-step-deg")
    args.argv = argv
    try:
        return args.func(args)
    except (InputDataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, FloatingPointError, np.linalg.LinAlgError, MemoryError) as e:
        print(f"numerical failure: {str(e) or type(e).__name__}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
