"""Command-line interface.

Exit codes: 0 success, 1 configuration error, 2 no contraction,
3 iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .exceptions import BudgetExceededError, ConfigError, NoContractionError
from .config import load_config
from .models import SEASON_PATTERNS
from . import reporting


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors -> exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(sub, variant=True):
    sub.add_argument("--config", required=True, help="scenario config file (YAML)")
    sub.add_argument("--out", required=True, help="output directory for CSV artifacts")
    sub.add_argument("--nodes", type=int, default=None, help="override grid subintervals")
    sub.add_argument("--tol", type=float, default=None, help="override tolerance")
    if variant:
        sub.add_argument("--variant", choices=tuple(SEASON_PATTERNS), default=None,
                         help="override seasonal support variant")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="idepull", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    _add_common(subs.add_parser("simulate", help="forward orbit from the initial state"))
    _add_common(subs.add_parser("attractor", help="certified pullback attractor fibers"))
    _add_common(subs.add_parser("compare", help="rank the four seasonal support variants"),
                variant=False)
    _add_common(subs.add_parser("semilinear", help="semilinear demo pullback fibers"),
                variant=False)
    _add_common(subs.add_parser("lipschitz", help="step-constant table and budget"))
    _add_common(subs.add_parser("convergence", help="node-refinement study"))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        tol = getattr(args, "tol", None)
        variant = getattr(args, "variant", None)
        if args.command == "simulate":
            report = reporting.run_simulation(cfg, args.out, nodes=args.nodes, variant=variant)
            print(f"simulated {report.steps} steps (variant {report.variant}, "
                  f"n={report.nodes}); final total population {report.totals[-1]:.6g}")
        elif args.command == "attractor":
            report = reporting.run_attractor(cfg, args.out, nodes=args.nodes,
                                             tol=tol, variant=variant)
            print(f"variant {report.variant}: factor {report.contraction_factor:.6g}, "
                  f"{report.total_steps} certified steps, certified error "
                  f"{report.certified_error:.3g}, mean total population "
                  f"{report.mean_total_population:.6f}")
        elif args.command == "compare":
            comparison = reporting.compare_inhomogeneities(cfg, args.out,
                                                           nodes=args.nodes, tol=tol)
            for v, mean in zip(comparison.variants, comparison.means):
                marker = "  <- best" if v == comparison.best else ""
                print(f"{v}: mean total population {mean:.6f}{marker}")
        elif args.command == "semilinear":
            report = reporting.run_semilinear(cfg, args.out)
            print(f"semilinear demo: dim {report.dimension}, period {report.theta}, "
                  f"factor {report.contraction_factor:.6g}, settled after "
                  f"{report.periods} periods (tail bound {report.tail_bound:.3g})")
        elif args.command == "lipschitz":
            summary = reporting.lipschitz_report(cfg, args.out, nodes=args.nodes,
                                                 variant=variant)
            print(f"window contraction factor {summary['contraction_factor']:.10g} "
                  f"(valid: {summary['valid']})")
            if summary["valid"]:
                print(f"distance bound {summary['distance_bound']:.6g}, "
                      f"windows {summary['windows']}, total steps {summary['total_steps']}")
        elif args.command == "convergence":
            rows = reporting.run_convergence(cfg, args.out, nodes=args.nodes,
                                             tol=tol, variant=variant)
            for row in rows:
                print(f"n={row['nodes']}: mean total population "
                      f"{row['mean_total_population']:.6f} "
                      f"(delta {row['delta_vs_previous']:.3g})")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except NoContractionError as exc:
        print(f"no contraction: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    return 0


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
