"""Command-line interface.

Exit codes: 0 success, 1 configuration, usage or output error, 2 no
contraction, 3 iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

from .exceptions import BudgetExceededError, ConfigError, NoContractionError
from .config import load_config
from .models import SEASON_PATTERNS
from . import reporting


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors -> exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _checked(convert, ok, expected):
    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


_FLAGS = {
    "nodes": dict(type=_checked(int, lambda v: v >= 1, "an integer >= 1"),
                  help="override grid subintervals"),
    "tol": dict(dest="tolerance", type=_checked(float, lambda v: math.isfinite(v) and v > 0,
                                                "a finite number > 0"),
                help="override tolerance"),
    "variant": dict(choices=tuple(SEASON_PATTERNS), help="override seasonal support variant"),
}

# subcommand -> (help, the override flags it reads)
_COMMANDS = {
    "simulate": ("forward orbit from the initial state", ("nodes", "variant")),
    "attractor": ("certified pullback attractor fibers", ("nodes", "tol", "variant")),
    "compare": ("rank the four seasonal support variants", ("nodes", "tol")),
    "semilinear": ("semilinear demo pullback fibers", ()),
    "lipschitz": ("step-constant table and budget", ("nodes", "variant")),
    "convergence": ("node-refinement study", ("nodes", "tol", "variant")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="idepull", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", required=True, help="scenario config file (YAML)")
        sub.add_argument("--out", required=True, help="output directory for CSV artifacts")
        for flag in flags:
            sub.add_argument(f"--{flag}", default=None, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        # each override flag's dest names the config field it replaces
        cfg = dataclasses.replace(cfg, **{
            k: v for k in ("nodes", "tolerance", "variant")
            if (v := getattr(args, k, None)) is not None
        })
        # an --out that cannot be a directory fails here, not after the run
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            totals = reporting.run_simulation(cfg, args.out)
            print(f"simulated {cfg.horizon} steps (variant {cfg.variant or 'custom'}, "
                  f"n={cfg.nodes}); final total population {totals[-1]:.6g}")
        elif args.command == "attractor":
            report = reporting.run_attractor(cfg, args.out)
            print(f"variant {report.variant}: factor {report.contraction_factor:.6g}, "
                  f"{report.total_steps} certified steps, certified error "
                  f"{report.certified_error:.3g}, mean total population "
                  f"{report.mean_total_population:.6f}")
        elif args.command == "compare":
            comparison = reporting.compare_inhomogeneities(cfg, args.out)
            for v, mean in zip(comparison.variants, comparison.means):
                marker = "  <- best" if v == comparison.best else ""
                print(f"{v}: mean total population {mean:.6f}{marker}")
        elif args.command == "semilinear":
            fibers, report = reporting.run_semilinear(cfg, args.out)
            print(f"semilinear demo: dim {cfg.semilinear.dimension}, period {len(fibers)}, "
                  f"factor {report.factor:.6g}, settled after "
                  f"{report.periods} periods (tail bound {report.tail_bound:.3g})")
        elif args.command == "lipschitz":
            certificate, budget = reporting.lipschitz_report(cfg, args.out)
            print(f"window contraction factor {certificate.factor:.10g} "
                  f"(valid: {certificate.valid})")
            if budget is not None:
                print(f"distance bound {budget.distance_bound:.6g}, "
                      f"windows {budget.windows}, total steps {budget.total_steps}")
        elif args.command == "convergence":
            rows = reporting.run_convergence(cfg, args.out)
            for row in rows:
                print(f"n={row['nodes']}: mean total population "
                      f"{row['mean_total_population']:.6f} "
                      f"(delta {row['delta_vs_previous']:.3g})")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
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
