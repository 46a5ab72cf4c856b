"""Command-line entry points for the Monte Carlo harness.

Subcommands: ``fig1`` (success vs measurements), ``fig2`` (messages and
iterations vs network scale; the iteration view is the table's
``*_mean_iterations`` columns), ``trial`` (one verbose run) and ``cost``
(closed-form message counts).  Values for the swept variable accept
``start:stop:step`` or comma lists.  An optional ``--config`` file holds
``key=value`` lines with the same names as the flags; explicit flags win
over the file, the file wins over defaults.
"""

import argparse
import sys

from .costs import ALGORITHMS, CostParams, cost_table1
from .errors import DcspError
from .network import topology_from_listing
from .experiments import (
    ExperimentConfig,
    default_l_grid,
    default_m_grid,
    run_fig1,
    run_fig2,
    run_single_trial,
)
from .problems import ProblemConfig


def parse_values(text):
    """Sweep values from 'start:stop:step' (stop inclusive) or 'a,b,c'."""
    text = str(text)
    if ":" in text:
        parts = [int(p) for p in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise ValueError(f"bad range {text!r}")
        if step < 1 or stop < start:
            raise ValueError(f"bad range {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(p) for p in text.split(","))


def read_config_file(path):
    """Parse a key=value config file; '#' starts a comment."""
    options = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            options[key] = value
    return options


_INT_KEYS = {"N", "M", "K", "L", "g", "trials", "seed", "jobs", "T", "max_iters"}


def _settle(args, defaults, sweep_key=None):
    """Merge defaults, config-file entries and explicit flags."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            # the swept key keeps its range text for parse_values below
            merged[key] = int(value) if key in _INT_KEYS - {sweep_key} else value
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if sweep_key is not None and not isinstance(merged[sweep_key], tuple):
        merged[sweep_key] = parse_values(merged[sweep_key])
    if isinstance(merged.get("algorithms"), str):
        merged["algorithms"] = tuple(
            a.strip() for a in merged["algorithms"].split(",") if a.strip()
        )
    return merged


def _add_common(sub, with_jobs=True):
    sub.add_argument("--N", type=int, help="ambient dimension")
    sub.add_argument("--K", type=int, help="sparsity")
    sub.add_argument("--g", type=int, help="neighborhood size")
    sub.add_argument("--seed", type=int, help="base seed")
    sub.add_argument("--config", help="key=value config file")
    if with_jobs:
        sub.add_argument("--trials", type=int, help="trials per sweep point")
        sub.add_argument("--jobs", type=int, help="parallel worker count")
        sub.add_argument("--out", help="output path stem (.csv/.dat added)")
        sub.add_argument(
            "--algorithms", type=str, help="comma list of simulated algorithms"
        )


def _figure_defaults(sweep):
    common = dict(N=200, K=10, g=3, seed=1, jobs=1, out=None, algorithms=("ssp", "dcsp"))
    if sweep == "M":
        return dict(common, M=default_m_grid(), L=6, trials=500)
    return dict(common, L=default_l_grid(), M=50, trials=100)


def _run_figure(args):
    sweep = "M" if args.command == "fig1" else "L"
    merged = _settle(args, _figure_defaults(sweep), sweep_key=sweep)
    config = ExperimentConfig(sweep=sweep, values=merged.pop(sweep), **merged)
    rows = (run_fig1 if sweep == "M" else run_fig2)(config)
    _print_rows(config, rows)
    if config.out:
        print(f"wrote {config.out}.csv and {config.out}.dat")
    return 0


def _print_rows(config, rows):
    for row in rows:
        parts = [f"{config.sweep}={row.value}"]
        for name, s in row.stats.items():
            parts.append(
                f"{name}: success={s.success_rate:.3f} iters={s.mean_iterations:.2f} "
                f"messages={s.mean_messages:.1f}"
            )
        print("  ".join(parts))


def _cmd_trial(args):
    defaults = dict(N=200, M=50, K=10, L=6, g=None, seed=1, max_iters=None, topology=None)
    merged = _settle(args, defaults)
    config = ProblemConfig(
        N=merged["N"], M=merged["M"], K=merged["K"], L=merged["L"], seed=merged["seed"]
    )
    topology = None
    if merged["topology"] is not None:
        topology = topology_from_listing(merged["topology"])
    trial = run_single_trial(
        config,
        args.algorithm,
        g=merged["g"],
        topology=topology,
        max_iters=merged["max_iters"],
    )
    return 0 if trial.success or not args.expect_success else 1


def _cmd_cost(args):
    defaults = dict(N=200, M=50, K=10, L=6, g=3, seed=0, T=None)
    merged = _settle(args, defaults)
    params = CostParams(
        N=merged["N"], K=merged["K"], L=merged["L"], g=merged["g"], T=merged["T"]
    )
    names = ALGORITHMS if args.algorithm == "all" else (args.algorithm,)
    table = [(name, cost_table1(name, params)) for name in names]
    for name, value in table:
        print(f"{name}: {value}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcsp",
        description="Monte Carlo harness for decentralized joint support recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("fig1", help="success frequency vs measurements per node")
    p1.add_argument("--M", type=str, help="swept M values, e.g. 22:50:2 or 26,30")
    p1.add_argument("--L", type=int, help="node count")
    _add_common(p1)
    p1.set_defaults(func=_run_figure)

    p2 = sub.add_parser(
        "fig2", help="transmitted messages and iterations vs network scale"
    )
    p2.add_argument("--L", type=str, help="swept L values, e.g. 5:40:5")
    p2.add_argument("--M", type=int, help="measurements per node")
    _add_common(p2)
    p2.set_defaults(func=_run_figure)

    pt = sub.add_parser("trial", help="run one seeded trial with a transcript")
    pt.add_argument("--algorithm", choices=("ssp", "dcsp"), default="dcsp")
    pt.add_argument("--M", type=int, help="measurements per node")
    pt.add_argument("--L", type=int, help="node count")
    pt.add_argument("--max-iters", dest="max_iters", type=int)
    pt.add_argument(
        "--topology",
        help="explicit adjacency listing, per-node groups like '1,3;2,3;1,3'",
    )
    pt.add_argument(
        "--expect-success",
        action="store_true",
        help="exit nonzero if the trial does not recover the support",
    )
    _add_common(pt, with_jobs=False)
    pt.set_defaults(func=_cmd_trial)

    pc = sub.add_parser("cost", help="closed-form message counts")
    pc.add_argument(
        "--algorithm", default="all", choices=ALGORITHMS + ("all",)
    )
    pc.add_argument("--M", type=int, help=argparse.SUPPRESS)
    pc.add_argument("--L", type=int, help="node count")
    pc.add_argument("--T", type=int, help="iteration count for T-dependent rows")
    _add_common(pc, with_jobs=False)
    pc.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DcspError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
