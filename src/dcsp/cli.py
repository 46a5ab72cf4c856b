"""Command-line entry points for the Monte Carlo harness.

Subcommands: ``fig1`` (success vs measurements), ``fig2`` (messages and
iterations vs network scale; the iteration view is the table's
``*_mean_iterations`` columns), ``trial`` (one verbose run of
:func:`~dcsp.pursuit.run_batch` on one draw) and ``cost`` (closed-form
message counts).  Each flag maps onto a field of the library call it
feeds; a figure flag left unset takes the default of
:class:`~dcsp.experiments.ExperimentConfig`.
"""

import argparse
import sys

from . import experiments
from .costs import ALGORITHMS, CostParams, cost_table1
from .experiments import FIGURES, ExperimentConfig
from .network import ring_topology, topology_from_listing
from .problems import ProblemConfig, generate, success
from .pursuit import SIMULATED_ALGORITHMS, _run_limits, run_batch


class _BadValues(ValueError, argparse.ArgumentTypeError):
    """A sweep value list that does not parse; argparse reports its text
    under the flag."""


def parse_values(text):
    """Sweep values from 'start:stop:step' (stop inclusive) or 'a,b,c'."""
    text = str(text)
    try:
        parts = [int(p) for p in text.split(":" if ":" in text else ",")]
    except ValueError:
        raise _BadValues(f"bad values {text!r}: need integers as "
                         "start:stop[:step] or a,b,c") from None
    if ":" not in text:
        return tuple(parts)
    if len(parts) == 2:
        parts.append(1)
    if len(parts) != 3 or parts[2] < 1 or parts[1] < parts[0]:
        raise _BadValues(f"bad range {text!r}")
    start, stop, step = parts
    return tuple(range(start, stop + 1, step))


def _names(text):
    """Algorithm names from a comma list."""
    return tuple(a.strip() for a in text.split(",") if a.strip())


_HELP = dict(
    N="ambient dimension", M="measurements per node", K="sparsity", L="node count",
    g="neighborhood size", seed="base seed", trials="trials per sweep point",
    jobs="parallel worker count", T="iteration count for T-dependent rows",
)


# the default problem, read once from its one home, ExperimentConfig; an
# unset g means full collaboration to trial, and this g to cost's g rows
_DEFAULT_PROBLEM = {name: getattr(ExperimentConfig, name) for name in ("N", "M", "K", "L", "seed")}
_DEFAULT_G = ExperimentConfig.g


def _add_ints(sub, names, **defaults):
    for name in names.split():
        sub.add_argument(f"--{name}", type=int, default=defaults.get(name), help=_HELP[name])


def _run_figure(args):
    options = {
        key: value for key, value in vars(args).items()
        if value is not None and key not in ("command", "func")
    }
    config = ExperimentConfig(**options)
    # through the module, so that a patched experiments.run_sweep is the one run
    rows = experiments.run_sweep(config)
    for row in rows:
        parts = [f"{config.sweep}={row.value}"]
        for name, s in row.stats.items():
            parts.append(
                f"{name}: success={s.success_rate:.3f} iters={s.mean_iterations:.2f} "
                f"messages={s.mean_messages:.1f}"
            )
        print("  ".join(parts))
    if config.out:
        print(f"wrote {config.out}.csv and {config.out}.dat")
    return 0


def _cmd_trial(args):
    config = ProblemConfig(N=args.N, M=args.M, K=args.K, L=args.L, seed=args.seed)
    g = config.L if args.g is None else args.g  # an unset g is full collaboration
    # built and checked for ssp too, which collaborates fully and reads only L
    topology = (ring_topology(config.L, g) if args.topology is None
                else topology_from_listing(args.topology))
    algorithms = (args.algorithm,)
    _run_limits(config, algorithms, topology, args.max_iters)  # before the draw
    instance = generate(config)
    run = run_batch(algorithms, [instance], topology, args.max_iters)[args.algorithm][0]
    ok = success(run.support, instance)
    drawn = instance.config
    shape = (f"g={drawn.L}" if args.algorithm == "ssp" else
             f"g={g}" if args.topology is None else "topology=explicit")
    print(
        f"trial: algorithm={args.algorithm} N={drawn.N} M={drawn.M} K={drawn.K} "
        f"L={drawn.L} {shape} seed={drawn.seed}"
    )
    print(f"true support: {instance.true_support.tolist()}")
    for t, (sup, energy) in enumerate(zip(run.support_trace, run.residual_trace)):
        line = f"t={t}: support={sup.tolist()} residual_energy={energy:.6e}"
        if t >= 1:
            line += f" candidate_sizes={run.candidate_sizes[t - 1]}"
        print(line)
    if run.hit_max_iters:
        print(f"stop: iteration cap reached after t={run.iterations}")
    else:
        print(f"stop: no improvement at t={run.iterations}, reverted")
    wire, per_label = run.wire, {}
    for label, kind, scalars in wire.rounds:
        per_label[label] = per_label.get(label, 0) + scalars
    for label, scalars in per_label.items():
        print(f"wire[{label}]: {scalars}")
    print(f"wire total: {wire.total} (neighbor={wire.neighbor_scalars}, "
          f"broadcast={wire.broadcast_scalars})")
    print(f"recovered support: {run.support.tolist()}")
    print(f"success: {ok}")
    return 0 if ok or not args.expect_success else 1


def _cmd_cost(args):
    # g takes its default only for the rows that read it, dcomp and dcsp
    g = _DEFAULT_G if args.g is None and args.algorithm in ("all", "dcomp", "dcsp") else args.g
    params = CostParams(N=args.N, K=args.K, L=args.L, g=g, T=args.T)
    names = ALGORITHMS if args.algorithm == "all" else (args.algorithm,)
    # every row before the first print, so that a rejected table prints none
    print("\n".join(f"{name}: {cost_table1(name, params)}" for name in names))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dcsp",
        description="Monte Carlo harness for decentralized joint support recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for sweep, figure in FIGURES.items():
        p = sub.add_parser(figure.name, help=figure.about)
        grid = figure.grid
        p.add_argument(
            f"--{sweep}", dest="values", metavar=sweep, type=parse_values, default=grid,
            help=f"swept {sweep} values, e.g. {grid[0]}:{grid[-1]}:{grid[1] - grid[0]}",
        )
        _add_ints(p, f"{figure.fixed} N K g seed trials jobs", trials=figure.trials)
        p.add_argument("--out", help="output path stem (.csv/.dat added)")
        p.add_argument("--algorithms", type=_names, help="comma list of simulated algorithms")
        p.set_defaults(func=_run_figure, sweep=sweep)

    pt = sub.add_parser("trial", help="run one seeded trial with a transcript")
    pt.add_argument("--algorithm", choices=SIMULATED_ALGORITHMS, default="dcsp")
    _add_ints(pt, "N M K L seed", **_DEFAULT_PROBLEM)
    pt.add_argument("--max-iters", dest="max_iters", type=int)
    network = pt.add_mutually_exclusive_group()
    network.add_argument("--g", type=int, help="dcsp's ring neighborhood size (default L, full "
                         "collaboration); ssp collaborates fully, reading only L")
    network.add_argument("--topology", help="dcsp's explicit adjacency listing, per-node groups "
                         "like '1,3;2,3;1,3' (an empty group is the node alone; a trailing ';' "
                         "is ignored); ssp collaborates fully, reading only L")
    pt.add_argument(
        "--expect-success",
        action="store_true",
        help="exit nonzero if the trial does not recover the support",
    )
    pt.set_defaults(func=_cmd_trial)

    pc = sub.add_parser("cost", help="closed-form message counts")
    pc.add_argument("--algorithm", default="all", choices=ALGORITHMS + ("all",))
    _add_ints(pc, "N K L g T", **_DEFAULT_PROBLEM)
    pc.set_defaults(func=_cmd_cost)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error or help
        return exc.code
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
