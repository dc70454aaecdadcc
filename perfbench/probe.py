"""Set-up probe: the CLI's work before its first grid point.

Run in a fresh interpreter with the same arguments as a ``minksurf``
invocation.  It imports ``minksurf.cli``, parses the arguments and runs
the subcommand with the CLI's export stage replaced by a stub, so the
patch is built (admissibility checks included) and no grid point is
evaluated.  ``verify`` builds its patches while it evaluates its claims,
so for it the probe stops after parsing.  Exits 0 only if the stage it
stopped before was reached exactly once.
"""

import sys


def main(argv: list[str]) -> int:
    from minksurf import cli

    if not hasattr(cli, "_export"):
        print("probe: minksurf.cli has no _export stage to stop at",
              file=sys.stderr)
        return 3
    reached = []
    cli._export = lambda patch, grid, args, positions_only=False: \
        reached.append(patch)
    args = cli.build_parser().parse_args(argv)
    if args.command == "verify":
        return 0
    rc = args.func(args)
    if rc != 0 or len(reached) != 1:
        print(f"probe: exit {rc}, export stage reached {len(reached)} times",
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
