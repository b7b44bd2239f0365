"""The one campaign CLI: run a registered campaign, gate it, exit.

    PYTHONPATH=src python -m repro.chaos --campaign NAME [--seed 7]
        [--size small] [--out report.json]

``NAME`` is any key of :data:`repro.chaos.campaigns.CAMPAIGNS` (see
``--help``).  The canonical report is written (default name per
campaign) and the exit code is non-zero on any invariant violation,
unreconverged fault, or failed campaign gate.  The seed fully determines
the campaign, so a red CI run replays locally with the same flags.
"""

from __future__ import annotations

import argparse
import sys

from .campaigns import CAMPAIGNS, DEFAULT_CAMPAIGN, SIZES, run_and_gate


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Run one seeded campaign and apply its gates.")
    parser.add_argument("--campaign", choices=sorted(CAMPAIGNS),
                        default=DEFAULT_CAMPAIGN,
                        help=f"which campaign (default {DEFAULT_CAMPAIGN})")
    parser.add_argument("--seed", type=int, default=7,
                        help="topology + chaos seed (default 7)")
    parser.add_argument("--size", choices=SIZES, default=SIZES[0],
                        help="full scale, or the small determinism-test "
                             "shape for the campaigns that have one")
    parser.add_argument("--out", default=None,
                        help="report path (default: the campaign's own "
                             "file name in the current directory)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.size not in CAMPAIGNS[args.campaign].sizes:
        sized = sorted(name for name, campaign in CAMPAIGNS.items()
                       if args.size in campaign.sizes)
        parser.error(f"--size {args.size} is only accepted by --campaign "
                     f"{', '.join(sized)}")
    return run_and_gate(args.campaign, args.seed, args.size, args.out)


if __name__ == "__main__":
    sys.exit(main())
