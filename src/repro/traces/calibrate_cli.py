"""``repro-calibrate`` — fit generator calibrations to a real archive.

Examples::

    repro-calibrate --segments segments/ --out calibrations.json
    repro-calibrate --csv history.csv --out calibrations.json
    repro-calibrate --segments segments/ --grid-step 600

The fitted JSON plugs into trace generation through
:func:`repro.traces.refit.load_calibrations` +
:func:`repro.traces.catalog.build_catalog`'s ``calibrations`` argument.
See ``docs/DATA.md`` for the full refit pipeline walkthrough.
"""

from __future__ import annotations

import argparse
import tempfile
from typing import List, Optional

from repro.analysis.tables import Table
from repro.errors import ConfigurationError, cli_main
from repro.traces.ingest import ingest_archive, load_segment_catalog
from repro.traces.refit import fit_catalog, save_calibrations

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-calibrate",
        description="Fit regime-switching generator parameters to spot-price history.",
    )
    p.add_argument("--segments", metavar="DIR", default=None,
                   help="ingested segment directory to fit (from repro.traces.ingest)")
    p.add_argument("--csv", metavar="PATH", nargs="+", default=None,
                   help="AWS-format CSV/gzip archive(s); ingested to a "
                   "temporary segment directory before fitting")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the fitted calibration set as JSON to PATH")
    p.add_argument("--grid-step", type=float, default=300.0, metavar="S",
                   help="resampling grid (seconds) for the correlation-share fit")
    return p


def _render(calibrations) -> str:
    t = Table(
        headers=("region", "size", "od $", "calm frac", "sigma",
                 "exc/hr", "sharp/hr", "reg share", "glob share"),
        title=f"fitted calibrations ({len(calibrations)} market(s))",
    )
    for key in sorted(calibrations):
        cal = calibrations[key]
        t.add_row(
            cal.region, cal.size, cal.on_demand,
            round(cal.calm_base_frac, 3), round(cal.calm_sigma, 3),
            round(cal.expected_excursion_rate(), 4),
            round(cal.sharp_spikes.rate_per_hour, 4),
            round(cal.regional_shock_share, 3),
            round(cal.global_shock_share, 3),
        )
    return t.render()


@cli_main
def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if (args.segments is None) == (args.csv is None):
        raise ConfigurationError("pass exactly one of --segments DIR or --csv PATH")
    if args.segments is not None:
        catalog = load_segment_catalog(args.segments)
        calibrations = fit_catalog(catalog, grid_step_s=args.grid_step)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-calibrate-") as tmp:
            ingest_archive(args.csv, tmp)
            catalog = load_segment_catalog(tmp)
            calibrations = fit_catalog(catalog, grid_step_s=args.grid_step)
    print(_render(calibrations))
    if args.out is not None:
        save_calibrations(args.out, calibrations)
        print(f"\ncalibrations written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
