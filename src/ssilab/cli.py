"""Command-line front end: config in, report.json and CSV tables out.

Exit codes: 0 success, 2 config error (an unreadable config or unwritable
outputs among them), 3 numerical divergence, 4 a command verdict came back FAIL.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

from .config import COMMANDS, resolve_config
from .errors import ConfigError, IntegrationDivergedError, InvalidArgumentError
from .experiments import run_command

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERDICT = 4


@functools.cache  # built on the first main call, then reused
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssilab",
        description="Noise-space inversion laboratory for diffusion flows "
                    "with exact analytic score oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=pathlib.Path, default=None,
                       help="JSON config file")
        p.add_argument("--out", type=pathlib.Path, default=None,
                       help="output directory for report.json and CSVs")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the summary line")
    return parser


def _load_config(args) -> dict:
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(args.config.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except ValueError as exc:  # bad JSON, or bytes that are not text
            raise ConfigError(f"config is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    return resolve_config(args.command, raw)


def write_outputs(report: dict, out_dir: pathlib.Path) -> None:
    """Write report.json plus one CSV per table, tagged with version + hash."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = f"# ssilab {report['version']} config={report['config_sha256'][:12]}\n"
    slim = {k: v for k, v in report.items() if k != "csv"}
    (out_dir / "report.json").write_text(json.dumps(slim, indent=2) + "\n")
    for name, table in report["csv"].items():
        lines = [stamp, ",".join(table["columns"]) + "\n"]
        for row in table["rows"]:
            lines.append(",".join(str(v) for v in row) + "\n")
        (out_dir / f"{name}.csv").write_text("".join(lines))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = args.out
        if out is not None and out.exists() and not out.is_dir():  # fail before the run
            raise ConfigError(f"cannot write outputs: {out} exists and is not a directory")
        report = run_command(cfg)
        if out is not None:
            try:
                write_outputs(report, out)
            except OSError as exc:  # what only the write finds, such as permissions
                raise ConfigError(f"cannot write outputs: {exc}")
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationDivergedError as exc:
        print(exc, file=sys.stderr)
        return EXIT_DIVERGED
    if not args.quiet:
        verdict = report["verdict"] if report["verdict"] is not None else "n/a"
        print(f"{cfg['command']}: verdict={verdict} "
              f"wall={report['wall_clock_seconds']:.2f}s")
    if report["verdict"] == "FAIL":
        return EXIT_VERDICT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
