"""The ``repro-lint`` command line (also ``python -m repro.analysis``).

Exit codes: 0 clean, 1 findings (or unanalyzable files), 2 usage /
bad-baseline errors.  ``--format=json`` emits one stable, sorted JSON
document on stdout -- the CI contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis import baseline as baseline_mod
from repro.analysis import core

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-level checks for the engine's determinism, fork-safety, "
            "picklability, layering and hot-path invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: the installed "
        "repro package tree)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids or families (repeatable, "
        "comma-separable)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="report only findings absent from this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        help="snapshot current findings into FILE and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def _list_rules() -> int:
    for rule in core.all_rules():
        scope = (
            ", ".join(sorted(rule.packages)) if rule.packages else "all packages"
        )
        print("%-28s [%s] (%s)" % (rule.id, rule.family, scope))
        print("    %s" % rule.description)
    return EXIT_CLEAN


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    options = parser.parse_args(argv)
    if options.list_rules:
        return _list_rules()

    select: Optional[List[str]] = None
    if options.select:
        select = [
            part.strip()
            for chunk in options.select
            for part in chunk.split(",")
            if part.strip()
        ]
    paths = options.paths or [core.default_target()]
    try:
        report = core.analyze_paths(paths, select=select)
    except KeyError as exc:
        print("repro-lint: %s" % (exc.args[0],), file=sys.stderr)
        return EXIT_USAGE

    if options.write_baseline:
        count = baseline_mod.write_baseline(options.write_baseline, report.findings)
        print(
            "repro-lint: wrote %d entr%s to %s"
            % (count, "y" if count == 1 else "ies", options.write_baseline),
            file=sys.stderr,
        )
        return EXIT_CLEAN

    stale: List[str] = []
    if options.baseline:
        try:
            fingerprints = baseline_mod.load_baseline(options.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print("repro-lint: %s" % exc, file=sys.stderr)
            return EXIT_USAGE
        new, baselined, stale_set = baseline_mod.split_against_baseline(
            report.findings, fingerprints
        )
        report.findings = new
        report.baselined = len(baselined)
        stale = sorted(stale_set)

    if options.format == "json":
        payload = report.as_dict()
        payload["stale_baseline_entries"] = stale
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for finding in report.errors + report.findings:
            print(finding.format_text())
        summary = "repro-lint: %d file(s), %d finding(s)" % (
            report.files_checked,
            len(report.findings),
        )
        if report.errors:
            summary += ", %d unanalyzable" % len(report.errors)
        if report.suppressed:
            summary += ", %d suppressed" % report.suppressed
        if report.baselined:
            summary += ", %d baselined" % report.baselined
        if stale:
            summary += ", %d stale baseline entr%s (fixed? prune the file)" % (
                len(stale),
                "y" if len(stale) == 1 else "ies",
            )
        print(summary, file=sys.stderr)

    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
