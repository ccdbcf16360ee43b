"""Batch verification harness.

``tautsig run`` executes named suites and writes a machine-readable report
(exit 0 if every assertion passed, 1 on the first failure, 2 on bad
input); ``tautsig describe`` prints what a suite asserts and the anchors
it reports against.  Output is deterministic for a fixed configuration.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .suites import SuiteConfig, SuiteError, describe_suite, run_suites

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tautsig",
        description="Run exact and spectral verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run verification suites")
    run_p.add_argument(
        "--suite",
        action="append",
        default=None,
        help="suite name or 'all' (repeatable, or comma separated)",
    )
    run_p.add_argument("--order", type=int, default=SuiteConfig.order,
                       help="series truncation order")
    run_p.add_argument("--cutoff", type=int, default=SuiteConfig.cutoff,
                       help="Fourier cutoff for spectral suites")
    run_p.add_argument("--tol", type=float, default=SuiteConfig.tol,
                       help="kernel/eigenvalue tolerance")
    run_p.add_argument("--grid", type=int, default=SuiteConfig.grid,
                       help="family grid resolution")
    run_p.add_argument("--out", default=None, help="report output path")
    run_p.add_argument("--format", dest="fmt", default="json",
                       choices=["json", "csv", "text"], help="report format")
    run_p.add_argument("--descriptor", default=None,
                       help="bundle or model-space descriptor JSON to check")

    desc_p = sub.add_parser("describe", help="describe a suite")
    desc_p.add_argument("suite", help="suite name")
    return parser


def _render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["suite", "case", "anchor", "ok", "detail"])
    for suite in report["suites"]:
        for case in suite["cases"]:
            writer.writerow(
                [case["suite"], case["case"], case["anchor"],
                 "pass" if case["ok"] else "FAIL", case["detail"]]
            )
    return buf.getvalue()


def _render_text(report: dict) -> str:
    lines = []
    for suite in report["suites"]:
        mark = "ok " if suite["ok"] else "FAIL"
        lines.append(f"[{mark}] suite {suite['name']}")
        for case in suite["cases"]:
            mark = "ok " if case["ok"] else "FAIL"
            detail = f"  ({case['detail']})" if case["detail"] else ""
            lines.append(f"  [{mark}] {case['case']} [{case['anchor']}]{detail}")
    s = report["summary"]
    lines.append(
        f"{s['passed']}/{s['total']} assertions passed, {s['failed']} failed"
    )
    return "\n".join(lines) + "\n"


_RENDERERS = {"json": _render_json, "csv": _render_csv, "text": _render_text}


def _first_failure(report: dict) -> dict | None:
    for suite in report["suites"]:
        for case in suite["cases"]:
            if not case["ok"]:
                return case
    return None


def _cmd_run(args: argparse.Namespace) -> int:
    suites: list[str] = []
    for item in args.suite or ["all"]:
        suites.extend(x.strip() for x in item.split(",") if x.strip())
    config = SuiteConfig(
        suites=suites,
        order=args.order,
        cutoff=args.cutoff,
        tol=args.tol,
        grid=args.grid,
        out=args.out,
        fmt=args.fmt,
        descriptor=args.descriptor,
    )
    try:
        report = run_suites(config)
    except (SuiteError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rendered = _RENDERERS[config.fmt](report)
    if config.out:
        try:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        print(f"report written to {config.out}")
    else:
        sys.stdout.write(rendered)
    if not report["ok"]:
        failure = _first_failure(report)
        print("first failing certificate:", file=sys.stderr)
        print(json.dumps(failure, sort_keys=True, indent=2), file=sys.stderr)
        return EXIT_ASSERTION
    return EXIT_OK


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        print(describe_suite(args.suite))
    except SuiteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_describe(args)


if __name__ == "__main__":
    sys.exit(main())
