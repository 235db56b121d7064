"""Command-line static model verifier.

Usage::

    python -m repro.verify MODEL.py [MODEL2.py::Name ...]
                           [--json] [--output FILE] [--strict]
                           [--select TDF ELN003 ...] [--ignore ...]
                           [--list-rules] [--quiet]

Each target is a Python file, optionally suffixed with ``::NAME`` to
pick one object from it: a module-level :class:`~repro.core.Module` /
:class:`~repro.eln.Network` / :class:`~repro.sdf.SdfGraph` instance, a
zero-argument factory function, or a zero-argument-constructible
class.  Without ``::NAME`` the file is scanned for all verifiable
objects it defines (instances, ``build*`` factories, and Module
subclasses defined in the file that construct without arguments).

Exit status: 0 when every report is clean of errors (and of warnings
under ``--strict``), 1 when findings gate, 2 on usage/load failures.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import List, Optional, Tuple

from ..core.module import Module
from ..core.resolve import ResolutionError, load_module_from_path
from ..eln.network import Network
from ..sdf.graph import SdfGraph
from .diagnostics import SCHEMA_VERSION, VerificationReport
from .engine import verify
from .registry import all_rules, ruleset_version

_VERIFIABLE = (Module, Network, SdfGraph)


class TargetError(SystemExit):
    """Usage/load failure; carries exit status 2."""

    def __init__(self, message: str):
        super().__init__(2)
        self.message = message


def _load_file(path: Path):
    try:
        return load_module_from_path(
            path, module_name=f"repro_verify_target_{path.stem}")
    except ResolutionError as exc:
        raise TargetError(str(exc)) from exc


def _instantiate(obj, label: str):
    """Turn a named object into something verifiable."""
    if isinstance(obj, _VERIFIABLE):
        return obj
    if inspect.isclass(obj) or callable(obj):
        try:
            built = obj()
        except Exception as exc:
            raise TargetError(
                f"{label} could not be constructed without "
                f"arguments: {type(exc).__name__}: {exc}")
        if isinstance(built, _VERIFIABLE):
            return built
        raise TargetError(
            f"{label}() returned {type(built).__name__}; expected a "
            f"Module, Network, or SdfGraph")
    raise TargetError(
        f"{label} is {type(obj).__name__}; expected a Module, "
        f"Network, SdfGraph, or a zero-argument factory")


def _zero_arg_constructible(cls) -> bool:
    try:
        signature = inspect.signature(cls)
    except (TypeError, ValueError):
        return False
    return all(
        p.default is not inspect.Parameter.empty
        or p.kind in (inspect.Parameter.VAR_POSITIONAL,
                      inspect.Parameter.VAR_KEYWORD)
        for p in signature.parameters.values()
    )


def _discover(module, path: Path) -> List[Tuple[str, object]]:
    """All verifiable objects a file defines, conservatively:
    module-level instances; Module subclasses defined *in this file*
    that construct with no arguments; ``build*`` factories."""
    found: List[Tuple[str, object]] = []
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_"):
            continue
        label = f"{path}::{attr}"
        if isinstance(value, _VERIFIABLE):
            found.append((label, value))
        elif (inspect.isclass(value)
              and issubclass(value, Module)
              and value.__module__ == module.__name__
              and _zero_arg_constructible(value)):
            try:
                found.append((label, value()))
            except Exception:
                pass  # not actually default-constructible; skip
        elif (inspect.isfunction(value)
              and attr.startswith("build")
              and value.__module__ == module.__name__
              and _zero_arg_constructible(value)):
            try:
                built = value()
            except Exception:
                continue
            if isinstance(built, _VERIFIABLE):
                found.append((label, built))
    if not found:
        raise TargetError(
            f"{path} defines no verifiable objects; name one "
            f"explicitly as {path}::NAME")
    return found


def resolve_targets(spec: str) -> List[Tuple[str, object]]:
    """``path.py[::NAME]`` -> [(label, verifiable object), ...]."""
    if "::" in spec:
        file_part, name = spec.split("::", 1)
        module = _load_file(Path(file_part))
        if not hasattr(module, name):
            raise TargetError(f"{file_part} defines no {name!r}")
        label = f"{file_part}::{name}"
        return [(label, _instantiate(getattr(module, name), label))]
    path = Path(spec)
    return _discover(_load_file(path), path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Statically verify models before simulating "
                    "them.")
    parser.add_argument("targets", nargs="*",
                        help="model files, optionally as FILE::NAME")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")
    parser.add_argument("--output", type=Path, default=None,
                        help="also write the JSON report to FILE")
    parser.add_argument("--strict", action="store_true",
                        help="treat warnings as gating (exit 1)")
    parser.add_argument("--select", nargs="*", default=None,
                        metavar="PREFIX",
                        help="only run rules matching these id "
                             "prefixes (e.g. TDF ELN003)")
    parser.add_argument("--ignore", nargs="*", default=None,
                        metavar="PREFIX",
                        help="skip rules matching these id prefixes")
    parser.add_argument("--list-rules", action="store_true",
                        help="list all registered rules and exit")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only print per-target summaries")
    return parser


def _gates(report: VerificationReport, strict: bool) -> bool:
    return bool(report.errors) or (strict and bool(report.warnings))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_obj in all_rules().values():
            print(f"{rule_obj.rule_id}  {rule_obj.severity:<7}  "
                  f"{rule_obj.description}")
        return 0
    if not args.targets:
        build_parser().error("no model files given")

    reports: List[VerificationReport] = []
    try:
        for spec in args.targets:
            for label, obj in resolve_targets(spec):
                report = verify(obj, select=args.select,
                                ignore=args.ignore)
                report.target = label
                reports.append(report)
    except TargetError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return 2

    failed = any(_gates(r, args.strict) for r in reports)
    payload = {
        "schema": SCHEMA_VERSION,
        "ruleset": ruleset_version(),
        "ok": not failed,
        "reports": [r.to_dict() for r in reports],
    }
    if args.output is not None:
        args.output.write_text(json.dumps(payload, indent=2,
                                          sort_keys=True) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            if args.quiet:
                print(report.summary())
            else:
                print(report.format_text())
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
