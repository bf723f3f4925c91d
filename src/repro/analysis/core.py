"""The analysis framework: rules, module model, suppressions, runners.

Everything here is stdlib-only (``ast`` + ``re``), so the lint lane
needs no third-party installs and the framework can lint a tree that
does not import.

A :class:`Rule` sees one :class:`ModuleInfo` at a time — the parsed
tree plus repo-aware *scopes* derived from the file's path (``service``
for ``repro/service/``, ``hot-path`` for the selection loops, ``graph``
for the adjacency engines).  Fixture files outside the repo layout can
opt into scopes explicitly with a marker comment near the top::

    # repro-lint: scope=hot-path,service

Findings land on a line; a trailing ``# repro-lint: disable=RULE --
reason`` comment on that line silences them.  The reason is mandatory.
"""

from __future__ import annotations

import ast
import io
import json
import os
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "ModuleInfo",
    "Rule",
    "all_rules",
    "main",
    "register",
    "render_json",
    "render_text",
    "run_paths",
]

#: Matches suppression comments: the ``repro-lint:`` marker followed by
#: ``disable=<rules>`` and a ``-- reason`` tail (reason optional at
#: parse time; its absence becomes a ``suppression-format`` finding).
_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([\w,-]+)(?:\s*--\s*(.*\S))?\s*$"
)
_SCOPE_RE = re.compile(r"#\s*repro-lint:\s*scope=([\w,-]+)")

#: Directory/file heuristics mapping repo paths to scopes.  Matched on
#: the posix-normalised path suffix so absolute and relative inputs
#: agree.
_SCOPE_PATTERNS: Tuple[Tuple[str, str], ...] = (
    ("repro/service/", "service"),
    ("repro/graph/", "graph"),
    ("repro/graph/", "hot-path"),
    ("repro/core/greedy.py", "hot-path"),
    ("repro/core/zoom.py", "hot-path"),
    ("repro/core/basic.py", "hot-path"),
    ("repro/core/_kernel.py", "hot-path"),
    # Streaming/dynamic maintenance loops run under request deadlines
    # just like the static heuristics.
    ("repro/core/extensions/", "hot-path"),
    ("repro/live/", "hot-path"),
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class _Suppression:
    rules: Set[str]
    reason: Optional[str]
    line: int
    used: bool = False


@dataclass
class ModuleInfo:
    """One parsed source file plus its lint metadata."""

    path: str
    source: str
    tree: ast.Module
    scopes: Set[str]
    suppressions: Dict[int, _Suppression] = field(default_factory=dict)

    @property
    def lines(self) -> List[str]:
        return self.source.splitlines()

    def in_scope(self, scope: str) -> bool:
        return scope in self.scopes


class Rule:
    """Base class: subclasses set ``name``/``description`` and yield
    :class:`Finding` objects from :meth:`check`."""

    name: str = ""
    description: str = ""

    def check(self, module: ModuleInfo) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.name,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls):
    """Class decorator adding one rule instance to the registry."""
    instance = rule_cls()
    if not instance.name:
        raise ValueError(f"{rule_cls.__name__} has no rule name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {instance.name!r}")
    _REGISTRY[instance.name] = instance
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    """The registered rules, name -> instance (registration order)."""
    return dict(_REGISTRY)


# ----------------------------------------------------------------------
# Module loading
# ----------------------------------------------------------------------
def _path_scopes(path: str) -> Set[str]:
    posix = path.replace(os.sep, "/")
    scopes = {"all"}
    for pattern, scope in _SCOPE_PATTERNS:
        if pattern.endswith("/"):
            if pattern in posix:
                scopes.add(scope)
        elif posix.endswith(pattern):
            scopes.add(scope)
    return scopes


def _comment_tokens(source: str) -> List[Tuple[int, str]]:
    """``(line, text)`` for every real comment token (docstrings that
    merely *mention* the lint syntax must not act as directives)."""
    out: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                out.append((token.start[0], token.string))
    except tokenize.TokenizeError:  # pragma: no cover - ast.parse catches first
        pass
    return out


def _parse_suppressions(comments: List[Tuple[int, str]]) -> Dict[int, _Suppression]:
    out: Dict[int, _Suppression] = {}
    for lineno, text in comments:
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = {name.strip() for name in match.group(1).split(",") if name.strip()}
        out[lineno] = _Suppression(rules=rules, reason=match.group(2), line=lineno)
    return out


def load_module(path: str) -> Optional[ModuleInfo]:
    """Parse one file into a :class:`ModuleInfo` (None for non-python)."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    scopes = _path_scopes(path)
    comments = _comment_tokens(source)
    for lineno, text in comments:
        if lineno > 30:
            break
        marker = _SCOPE_RE.search(text)
        if marker is not None:
            scopes.update(s.strip() for s in marker.group(1).split(",") if s.strip())
    return ModuleInfo(
        path=path,
        source=source,
        tree=tree,
        scopes=scopes,
        suppressions=_parse_suppressions(comments),
    )


def _iter_python_files(paths: Sequence[str]) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                files.extend(
                    os.path.join(root, name)
                    for name in sorted(names)
                    if name.endswith(".py")
                )
        elif path.endswith(".py"):
            files.append(path)
    return files


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint ``paths`` (files or directories) with the selected rules.

    Suppressed findings are dropped; suppressions without a reason, or
    naming an unknown rule, are reported as ``suppression-format``
    findings so the "every suppression carries a reason" contract is
    enforced by the tool itself.
    """
    registry = all_rules()
    if rules:
        unknown = sorted(set(rules) - set(registry))
        if unknown:
            raise ValueError(f"unknown rule(s): {', '.join(unknown)}")
        selected = [registry[name] for name in rules]
    else:
        selected = list(registry.values())
    known_names = set(registry)

    findings: List[Finding] = []
    for path in _iter_python_files(paths):
        try:
            module = load_module(path)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    rule="parse-error",
                    path=path,
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        raw: List[Finding] = []
        for rule in selected:
            raw.extend(rule.check(module))
        for finding in raw:
            suppression = module.suppressions.get(finding.line)
            if suppression is not None and finding.rule in suppression.rules:
                suppression.used = True
                continue
            findings.append(finding)
        for suppression in module.suppressions.values():
            if not suppression.reason:
                findings.append(
                    Finding(
                        rule="suppression-format",
                        path=path,
                        line=suppression.line,
                        col=0,
                        message=(
                            "suppression must carry a reason: "
                            "# repro-lint: disable=RULE -- why"
                        ),
                    )
                )
            bogus = suppression.rules - known_names
            if bogus:
                findings.append(
                    Finding(
                        rule="suppression-format",
                        path=path,
                        line=suppression.line,
                        col=0,
                        message=f"unknown rule(s) in suppression: {', '.join(sorted(bogus))}",
                    )
                )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_text(findings: Sequence[Finding]) -> str:
    if not findings:
        return "repro-lint: clean (0 findings)"
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule}: {f.message}" for f in findings
    ]
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    summary = ", ".join(f"{name}={count}" for name, count in sorted(by_rule.items()))
    lines.append(f"repro-lint: {len(findings)} finding(s) ({summary})")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    by_rule: Dict[str, int] = {}
    for f in findings:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    return json.dumps(
        {
            "version": 1,
            "findings": [f.to_dict() for f in findings],
            "counts": by_rule,
            "total": len(findings),
        },
        indent=2,
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# Entry point (shared by ``repro lint`` and ``python -m repro.analysis``)
# ----------------------------------------------------------------------
def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Repo-aware static analysis over the DisC tree.",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    # Rules register on package import; direct ``core.main`` callers
    # (python -m repro.analysis goes through __init__) get them too.
    import repro.analysis  # noqa: F401

    if args.list_rules:
        for name, rule in all_rules().items():
            print(f"{name:26s} {rule.description}")
        return 0
    try:
        findings = run_paths(args.paths, rules=args.rules)
    except ValueError as exc:
        print(f"repro-lint: {exc}")
        return 2
    print(render_json(findings) if args.fmt == "json" else render_text(findings))
    return 1 if findings else 0
