"""repro-lint core: findings, module model, rule base and the driver.

The engine's scale-out contract -- sharded/sessioned propagation stays
byte-identical to serial propagation -- decomposes into a handful of
source-level invariants (deterministic iteration, fork-safe state
handling, pure work units, picklable fragments, a layered import DAG).
This module is the machinery that checks them: it parses each target
file once, hands the tree to every registered :class:`Rule`, filters
``# repro-lint: disable=...`` suppressions, and aggregates the
surviving :class:`Finding`\\ s into a report the CLI renders as text or
JSON.

The analyzer is deliberately self-contained (stdlib ``ast`` only) and
imports nothing from the engine packages, keeping it at the top of the
layering DAG it enforces.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: Engine packages whose iteration order feeds ordered outputs; the
#: determinism family scopes itself to these by default.
ORDERED_OUTPUT_PACKAGES = frozenset(
    {"sharding", "maintenance", "updates", "views", "obs"}
)


class Finding:
    """One rule violation at one source location."""

    __slots__ = ("rule", "family", "path", "line", "col", "message", "snippet")

    def __init__(
        self,
        rule: str,
        family: str,
        path: str,
        line: int,
        col: int,
        message: str,
        snippet: str = "",
    ):
        self.rule = rule
        self.family = family
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        #: stripped source text of the offending line (fingerprint input).
        self.snippet = snippet

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def fingerprint(self) -> str:
        """Stable identity for baselining: path, rule and line *text*.

        Keyed on the line's stripped text rather than its number so a
        baseline survives unrelated edits above the finding.
        """
        payload = "%s::%s::%s" % (self.path, self.rule, self.snippet)
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "family": self.family,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    def format_text(self) -> str:
        return "%s:%d:%d: %s: %s" % (
            self.path,
            self.line,
            self.col,
            self.rule,
            self.message,
        )

    def __repr__(self) -> str:
        return "Finding(%s)" % self.format_text()


_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*([\w\-*,\s]+)"
)


class Suppressions:
    """Per-line and per-file rule suppressions parsed from comments.

    ``# repro-lint: disable=<rule>[,<rule>...]`` silences the named
    rules (or families, or ``*``) on its own line;
    ``# repro-lint: disable-file=<rule>`` silences them for the whole
    file.  Suppressions are honored by the driver, not the rules, so
    every rule gets them for free.
    """

    def __init__(self, source: str):
        self.by_line: Dict[int, Set[str]] = {}
        self.file_level: Set[str] = set()
        for lineno, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            names = {part.strip() for part in match.group(2).split(",")}
            names.discard("")
            if match.group(1) == "disable-file":
                self.file_level |= names
            else:
                self.by_line.setdefault(lineno, set()).update(names)

    def is_suppressed(self, finding: Finding) -> bool:
        for names in (self.file_level, self.by_line.get(finding.line, ())):
            if not names:
                continue
            if "*" in names or finding.rule in names or finding.family in names:
                return True
        return False


class ModuleInfo:
    """A parsed target file plus the package context rules key on."""

    def __init__(self, path: str, source: str, tree: ast.Module, display_path: str):
        self.path = path
        self.display_path = display_path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.suppressions = Suppressions(source)
        #: dotted parts after the last ``repro`` path component, module
        #: stem last and ``__init__`` dropped -- e.g.
        #: ``src/repro/sharding/session.py`` -> ``("sharding", "session")``.
        #: Files outside a ``repro`` tree get their bare stem.
        self.package = _package_of(path)
        self._parents: Optional[Dict[ast.AST, ast.AST]] = None

    @property
    def top_package(self) -> str:
        return self.package[0] if self.package else ""

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def parent_map(self) -> Dict[ast.AST, ast.AST]:
        """Child -> parent over the whole tree (built once, on demand)."""
        if self._parents is None:
            parents: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
            self._parents = parents
        return self._parents


def _package_of(path: str) -> Tuple[str, ...]:
    parts = list(os.path.normpath(os.path.abspath(path)).split(os.sep))
    stem = parts[-1]
    if stem.endswith(".py"):
        stem = stem[:-3]
    indices = [i for i, part in enumerate(parts) if part == "repro"]
    if not indices:
        return (stem,)
    rel = parts[indices[-1] + 1 : -1]
    if stem != "__init__":
        rel.append(stem)
    return tuple(rel)


class Rule:
    """Base class: one invariant, one stable id, one ``check`` visitor."""

    id: str = ""
    family: str = ""
    description: str = ""
    #: top-level repro packages the rule applies to (None = every file).
    packages: Optional[frozenset] = None

    def applies(self, module: ModuleInfo) -> bool:
        if self.packages is None:
            return True
        return bool(module.package) and module.top_package in self.packages

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            self.id,
            self.family,
            module.display_path,
            line,
            col,
            message,
            snippet=module.line_text(line),
        )


_RULES: Dict[str, Rule] = {}


def register(cls):
    """Class decorator adding a rule (instantiated once) to the registry."""
    rule = cls()
    if not rule.id or not rule.family:
        raise ValueError("rule %r needs a non-empty id and family" % cls)
    if rule.id in _RULES:
        raise ValueError("duplicate rule id %r" % rule.id)
    _RULES[rule.id] = rule
    return cls


def all_rules() -> List[Rule]:
    """Every registered rule, importing the rule modules on first use."""
    from repro.analysis import rules as _rules  # noqa: F401 (registration side effect)

    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


def select_rules(select: Optional[Sequence[str]]) -> List[Rule]:
    rules = all_rules()
    if not select:
        return rules
    wanted = set(select)
    chosen = [r for r in rules if r.id in wanted or r.family in wanted]
    unknown = wanted - {r.id for r in rules} - {r.family for r in rules}
    if unknown:
        raise KeyError("unknown rule(s): %s" % ", ".join(sorted(unknown)))
    return chosen


class AnalysisReport:
    """The outcome of one analyzer run over a set of files."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []
        self.files_checked = 0
        self.suppressed = 0
        self.baselined = 0
        self.errors: List[Finding] = []

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def finalize(self) -> "AnalysisReport":
        self.findings.sort(key=Finding.sort_key)
        self.errors.sort(key=Finding.sort_key)
        return self

    @property
    def exit_code(self) -> int:
        return 1 if (self.findings or self.errors) else 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "files_checked": self.files_checked,
            "findings": [f.as_dict() for f in self.findings],
            "errors": [f.as_dict() for f in self.errors],
            "counts": self.counts_by_rule(),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }


def display_path(path: str) -> str:
    """Posix-style path, relative to the working directory when under it."""
    absolute = os.path.abspath(path)
    cwd = os.getcwd()
    if absolute == cwd or absolute.startswith(cwd + os.sep):
        absolute = absolute[len(cwd) + 1 :] or "."
    return absolute.replace(os.sep, "/")


def load_module(path: str) -> ModuleInfo:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    return ModuleInfo(path, source, tree, display_path(path))


def iter_target_files(paths: Sequence[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for path in paths:
        if os.path.isdir(path):
            for root, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(root, filename)
        else:
            yield path


def analyze_paths(
    paths: Sequence[str], select: Optional[Sequence[str]] = None
) -> AnalysisReport:
    """Run the (selected) rules over every ``.py`` file under ``paths``."""
    rules = select_rules(select)
    report = AnalysisReport()
    for path in iter_target_files(paths):
        try:
            module = load_module(path)
        except (SyntaxError, OSError, UnicodeDecodeError) as exc:
            report.errors.append(
                Finding(
                    "parse-error",
                    "analysis",
                    display_path(path),
                    getattr(exc, "lineno", None) or 1,
                    0,
                    "could not analyze file: %s" % exc,
                )
            )
            continue
        report.files_checked += 1
        for rule in rules:
            if not rule.applies(module):
                continue
            for finding in rule.check(module):
                if module.suppressions.is_suppressed(finding):
                    report.suppressed += 1
                else:
                    report.findings.append(finding)
    return report.finalize()


def default_target() -> str:
    """The repro package root (``src/repro``), wherever it is installed."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
