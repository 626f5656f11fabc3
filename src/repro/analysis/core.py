"""Visitor core: one AST walk per file, shared by every checker.

The framework half of :mod:`repro.analysis`.  A :class:`Checker`
declares the node types it cares about (:attr:`Checker.interests`);
the :class:`Analyzer` parses each file once, builds a
:class:`FileContext` (source lines, import aliases, nested-function
names), walks the tree once, and dispatches each node to every
subscribed checker.  Checkers call :meth:`FileContext.report` to emit
findings; the analyzer then applies ``# repro: noqa[...]``
suppressions and rule selection, and returns an
:class:`AnalysisResult` with deterministic ordering.

Adding a rule means subclassing :class:`Checker` and listing it in
:data:`repro.analysis.checkers.ALL_CHECKERS` — the core never needs
to change.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .config import AnalysisConfig
from .findings import Finding, Severity

#: Rule code reserved for files the analyzer cannot parse.
PARSE_ERROR_RULE = "REP000"

#: Rule code for suppression comments whose rule no longer fires.
UNUSED_NOQA_RULE = "REP008"

#: ``# repro: noqa`` / ``# repro: noqa[REP001,REP004]`` with an
#: optional ``-- reason`` tail.  Matched against the comment on the
#: physical source line a finding points at.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Z0-9,\s]+)\])?"
    r"(?:\s*--\s*(?P<reason>.*))?",
)


def _noqa_match(comment: str) -> Optional["re.Match"]:
    """The suppression directive in ``comment``, or ``None``.

    A directive must run to the end of the comment: bare, bracketed,
    or trailed by a ``-- reason``.  Prose that merely *mentions* the
    syntax (followed by more words) is not a directive — it neither
    suppresses nor registers as stale.
    """
    match = _NOQA_RE.search(comment)
    if match is None or comment[match.end():].strip():
        return None
    return match


def dotted_name(node: ast.AST) -> Optional[str]:
    """The ``a.b.c`` form of a Name/Attribute chain, or ``None``.

    Anything that is not a pure attribute chain (calls, subscripts)
    yields ``None`` — checkers only match statically-resolvable
    names.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class FileContext:
    """Everything checkers may need about the file being analyzed.

    Attributes
    ----------
    path:
        Path reported in findings (relative to the analysis root when
        possible, so reports and baselines are machine-independent).
    lines:
        The file's physical source lines (1-indexed via ``line(n)``).
    imports:
        Alias -> canonical dotted module name, from ``import`` /
        ``from .. import`` statements (``import numpy.random as npr``
        maps ``npr`` to ``numpy.random``; ``from time import time``
        maps ``time`` to ``time.time``).
    nested_functions:
        Names of functions defined inside other functions — closure
        candidates for the fork-safety checker.
    """

    def __init__(self, path: str, source: str, tree: ast.AST,
                 config: AnalysisConfig):
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.config = config
        self._comments: Optional[Dict[int, Tuple[int, str]]] = None
        self.findings: List[Finding] = []
        self.imports: Dict[str, str] = {}
        self.nested_functions: Set[str] = set()
        self._index_imports(tree)
        self._index_nested_functions(tree)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- prepass indexes -------------------------------------------

    def _index_imports(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.imports[alias.asname] = alias.name
                    else:
                        head = alias.name.split(".")[0]
                        self.imports[head] = head
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.imports[bound] = f"{node.module}.{alias.name}"

    def _index_nested_functions(self, tree: ast.AST) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for child in ast.walk(node):
                    if child is node:
                        continue
                    if isinstance(child, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
                        self.nested_functions.add(child.name)

    # -- checker services ------------------------------------------

    def line(self, lineno: int) -> str:
        """The physical source line ``lineno`` (1-indexed), or ``""``."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def comments(self) -> Dict[int, Tuple[int, str]]:
        """lineno -> (column, text) of every actual ``#`` comment.

        Tokenized, not regexed: a docstring *describing* a noqa
        comment must neither suppress findings nor register as a
        stale suppression.  Falls back to raw lines if the file does
        not tokenize (it already parsed, so this is near-impossible).
        """
        if self._comments is None:
            table: Dict[int, Tuple[int, str]] = {}
            try:
                for tok in tokenize.generate_tokens(
                        io.StringIO(self.source).readline):
                    if tok.type == tokenize.COMMENT:
                        table[tok.start[0]] = (tok.start[1],
                                               tok.string)
            except (tokenize.TokenError, IndentationError,
                    SyntaxError):  # pragma: no cover - file parsed
                table = {n: (0, line)
                         for n, line in enumerate(self.lines, 1)}
            self._comments = table
        return self._comments

    def resolve_call(self, node: ast.Call) -> Optional[str]:
        """The canonical dotted name a call resolves to, or ``None``.

        Import aliases are expanded through one level: with
        ``import numpy as np``, ``np.random.default_rng(...)``
        resolves to ``numpy.random.default_rng``; with
        ``from time import time``, ``time()`` resolves to
        ``time.time``.
        """
        name = dotted_name(node.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is not None:
            return f"{target}.{rest}" if rest else target
        return name

    def enclosing_scope(self, node: ast.AST) -> ast.AST:
        """The nearest enclosing function scope of ``node`` (or the
        module)."""
        current = self._parents.get(node)
        while current is not None:
            if isinstance(current, (ast.FunctionDef,
                                    ast.AsyncFunctionDef, ast.Module)):
                return current
            current = self._parents.get(current)
        return self.tree

    def report(self, node: ast.AST, rule: str, severity: Severity,
               message: str) -> None:
        """Emit one finding anchored at ``node``."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        self.findings.append(Finding(
            path=self.path, line=lineno, column=col, rule=rule,
            severity=severity, message=message,
            source=self.line(lineno),
        ))


class Checker:
    """Base class for one REP0xx rule.

    Subclasses set :attr:`rule`, :attr:`name`, :attr:`description`,
    :attr:`severity` and :attr:`interests` (the AST node classes to
    receive), and implement :meth:`visit`.  :meth:`begin_file` runs
    once per file before the walk, for per-file state.
    """

    rule: str = ""
    name: str = ""
    description: str = ""
    severity: Severity = Severity.ERROR
    interests: Tuple[type, ...] = ()

    def begin_file(self, ctx: FileContext) -> None:
        """Reset any per-file state (default: nothing)."""

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class UnusedNoqa:
    """One ``# repro: noqa`` comment that silences nothing.

    ``codes`` are the listed rule codes that never fired on the line
    (or are unknown); ``kept`` the listed codes that still earn their
    keep.  A bare (unbracketed) stale suppression has both empty.
    ``--fix-unused-noqa`` uses these to rewrite or drop the comment.
    ``path`` is the display path (relative to the analysis root);
    ``file``, when set, is the real filesystem path the rewriter
    opens.
    """

    path: str
    line: int
    column: int
    codes: Tuple[str, ...]
    kept: Tuple[str, ...]
    file: Optional[str] = None


@dataclass
class AnalysisResult:
    """Outcome of one analysis run.

    ``findings`` are the live (unsuppressed, selected, unbaselined)
    violations in deterministic order; ``suppressed`` counts findings
    silenced by ``noqa`` comments, ``baselined`` those absorbed by a
    baseline file.
    """

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    baselined: int = 0
    #: The findings silenced by noqa comments (audit trail: this
    #: repo's own tests assert every one carries a reason).
    suppressions: List[Finding] = field(default_factory=list)
    #: Stale suppression comments (REP008), for ``--fix-unused-noqa``.
    unused_noqa: List[UnusedNoqa] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


class Analyzer:
    """Runs a checker suite over files, one AST walk per file."""

    def __init__(self, checkers: Sequence[Checker],
                 config: Optional[AnalysisConfig] = None):
        self.config = config or AnalysisConfig()
        all_codes = [c.rule for c in checkers]
        selected = self.config.selected_rules(all_codes)
        self.checkers = [c for c in checkers if c.rule in selected]
        self._known_rules = set(all_codes) | {PARSE_ERROR_RULE}
        self._armed_rules = {c.rule for c in self.checkers}
        #: Bare ``# repro: noqa`` staleness is only decidable when
        #: every rule is armed (a disarmed rule might be what it
        #: silences).
        self._all_armed = self._armed_rules >= set(all_codes)
        self._by_interest: Dict[type, List[Checker]] = {}
        for checker in self.checkers:
            for node_type in checker.interests:
                self._by_interest.setdefault(node_type, []) \
                    .append(checker)
        self._last_suppressions: List[Finding] = []
        self._last_unused: List[UnusedNoqa] = []

    # -- single file -----------------------------------------------

    def analyze_source(self, source: str,
                       path: str = "<memory>") -> List[Finding]:
        """All live findings for one source text (noqa applied).

        ``path`` places the source in the package: the protocol rules
        judge a call by the module it sits in (``dist/spool.py``).
        """
        self._last_suppressions = []
        self._last_unused = []
        try:
            tree = ast.parse(source)
        except SyntaxError as exc:
            return [Finding(
                path=path, line=exc.lineno or 1,
                column=(exc.offset or 0) + 1 or 1,
                rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
                message=f"file does not parse: {exc.msg}",
            )]
        ctx = FileContext(path, source, tree, self.config)
        for checker in self.checkers:
            checker.begin_file(ctx)
        for node in ast.walk(tree):
            for checker in self._by_interest.get(type(node), ()):
                checker.visit(node, ctx)
        live, suppressed = _apply_suppressions(ctx)
        if UNUSED_NOQA_RULE in self._armed_rules:
            unused = _find_unused_noqa(
                ctx, suppressed, self._armed_rules,
                self._known_rules, self._all_armed,
            )
            self._last_unused = unused
            live.extend(_unused_noqa_findings(ctx, unused))
        self._last_suppressions = sorted(
            suppressed, key=lambda f: f.sort_key
        )
        return sorted(live, key=lambda f: f.sort_key)

    # -- trees of files --------------------------------------------

    def analyze_paths(self, paths: Iterable[Path],
                      root: Optional[Path] = None) -> AnalysisResult:
        """Analyze files and directories; returns the merged result.

        Directories are walked recursively for ``*.py`` in sorted
        order.  Paths are reported relative to ``root`` (default: the
        current directory) when possible.
        """
        result = AnalysisResult()
        root = Path(root) if root is not None else Path(".")
        for file in _collect_files(paths, self.config):
            try:
                source = file.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                result.findings.append(Finding(
                    path=_display(file, root), line=1, column=1,
                    rule=PARSE_ERROR_RULE, severity=Severity.ERROR,
                    message=f"cannot read file: {exc}",
                ))
                result.files += 1
                continue
            findings = self.analyze_source(source, _display(file, root))
            result.files += 1
            result.suppressed += len(self._last_suppressions)
            result.suppressions.extend(self._last_suppressions)
            result.unused_noqa.extend(
                replace(entry, file=str(file))
                for entry in self._last_unused
            )
            result.findings.extend(findings)
        result.findings.sort(key=lambda f: f.sort_key)
        return result


def _display(file: Path, root: Path) -> str:
    """``file`` relative to ``root`` when possible, POSIX-style."""
    try:
        return file.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return file.as_posix()


def _collect_files(paths: Iterable[Path],
                   config: AnalysisConfig) -> List[Path]:
    """The sorted, deduplicated, exclusion-filtered file list.

    Sorted traversal is load-bearing: the report (and therefore the
    JSON output and baseline) must not depend on directory-entry
    order.
    """
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    seen: Set[Path] = set()
    unique: List[Path] = []
    for file in files:
        key = file.resolve()
        if key in seen or config.excludes(file):
            continue
        seen.add(key)
        unique.append(file)
    return unique


def _apply_suppressions(ctx: FileContext):
    """Split raw findings into (live, suppressed) per noqa comments.

    A suppression comment on the finding's anchor line silences it:
    ``# repro: noqa`` silences every rule, ``# repro: noqa[REP001]``
    only the listed ones.  An optional ``-- reason`` tail documents
    why; it is encouraged (and asserted on in this repo's own tree)
    but not enforced here.
    """
    live: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in ctx.findings:
        _, comment = ctx.comments.get(finding.line, (0, ""))
        match = _noqa_match(comment)
        if match and _covers(match, finding.rule):
            suppressed.append(finding)
        else:
            live.append(finding)
    return live, suppressed


def _covers(match: "re.Match", rule: str) -> bool:
    rules = match.group("rules")
    if rules is None:
        return True
    wanted = {r.strip() for r in rules.split(",") if r.strip()}
    return rule in wanted


def _find_unused_noqa(ctx: FileContext, suppressed: List[Finding],
                      armed: Set[str], known: Set[str],
                      all_armed: bool) -> List[UnusedNoqa]:
    """Suppression comments in ``ctx`` that silence nothing.

    A listed code is stale when it is unknown (typo'd), or armed this
    run yet suppressed no finding on its line.  Codes that are known
    but disarmed are left alone — this run cannot tell.  A bare
    ``# repro: noqa`` is only judged when every rule is armed, for
    the same reason.
    """
    by_line: Dict[int, Set[str]] = {}
    for finding in suppressed:
        by_line.setdefault(finding.line, set()).add(finding.rule)
    out: List[UnusedNoqa] = []
    for lineno in sorted(ctx.comments):
        col, comment = ctx.comments[lineno]
        match = _noqa_match(comment)
        if match is None:
            continue
        fired = by_line.get(lineno, set())
        listed_raw = match.group("rules")
        column = col + match.start() + 1
        if listed_raw is None:
            if not fired and all_armed:
                out.append(UnusedNoqa(
                    path=ctx.path, line=lineno, column=column,
                    codes=(), kept=(),
                ))
            continue
        listed = [r.strip() for r in listed_raw.split(",")
                  if r.strip()]
        stale = tuple(
            code for code in listed
            if code not in known
            or (code in armed and code not in fired)
        )
        if stale:
            kept = tuple(c for c in listed if c not in stale)
            out.append(UnusedNoqa(
                path=ctx.path, line=lineno, column=column,
                codes=stale, kept=kept,
            ))
    return out


def _unused_noqa_findings(ctx: FileContext,
                          unused: List[UnusedNoqa]) -> List[Finding]:
    """REP008 findings for stale suppressions.  These are emitted
    *after* the suppression pass and deliberately cannot themselves
    be noqa'd — a stale comment must be removed, not silenced."""
    findings = []
    for entry in unused:
        if entry.codes:
            what = ", ".join(entry.codes)
            message = (f"suppression for {what} no longer fires on "
                       "this line; remove it (or run "
                       "--fix-unused-noqa)")
        else:
            message = ("bare 'repro: noqa' suppresses nothing on "
                       "this line; remove it (or run "
                       "--fix-unused-noqa)")
        findings.append(Finding(
            path=entry.path, line=entry.line, column=entry.column,
            rule=UNUSED_NOQA_RULE, severity=Severity.WARNING,
            message=message, source=ctx.line(entry.line),
        ))
    return findings


def fix_unused_noqa(entries: Iterable[UnusedNoqa]) -> Tuple[int, int]:
    """Rewrite files in place to drop or trim stale suppressions.

    ``entries`` come from :attr:`AnalysisResult.unused_noqa`.  A
    fully stale directive (nothing kept) is cut from its line; a
    partially stale one is rebuilt around the surviving codes, with
    any ``-- reason`` tail preserved.  Line numbers never shift — a
    comment-only line is left blank, not deleted — so every entry's
    anchor stays valid throughout.  Returns ``(comments rewritten,
    files touched)``; entries whose file has drifted since analysis
    (the directive is no longer at the recorded column) are skipped.
    """
    by_path: Dict[str, List[UnusedNoqa]] = {}
    for entry in entries:
        by_path.setdefault(entry.file or entry.path, []).append(entry)
    rewritten = 0
    touched = 0
    for path in sorted(by_path):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:
            continue
        lines = text.splitlines(keepends=True)
        changed = False
        for entry in by_path[path]:
            i = entry.line - 1
            if i >= len(lines):
                continue
            line = lines[i]
            start = entry.column - 1
            match = _NOQA_RE.search(line[start:])
            if match is None or match.start() != 0:
                continue
            body = line.rstrip("\r\n")
            eol = line[len(body):]
            if entry.kept:
                rebuilt = f"# repro: noqa[{','.join(entry.kept)}]"
                reason = match.group("reason")
                if reason and reason.strip():
                    rebuilt += f" -- {reason.strip()}"
                lines[i] = body[:start] + rebuilt + eol
            else:
                lines[i] = body[:start].rstrip() + eol
            changed = True
            rewritten += 1
        if changed:
            Path(path).write_text("".join(lines), encoding="utf-8")
            touched += 1
    return rewritten, touched
