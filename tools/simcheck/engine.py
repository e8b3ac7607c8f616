"""simcheck core: file model, pragma handling, rule driver.

A :class:`Project` is the set of parsed Python files one invocation
covers. Rules (see :mod:`simcheck.rules`) implement two hooks:

* ``check_file(ctx)`` — per-file AST pass, yields :class:`Violation`;
* ``finalize(project)`` — cross-file pass run once after every file
  was visited (used by SIM005, which must pair accessors in ``src``
  with references in ``tests``).

Suppression pragmas, modeled on pylint's:

* ``# simcheck: disable=SIM001,SIM003`` on a line suppresses those
  codes for violations reported *on that line*;
* ``# simcheck: disable`` (no codes) suppresses every code on the line;
* ``# simcheck: disable-file=SIM006`` anywhere in a file suppresses
  the code for the whole file.

Suppressed violations are counted (``FileReport.suppressed``) so the
text report can surface how much is being waved through.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from simcheck.rules import Rule

__all__ = [
    "Violation",
    "FileContext",
    "FileReport",
    "Project",
    "check_paths",
]

_PRAGMA_RE = re.compile(
    r"#\s*simcheck:\s*(?P<kind>disable(?:-file)?)\s*(?:=\s*(?P<codes>[A-Z0-9,\s]+))?"
)

_CODE_RE = re.compile(r"^SIM\d{3}$")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, addressable as ``path:line:col: code message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class _Pragmas:
    """Parsed suppression pragmas of one file, with use tracking.

    Every suppression records which pragma fired so that
    ``--strict-pragmas`` can flag the ones that no longer suppress
    anything (stale pragmas, reported as SIM000).
    """

    #: line number -> codes disabled on that line (empty set == all)
    by_line: dict[int, set[str]] = field(default_factory=dict)
    #: codes disabled for the entire file (empty set member "" == all)
    file_wide: set[str] = field(default_factory=set)
    all_file_wide: bool = False
    #: declaration line of each file-wide code / the bare disable-file
    file_wide_lines: dict[str, int] = field(default_factory=dict)
    all_file_wide_line: int = 0
    # -- use tracking (filled during a run) --
    used_lines: set[int] = field(default_factory=set)
    used_file_codes: set[str] = field(default_factory=set)
    file_wide_uses: int = 0

    def suppresses(self, violation: Violation) -> bool:
        if self.all_file_wide:
            self.file_wide_uses += 1
            return True
        if violation.code in self.file_wide:
            self.used_file_codes.add(violation.code)
            return True
        codes = self.by_line.get(violation.line)
        if codes is None:
            return False
        if not codes or violation.code in codes:
            self.used_lines.add(violation.line)
            return True
        return False

    def stale(self) -> list[tuple[int, str]]:
        """``(line, description)`` for every pragma that suppressed
        nothing in this run."""
        out: list[tuple[int, str]] = []
        for line, codes in self.by_line.items():
            if line not in self.used_lines:
                what = ",".join(sorted(codes)) if codes else "all codes"
                out.append((line, f"disable={what}"))
        for code in self.file_wide:
            if code not in self.used_file_codes:
                out.append(
                    (self.file_wide_lines.get(code, 1), f"disable-file={code}")
                )
        if self.all_file_wide and self.file_wide_uses == 0:
            out.append((self.all_file_wide_line or 1, "disable-file"))
        return sorted(out)


def _parse_pragmas(source: str, path: str) -> _Pragmas:
    """Collect pragmas from the token stream (comments only, so pragma
    text inside string literals never suppresses anything)."""
    pragmas = _Pragmas()
    lines = source.splitlines(keepends=True)
    reader = iter(lines)
    try:
        tokens = list(tokenize.generate_tokens(lambda: next(reader, "")))
    except tokenize.TokenError:  # pragma: no cover - unparsable file
        return pragmas
    for tok in tokens:
        if tok.type is not tokenize.COMMENT:
            continue
        match = _PRAGMA_RE.search(tok.string)
        if not match:
            continue
        raw = match.group("codes")
        codes = (
            {c.strip() for c in raw.split(",") if c.strip()} if raw else set()
        )
        bad = {c for c in codes if not _CODE_RE.match(c)}
        if bad:
            raise ValueError(
                f"{path}:{tok.start[0]}: malformed simcheck pragma codes {sorted(bad)}"
            )
        if match.group("kind") == "disable-file":
            if codes:
                pragmas.file_wide |= codes
                for code in codes:
                    pragmas.file_wide_lines.setdefault(code, tok.start[0])
            else:
                pragmas.all_file_wide = True
                if not pragmas.all_file_wide_line:
                    pragmas.all_file_wide_line = tok.start[0]
        else:
            pragmas.by_line.setdefault(tok.start[0], set()).update(codes)
            if not codes:
                pragmas.by_line[tok.start[0]] = set()
    return pragmas


class FileContext:
    """Everything a rule needs to know about one parsed file."""

    def __init__(self, path: Path, rel_path: str, source: str) -> None:
        self.path = path
        #: POSIX-style path relative to the invocation root, used both
        #: for reporting and for the rules' allow-lists
        self.rel_path = rel_path
        self.source = source
        self.tree = ast.parse(source, filename=rel_path)
        self.pragmas = _parse_pragmas(source, rel_path)

    @property
    def is_test(self) -> bool:
        parts = Path(self.rel_path).parts
        return "tests" in parts or Path(self.rel_path).name.startswith("test_")

    def in_module(self, *suffixes: str) -> bool:
        """True when this file is one of the named allow-listed modules
        (matched on path suffix, so absolute and relative roots agree)."""
        return any(self.rel_path.endswith(suffix) for suffix in suffixes)

    def violation(self, node: ast.AST, code: str, message: str) -> Violation:
        return Violation(
            path=self.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=code,
            message=message,
        )


@dataclass
class FileReport:
    """Per-file outcome: surviving violations + suppression count."""

    rel_path: str
    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0


class Project:
    """The parsed file set of one simcheck run."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.files = list(files)
        self._symbols = None
        self._callgraph = None

    @property
    def test_files(self) -> list[FileContext]:
        return [f for f in self.files if f.is_test]

    @property
    def src_files(self) -> list[FileContext]:
        return [f for f in self.files if not f.is_test]

    @property
    def has_tests(self) -> bool:
        return bool(self.test_files)

    @property
    def symbols(self):
        """Lazily built project-wide symbol table (flow rules only pay
        for it when a cross-file rule is active)."""
        if self._symbols is None:
            from simcheck.symbols import SymbolTable

            self._symbols = SymbolTable.build(self.files)
        return self._symbols

    @property
    def callgraph(self):
        """Lazily built conservative may-call graph."""
        if self._callgraph is None:
            from simcheck.callgraph import CallGraph

            self._callgraph = CallGraph(self.symbols)
        return self._callgraph


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a Python file or directory: {path}")


def check_paths(
    paths: Sequence[str | Path],
    rules: Optional[Sequence["Rule"]] = None,
    root: Optional[Path] = None,
    strict_pragmas: bool = False,
) -> tuple[list[FileReport], list[Violation]]:
    """Run *rules* over every ``.py`` file under *paths*.

    Returns ``(reports, violations)``: per-file reports (in scan order)
    and the flat, sorted list of surviving violations. Cross-file rule
    output (no single home file) is appended to the file it points at
    when that file was scanned, else to a synthetic report.

    With *strict_pragmas*, every suppression pragma that suppressed
    nothing this run is reported as a SIM000 violation — stale
    suppressions hide future regressions and must be pruned.
    """
    from simcheck.rules import ALL_RULES

    active = list(rules) if rules is not None else [cls() for cls in ALL_RULES]
    root = root if root is not None else Path.cwd()

    contexts: list[FileContext] = []
    for file_path in _iter_python_files([Path(p) for p in paths]):
        try:
            rel = file_path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = file_path.as_posix()
        contexts.append(FileContext(file_path, rel, file_path.read_text()))
    project = Project(contexts)
    reports = {ctx.rel_path: FileReport(ctx.rel_path) for ctx in contexts}

    def _file(rel_path: str) -> FileReport:
        return reports.setdefault(rel_path, FileReport(rel_path))

    def _record(ctx: Optional[FileContext], violation: Violation) -> None:
        report = _file(violation.path)
        if ctx is not None and ctx.pragmas.suppresses(violation):
            report.suppressed += 1
        else:
            report.violations.append(violation)

    by_path = {ctx.rel_path: ctx for ctx in contexts}
    for ctx in contexts:
        for rule in active:
            for violation in rule.check_file(ctx):
                _record(ctx, violation)
    for rule in active:
        for violation in rule.finalize(project):
            _record(by_path.get(violation.path), violation)

    if strict_pragmas:
        for ctx in contexts:
            for line, what in ctx.pragmas.stale():
                # SIM000 is itself never suppressible: a pragma that
                # only suppresses its own staleness report is the
                # degenerate case the flag exists to kill
                _file(ctx.rel_path).violations.append(
                    Violation(
                        path=ctx.rel_path,
                        line=line,
                        col=1,
                        code="SIM000",
                        message=f"stale pragma ({what}) suppresses "
                        "nothing — remove it",
                    )
                )

    ordered = [reports[ctx.rel_path] for ctx in contexts]
    ordered += [r for p, r in sorted(reports.items()) if p not in by_path]
    return ordered, sorted(v for r in ordered for v in r.violations)
