"""Framework primitives for the ``repro lint`` invariant checkers.

The checkers encode contracts that otherwise live only in docstrings
and property tests (bit-identical engines, read-only mmap views,
leak-free shared memory, exact coefficients, the ``engine=``
threading). Everything here is pure stdlib — ``ast`` for
structure, ``tokenize`` for suppression pragmas — so the linter can
run in any environment the package itself runs in.

Vocabulary:

* :class:`Finding` — one diagnostic: ``path:line: CODE message``;
* :class:`ModuleSource` — a parsed file handed to checkers (source
  text, AST, import-alias table, dotted-name resolution);
* :class:`Checker` — the plugin base class; subclasses declare a
  ``code`` (``RPLxxx``), the path suffixes they apply to, and a
  :meth:`Checker.check` generator over a module;
* :func:`suppressed_lines` — the ``# repro-lint: ignore[RPLxxx]``
  pragma map the runner uses to drop findings.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass

__all__ = [
    "Checker",
    "Finding",
    "ModuleSource",
    "match_path",
    "suppressed_lines",
]

#: Inline suppression pragma: ``# repro-lint: ignore[RPL001]`` (codes
#: may be comma-separated). The pragma silences the listed codes on the
#: physical line it sits on.
PRAGMA_RE = re.compile(r"#\s*repro-lint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")

#: Shape every rule code must have (``RPL`` + digits).
CODE_RE = re.compile(r"^RPL\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, anchored to a source line.

    * ``path`` — the file, as the lint invocation named it;
    * ``line`` — 1-based physical line;
    * ``code`` — the rule (``RPL001`` ... ``RPL100``);
    * ``message`` — what contract is broken and how to fix it.
    """

    path: str
    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.message}"

    def to_dict(self) -> dict:
        """A JSON-ready mapping (the ``--format json`` row shape)."""
        return {
            "path": self.path,
            "line": self.line,
            "code": self.code,
            "message": self.message,
        }

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.code)


def _norm(path: str) -> str:
    """``path`` with forward slashes (so suffix matching is portable)."""
    return str(path).replace("\\", "/")


def match_path(path: str, suffix: str) -> bool:
    """Does ``path`` end with ``suffix`` on a path-segment boundary?

    ``core/batch.py`` matches ``src/repro/core/batch.py`` but not
    ``src/repro/core/megabatch.py`` — the character before the suffix
    must be a separator (or the suffix must be the whole path).

    >>> match_path("src/repro/core/batch.py", "core/batch.py")
    True
    >>> match_path("src/repro/core/megabatch.py", "batch.py")
    False
    """
    path = _norm(path)
    suffix = _norm(suffix)
    if path == suffix:
        return True
    if suffix.endswith("/"):
        # Directory suffix: any file under a .../<suffix> directory.
        return f"/{suffix}" in f"/{path}"
    return path.endswith(f"/{suffix}")


def suppressed_lines(text: str) -> dict:
    """``{line: frozenset(codes)}`` of the file's suppression pragmas.

    Comments are located with :mod:`tokenize` so pragma-looking text
    inside string literals never suppresses anything; on tokenize
    failure (the file will separately fail to parse) the map is empty.
    """
    suppressions = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            matched = PRAGMA_RE.search(token.string)
            if not matched:
                continue
            codes = frozenset(
                code.strip().upper()
                for code in matched.group(1).split(",")
                if code.strip()
            )
            line = token.start[0]
            suppressions[line] = suppressions.get(line, frozenset()) | codes
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return {}
    return suppressions


class ModuleSource:
    """One source file, parsed once and shared by every checker.

    Besides the AST, carries the module's import-alias table so
    checkers can resolve dotted names robustly: ``np.power`` and
    ``numpy.power`` both resolve to ``numpy.power``, and a local
    variable that merely *shadows* ``random`` resolves to nothing.
    """

    def __init__(self, path: str, text: str):
        self.path = _norm(path)
        self.text = text
        self._tree = None
        self._aliases = None

    @property
    def tree(self) -> ast.Module:
        """The parsed AST (cached; :class:`SyntaxError` propagates)."""
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=self.path)
        return self._tree

    @property
    def aliases(self) -> dict:
        """``{local_name: dotted_origin}`` over every import statement.

        ``import numpy as np`` maps ``np -> numpy``; ``from
        multiprocessing import shared_memory`` maps ``shared_memory ->
        multiprocessing.shared_memory``; ``from random import randint``
        maps ``randint -> random.randint``. Relative imports keep their
        trailing module path (the leading package is unknown from a
        single file and never matters to the checkers).
        """
        if self._aliases is None:
            aliases = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for name in node.names:
                        local = name.asname or name.name.split(".")[0]
                        origin = name.name if name.asname else local
                        aliases[local] = origin
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    for name in node.names:
                        if name.name == "*":
                            continue
                        local = name.asname or name.name
                        origin = f"{base}.{name.name}" if base else name.name
                        aliases[local] = origin
            self._aliases = aliases
        return self._aliases

    def resolve(self, node: ast.AST) -> str:
        """The dotted origin of a Name/Attribute chain, or ``""``.

        Only chains rooted at an *imported* name resolve — attribute
        chains on locals or ``self`` yield ``""`` so checkers never
        misfire on coincidental attribute names.
        """
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return ""
        origin = self.aliases.get(node.id)
        if origin is None:
            return ""
        parts.append(origin)
        return ".".join(reversed(parts))


class Checker:
    """Base class every RPL rule subclasses.

    Class attributes declare the rule:

    * ``code`` — the ``RPLxxx`` identifier (unique, validated by the
      registry);
    * ``name`` — a short slug for listings;
    * ``description`` — one line: the contract being enforced;
    * ``paths`` — path suffixes the rule applies to (empty = every
      file); ``exclude_paths`` — suffixes exempted even when matched.

    Subclasses implement :meth:`check` as a generator of
    :class:`Finding` over one :class:`ModuleSource`.
    """

    code = ""
    name = ""
    description = ""
    paths: tuple = ()
    exclude_paths: tuple = ()

    def applies_to(self, path: str) -> bool:
        """Should this rule run on ``path``? (Suffix-matched.)"""
        if any(match_path(path, suffix) for suffix in self.exclude_paths):
            return False
        if not self.paths:
            return True
        return any(match_path(path, suffix) for suffix in self.paths)

    def check(self, module: ModuleSource):
        """Yield :class:`Finding` objects for ``module``."""
        raise NotImplementedError

    def finding(self, module: ModuleSource, node, message: str) -> Finding:
        """A :class:`Finding` at ``node`` (an AST node or a line int)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(module.path, line, self.code, message)
