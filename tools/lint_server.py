"""Static type-discipline gate for the serving hot path (stdlib-only).

The serving stack — supervisor, pool, HTTP front end (``repro.server``),
the one on-disk layout every save, checkpoint, publication and attach
goes through (``repro.core.mmap_layout``, ``repro.core.persist``), the
WAL/checkpoint/recovery subsystem (``repro.durability``), the engine
facade the service calls (``repro.core.engine``) with the parameter
records it builds (``repro.core.config``), the query
walk every read runs (``repro.core.query``) with the deadlines it checks
(``repro.core.deadline``), the base and its representative table it
ranks over (``repro.core.base``) and the registry's bound families and
kernels it runs on every served metric (``repro.distances.registry``), the write
path that grows that base (``repro.stream``, the clustering in
``repro.core.grouping``), the served analytics — the sensitivity
profile that reads its arrays (``repro.core.sensitivity``), the seasonal
miner (``repro.core.seasonal``) and the threshold recommender
(``repro.core.threshold``) — with the E14 classifier beside them
(``repro.analytics.knn``), the bounds of the rank stage (``repro.distances.lower_bounds``,
``repro.distances.envelope``), the DTW kernel under it
(``repro.distances.dtw``, with its compiled twin's loader
``repro.distances.native``) with the transfer bounds built on its paths
(``repro.distances.bounds``) and the payload builders every match
leaves through (``repro.viz.payloads``) — is the code that runs unattended, so it
gets the strictest gate in the repo.  ``mypy``
is not part of the baked toolchain, so this checker enforces the
*strict-mode surface rules* with the stdlib ``ast`` module:

- every function and method is fully annotated (each parameter except
  ``self``/``cls`` and the return type);
- no bare ``except:`` clauses;
- no ``except`` clause that swallows silently (a ``pass``-only handler
  must carry an explanatory comment on the ``pass`` line);
- every module and public class carries a docstring;
- no mutable default arguments (``def f(x=[])``/``{}``/``set()``);
- no wildcard imports.

Run as ``python tools/lint_server.py`` from the repo root (CI does);
exit status 1 lists every violation as ``path:line: message``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGETS = (
    ROOT / "src" / "repro" / "server",
    ROOT / "src" / "repro" / "durability",
    ROOT / "src" / "repro" / "core" / "mmap_layout.py",
    ROOT / "src" / "repro" / "core" / "persist.py",
    ROOT / "src" / "repro" / "core" / "engine.py",
    ROOT / "src" / "repro" / "core" / "config.py",
    ROOT / "src" / "repro" / "core" / "query.py",
    ROOT / "src" / "repro" / "core" / "deadline.py",
    ROOT / "src" / "repro" / "core" / "base.py",
    ROOT / "src" / "repro" / "core" / "grouping.py",
    ROOT / "src" / "repro" / "core" / "sensitivity.py",
    ROOT / "src" / "repro" / "core" / "seasonal.py",
    ROOT / "src" / "repro" / "core" / "threshold.py",
    ROOT / "src" / "repro" / "analytics" / "knn.py",
    ROOT / "src" / "repro" / "stream",
    ROOT / "src" / "repro" / "distances" / "bounds.py",
    ROOT / "src" / "repro" / "distances" / "dtw.py",
    ROOT / "src" / "repro" / "distances" / "native.py",
    ROOT / "src" / "repro" / "distances" / "lower_bounds.py",
    ROOT / "src" / "repro" / "distances" / "envelope.py",
    ROOT / "src" / "repro" / "distances" / "registry.py",
    ROOT / "src" / "repro" / "viz" / "payloads.py",
)

#: Decorators whose functions legitimately drop the return annotation
#: (pytest fixtures do not appear under src/, so this stays tiny).
_ANNOTATION_EXEMPT_DECORATORS: frozenset[str] = frozenset()

_MUTABLE_DEFAULT_CALLS = {"list", "dict", "set"}


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, source: str) -> None:
        self.path = path
        self.source_lines = source.splitlines()
        self.problems: list[tuple[int, str]] = []
        self._class_depth = 0

    # -- helpers ---------------------------------------------------------

    def _flag(self, node: ast.AST, message: str) -> None:
        self.problems.append((getattr(node, "lineno", 0), message))

    def _line(self, node: ast.AST) -> str:
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.source_lines):
            return self.source_lines[lineno - 1]
        return ""

    # -- module / class docstrings --------------------------------------

    def check_module(self, tree: ast.Module) -> None:
        if ast.get_docstring(tree) is None:
            self.problems.append((1, "module is missing a docstring"))
        self.visit(tree)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not node.name.startswith("_") and ast.get_docstring(node) is None:
            self._flag(node, f"public class {node.name} missing a docstring")
        self._class_depth += 1
        self.generic_visit(node)
        self._class_depth -= 1

    # -- functions -------------------------------------------------------

    def _check_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        positional = list(args.posonlyargs) + list(args.args)
        if self._class_depth and positional:
            head = positional[0].arg
            if head in ("self", "cls"):
                positional = positional[1:]
        for arg in positional + list(args.kwonlyargs):
            if arg.annotation is None:
                self._flag(
                    node,
                    f"{node.name}(): parameter {arg.arg!r} is unannotated",
                )
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None and vararg.annotation is None:
                self._flag(
                    node,
                    f"{node.name}(): parameter *{vararg.arg} is unannotated",
                )
        if node.returns is None and node.name != "__init__":
            self._flag(node, f"{node.name}(): missing return annotation")
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._flag(node, f"{node.name}(): mutable default argument")
            elif (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_DEFAULT_CALLS
            ):
                self._flag(node, f"{node.name}(): mutable default argument")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_function(node)
        self.generic_visit(node)

    # -- exception hygiene ----------------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._flag(node, "bare 'except:' clause")
        if (
            len(node.body) == 1
            and isinstance(node.body[0], ast.Pass)
            and "#" not in self._line(node.body[0])
        ):
            self._flag(
                node,
                "silent exception handler (explain the swallow with a "
                "comment on the pass line if intentional)",
            )
        self.generic_visit(node)

    # -- imports ---------------------------------------------------------

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if any(alias.name == "*" for alias in node.names):
            self._flag(node, "wildcard import")
        self.generic_visit(node)


def check_file(path: Path) -> list[str]:
    path = path.resolve()
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    checker = _Checker(path, source)
    checker.check_module(tree)
    rel = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
    return [
        f"{rel}:{lineno}: {message}"
        for lineno, message in sorted(checker.problems)
    ]


def main(argv: list[str] | None = None) -> int:
    roots = [Path(p) for p in (argv or [])] or list(TARGETS)
    problems: list[str] = []
    checked = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            problems.extend(check_file(path))
            checked += 1
    for line in problems:
        print(line)
    print(
        f"lint_server: {checked} file(s) checked, "
        f"{len(problems)} problem(s)",
        file=sys.stderr,
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
