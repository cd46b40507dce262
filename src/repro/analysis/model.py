"""AST extraction: parse modules into the facts the checkers consume.

One pass over each module collects, per function, the lexical lock
acquisitions (``with self._lock:`` with the held-stack at that point),
call sites, attribute accesses, and raise sites — plus module-level
class hierarchies, ``# guarded-by:`` declarations, and per-line
``# analysis: ignore[rule]`` suppressions.  Checkers never re-walk the
AST; they work on these records and a name-based call-graph closure.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ConfigError
from repro.analysis.config import AnalysisConfig

_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*([\w.\-]+)")
_SUPPRESS_RE = re.compile(r"#\s*analysis:\s*ignore\[([\w,\s\-]+)\]")
_ATTR_DECL_RE = re.compile(r"^\s*self\.(\w+)\s*[:=\[]|^\s*(\w+)\s*[:=]")


@dataclass(frozen=True)
class HeldLock:
    """A lock lexically held at some point: name + acquisition site."""

    lock: str
    file: str
    line: int


@dataclass(frozen=True)
class LockAcquire:
    lock: str
    line: int
    held: tuple[HeldLock, ...]


@dataclass(frozen=True)
class CallSite:
    callee: str
    base: str | None  # "self", a variable name, or None for bare calls
    line: int
    held: tuple[HeldLock, ...]


@dataclass(frozen=True)
class AttrAccess:
    base: str
    attr: str
    line: int
    held: tuple[HeldLock, ...]
    is_write: bool


@dataclass(frozen=True)
class RaiseSite:
    #: Class/callable name being raised, or None for a bare ``raise``.
    exc_name: str | None
    line: int
    #: True when the raised expression is a call (``raise X(...)``), so
    #: ``exc_name`` is definitely a class, not maybe a variable.
    is_call: bool


@dataclass
class FunctionInfo:
    qualname: str
    name: str
    klass: str | None
    file: str
    line: int
    acquires: list[LockAcquire] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    accesses: list[AttrAccess] = field(default_factory=list)
    raises: list[RaiseSite] = field(default_factory=list)


@dataclass(frozen=True)
class GuardedDecl:
    """One ``# guarded-by: <lock>`` annotation."""

    klass: str | None
    attr: str
    lock: str
    file: str
    line: int


@dataclass
class ModuleInfo:
    path: Path
    relpath: str
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> list of base-class names (dotted bases keep the
    #: last component: ``repro.exceptions.ReproError`` -> ``ReproError``)
    classes: dict[str, list[str]] = field(default_factory=dict)
    guarded: list[GuardedDecl] = field(default_factory=list)
    #: line number -> set of suppressed rule ids ("*" = all)
    suppressions: dict[int, set[str]] = field(default_factory=dict)


class _FunctionWalker:
    """Walks one function body tracking the lexical held-lock stack."""

    def __init__(self, module: ModuleInfo, info: FunctionInfo,
                 config: AnalysisConfig, collector: "_ModuleCollector"):
        self.module = module
        self.info = info
        self.config = config
        self.collector = collector

    def walk(self, node: ast.AST, held: tuple[HeldLock, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _visit(self, node: ast.AST, held: tuple[HeldLock, ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: analyzed as its own function, empty held stack
            # (it runs later, not under the current locks).
            self.collector.process_function(
                node, klass=self.info.klass, prefix=self.info.qualname)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self._visit(item.context_expr, held)
                spec = self._resolve_lock(item.context_expr)
                if spec is not None:
                    self.info.acquires.append(LockAcquire(
                        lock=spec.name, line=item.context_expr.lineno,
                        held=held))
                    held = held + (HeldLock(
                        lock=spec.name, file=self.module.relpath,
                        line=item.context_expr.lineno),)
            for stmt in node.body:
                self._visit(stmt, held)
            return
        if isinstance(node, ast.Call):
            callee, base = self._call_target(node.func)
            if callee is not None:
                self.info.calls.append(CallSite(
                    callee=callee, base=base, line=node.lineno, held=held))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                self.info.accesses.append(AttrAccess(
                    base=node.value.id, attr=node.attr, line=node.lineno,
                    held=held,
                    is_write=isinstance(node.ctx, (ast.Store, ast.Del))))
        elif isinstance(node, ast.Raise):
            self.info.raises.append(self._raise_site(node))
        self.walk(node, held)

    def _resolve_lock(self, expr: ast.AST):
        if not isinstance(expr, ast.Attribute):
            return None
        if not isinstance(expr.value, ast.Name):
            return None
        if expr.value.id != "self" or self.info.klass is None:
            return self.config.resolve(expr.attr, None)
        # ``self.X`` may be a lock a base class declares (possibly one
        # defined in another module): nearest declaring class wins.
        for klass in lineage(self.collector.classes, self.info.klass):
            spec = self.config.resolve(expr.attr, klass)
            if spec is not None:
                return spec
        return None

    @staticmethod
    def _call_target(func: ast.AST) -> tuple[str | None, str | None]:
        if isinstance(func, ast.Name):
            return func.id, None
        if isinstance(func, ast.Attribute):
            base = (func.value.id
                    if isinstance(func.value, ast.Name) else None)
            return func.attr, base
        return None, None

    @staticmethod
    def _raise_site(node: ast.Raise) -> RaiseSite:
        exc = node.exc
        if exc is None:
            return RaiseSite(exc_name=None, line=node.lineno, is_call=False)
        is_call = isinstance(exc, ast.Call)
        target = exc.func if is_call else exc
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        else:
            name = None
        return RaiseSite(exc_name=name, line=node.lineno, is_call=is_call)


def lineage(classes: dict[str, list[str]], klass: str) -> list[str]:
    """``klass`` then every parsed ancestor, nearest first (breadth-first)."""
    order: list[str] = []
    queue = [klass]
    while queue:
        name = queue.pop(0)
        if name not in order:
            order.append(name)
            queue.extend(classes.get(name, ()))
    return order


def _base_names(node: ast.ClassDef) -> list[str]:
    bases = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            bases.append(base.attr)
    return bases


class _ModuleCollector:
    def __init__(self, path: Path, relpath: str, source: str,
                 config: AnalysisConfig):
        self.config = config
        self.module = ModuleInfo(path=path, relpath=relpath)
        self.tree = ast.parse(source, filename=str(path))
        self.source_lines = source.splitlines()
        self._class_spans: list[tuple[int, int, str]] = []

    def class_bases(self) -> dict[str, list[str]]:
        """Every class this module defines, with its base-class names."""
        return {node.name: _base_names(node) for node in ast.walk(self.tree)
                if isinstance(node, ast.ClassDef)}

    def collect(self, classes: dict[str, list[str]]) -> ModuleInfo:
        """Walk the module; ``classes`` maps every class being linted, in
        any module, to its base names, so ``self.X`` resolves against bases
        defined elsewhere."""
        self.classes = classes
        self._walk_top(self.tree, klass=None, prefix=None)
        self._scan_comments()
        return self.module

    def _walk_top(self, node: ast.AST, klass: str | None,
                  prefix: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self.module.classes[child.name] = _base_names(child)
                self._class_spans.append(
                    (child.lineno, child.end_lineno or child.lineno,
                     child.name))
                self._walk_top(child, klass=child.name, prefix=None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.process_function(child, klass=klass, prefix=prefix)
            else:
                # Module/class-level statements may still raise or call.
                self._walk_top(child, klass=klass, prefix=prefix)

    def process_function(self, node, klass: str | None,
                         prefix: str | None) -> None:
        if prefix:
            qualname = f"{prefix}.<locals>.{node.name}"
        elif klass:
            qualname = f"{klass}.{node.name}"
        else:
            qualname = node.name
        info = FunctionInfo(
            qualname=qualname, name=node.name, klass=klass,
            file=self.module.relpath, line=node.lineno)
        self.module.functions[qualname] = info
        walker = _FunctionWalker(self.module, info, self.config, self)
        for stmt in node.body:
            walker._visit(stmt, held=())

    def _class_at(self, line: int) -> str | None:
        best = None
        for start, end, name in self._class_spans:
            if start <= line <= end:
                if best is None or start > best[0]:
                    best = (start, name)
        return best[1] if best else None

    def _scan_comments(self) -> None:
        pending_guard: str | None = None
        pending_line = 0
        for lineno, text in enumerate(self.source_lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = {part.strip() for part in match.group(1).split(",")
                         if part.strip()}
                self.module.suppressions.setdefault(lineno, set()).update(
                    rules)
            match = _GUARDED_RE.search(text)
            stripped = text.strip()
            if match:
                lock = match.group(1)
                if stripped.startswith("#"):
                    # Standalone comment: applies to the next code line.
                    pending_guard, pending_line = lock, lineno
                    continue
                self._declare_guard(lock, text, lineno)
            elif pending_guard and stripped and not stripped.startswith("#"):
                self._declare_guard(pending_guard, text, lineno,
                                    comment_line=pending_line)
                pending_guard = None
            elif pending_guard and not stripped:
                pending_guard = None
        # A trailing standalone comment with no following code is dropped.

    def _declare_guard(self, lock: str, text: str, lineno: int,
                       comment_line: int | None = None) -> None:
        match = _ATTR_DECL_RE.match(text)
        if not match:
            raise ConfigError(
                f"{self.module.relpath}:{comment_line or lineno}: "
                "guarded-by comment is not attached to an attribute "
                "assignment"
            )
        attr = match.group(1) or match.group(2)
        if self.config.spec(lock) is None:
            raise ConfigError(
                f"{self.module.relpath}:{comment_line or lineno}: "
                f"guarded-by names undeclared lock {lock!r} "
                "(declare it in analysis.toml)"
            )
        self.module.guarded.append(GuardedDecl(
            klass=self._class_at(lineno), attr=attr, lock=lock,
            file=self.module.relpath, line=lineno))


@dataclass
class Program:
    """Every parsed module plus cross-module indexes for the checkers."""

    config: AnalysisConfig
    modules: list[ModuleInfo] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self._by_name: dict[str, list[FunctionInfo]] = {}
        self._by_module: dict[str, dict[str, list[FunctionInfo]]] = {}
        self._by_qual: dict[tuple[str, str], FunctionInfo] = {}
        self._by_qualname: dict[str, list[FunctionInfo]] = {}
        self.classes: dict[str, list[str]] = {}
        self.guarded: list[GuardedDecl] = []
        for module in self.modules:
            per_name: dict[str, list[FunctionInfo]] = {}
            for info in module.functions.values():
                self.functions.append(info)
                self._by_name.setdefault(info.name, []).append(info)
                per_name.setdefault(info.name, []).append(info)
                self._by_qual[(module.relpath, info.qualname)] = info
                self._by_qualname.setdefault(info.qualname, []).append(info)
            self._by_module[module.relpath] = per_name
            self.classes.update(module.classes)
            self.guarded.extend(module.guarded)
        self._subclasses: dict[str, list[str]] = {
            klass: [other for other in self.classes
                    if other != klass and klass in self.lineage(other)]
            for klass in self.classes
        }

    def lineage(self, klass: str | None) -> list[str]:
        """``klass`` and its parsed ancestors, nearest first."""
        return [] if klass is None else lineage(self.classes, klass)

    def _method(self, klass: str, name: str,
                file: str) -> FunctionInfo | None:
        """Method ``klass.name``: in ``file`` first, else unique anywhere."""
        qualname = f"{klass}.{name}"
        hit = self._by_qual.get((file, qualname))
        if hit is not None:
            return hit
        hits = self._by_qualname.get(qualname, [])
        return hits[0] if len(hits) == 1 else None

    def resolve_call(self, site: CallSite,
                     caller: FunctionInfo) -> FunctionInfo | None:
        """Name-based callee resolution, tuned for precision over recall.

        ``self.f()`` binds to method ``f`` on the caller's class or the
        nearest parsed base class that defines it, in any module.  A
        bare call ``f()`` binds to a module top-level function of that
        name (caller's module first, then a globally unique one) or, for
        a known class name, to its ``__init__``.  Calls through any other
        object (``conn.close()``, ``engine.stats()``) stay unresolved: a
        method name only binds via ``self``, so a pipe's ``close()`` is
        never mistaken for the fleet's.  A missed edge is better than a
        phantom one.
        """
        if site.base == "self":
            for klass in self.lineage(caller.klass):
                hit = self._method(klass, site.callee, caller.file)
                if hit is not None:
                    return hit
            return None
        if site.base is not None:
            return None
        if site.callee in self.classes:
            init = self._by_qual.get(
                (caller.file, f"{site.callee}.__init__"))
            if init is not None:
                return init
            inits = [f for f in self._by_name.get("__init__", [])
                     if f.klass == site.callee]
            if len(inits) == 1:
                return inits[0]
            return None
        local = [f for f in self._by_module.get(caller.file, {})
                 .get(site.callee, []) if f.klass is None]
        if len(local) == 1:
            return local[0]
        if local:
            return None
        everywhere = [f for f in self._by_name.get(site.callee, [])
                      if f.klass is None]
        if len(everywhere) == 1:
            return everywhere[0]
        return None

    def resolve_targets(self, site: CallSite,
                        caller: FunctionInfo) -> list[FunctionInfo]:
        """Every function a call may run: :meth:`resolve_call`'s binding
        plus, for ``self.f()``, each override of ``f`` in a parsed subclass
        of the caller's class — ``self`` may be an instance of any of them,
        so a base-class template method reaches its subclasses' hooks."""
        static = self.resolve_call(site, caller)
        targets = [] if static is None else [static]
        if site.base != "self" or caller.klass is None:
            return targets
        for klass in self._subclasses.get(caller.klass, ()):
            hit = self._method(klass, site.callee, caller.file)
            if hit is not None and all(hit is not t for t in targets):
                targets.append(hit)
        return targets

    def suppressed(self, relpath: str, line: int, rule: str) -> bool:
        for module in self.modules:
            if module.relpath == relpath:
                rules = module.suppressions.get(line, set())
                return rule in rules or "*" in rules
        return False


def collect_paths(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of .py files."""
    out: set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
        else:
            raise ConfigError(f"not a python file or directory: {path}")
    return sorted(out)


def build_program(paths: list[Path], config: AnalysisConfig,
                  root: Path | None = None) -> Program:
    """Parse every module under ``paths`` into a :class:`Program`.

    ``root`` anchors the relative paths used in findings and baseline
    keys (default: the directory holding analysis.toml, else cwd), so
    keys are stable no matter where the linter is launched from.
    """
    if root is None:
        root = (config.path.parent if config.path is not None
                else Path.cwd()).resolve()
    collectors = []
    for file_path in collect_paths(paths):
        resolved = file_path.resolve()
        try:
            relpath = resolved.relative_to(root).as_posix()
        except ValueError:
            relpath = file_path.as_posix()
        source = resolved.read_text(encoding="utf-8")
        try:
            collector = _ModuleCollector(resolved, relpath, source, config)
        except SyntaxError as exc:
            raise ConfigError(
                f"cannot parse {relpath}: {exc}") from None
        collectors.append(collector)
    # Class hierarchies first, so every module resolves ``self`` locks
    # against bases defined in the others.
    classes: dict[str, list[str]] = {}
    for collector in collectors:
        classes.update(collector.class_bases())
    modules = [collector.collect(classes) for collector in collectors]
    return Program(config=config, modules=modules)
