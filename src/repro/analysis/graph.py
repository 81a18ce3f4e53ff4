"""Whole-program graph over a ``repro``-style package.

Where :mod:`repro.analysis.rules` checks one file at a time, this module
parses an entire package once and exposes the cross-module structure the
graph rules (REP010–REP014, :mod:`repro.analysis.graph_rules`) reason
about:

* the **module import graph** — every ``import``/``from … import`` edge,
  resolved to a dotted module inside the package, tagged with its source
  location and whether it is *lazy* (function-scoped, and therefore exempt
  from layering and cycle checks);
* the **class attribute index** — which ``self.X`` attributes each class
  writes, where, whether the write is lexically inside a
  ``with self._lock:``-style guard, and which attributes *are* locks
  (``self._lock = threading.Lock()``);
* the **call graph seeds** — every ``<executor>.submit(fn, …)`` site
  (and ``submit(contextvars.copy_context().run, fn, …)``, which runs
  ``fn``) with ``fn`` resolved when it is a plain name, a
  ``self.method``, or a ``module_alias.function``, plus per-function call
  references so reachability from submission sites can be computed;
* **module-global mutable state** — names rebound through a ``global``
  statement anywhere in their module (the repo's arming-guard idiom:
  ``obs.runtime.ENABLED``, ``reliability.faults.ARMED``, …), and every
  read/write of them, including cross-module ``alias.NAME`` accesses;
* **environment reads** — ``os.environ[...]``/``os.environ.get``/
  ``os.getenv`` calls whose key is a ``REPRO_*`` literal or a module-level
  string constant.

The analysis is deliberately heuristic and name-based: no type inference,
no dataflow across assignments.  Calls through local variables
(``plan.check(...)``) and callables passed as parameters are not resolved;
the graph rules document this as an accepted under-approximation.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple

__all__ = [
    "AttrWrite",
    "CallRef",
    "ClassInfo",
    "EnvRead",
    "FunctionInfo",
    "GlobalUse",
    "ImportEdge",
    "ModuleInfo",
    "ProgramGraph",
    "SubmissionSite",
    "build_graph",
    "package_root_for",
]

# Directories never worth descending into (mirrors the lint driver).
_SKIP_DIRS = {".git", "__pycache__", ".hypothesis", ".pytest_cache", "build", "dist"}

# Method names treated as in-place mutations of ``self.X`` collections.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "setdefault",
    "sort",
    "reverse",
    "update",
}

_EXECUTOR_NAMES = {"ThreadPoolExecutor", "ProcessPoolExecutor"}


@dataclass(frozen=True)
class ImportEdge:
    """One import of an in-package module."""

    src: str  #: dotted name of the importing module
    target: str  #: resolved dotted name of the imported module
    line: int
    col: int
    lazy: bool  #: function-scoped import (exempt from layering/cycles)


@dataclass(frozen=True)
class EnvRead:
    """One ``os.environ``/``getenv`` read of an environment variable."""

    module: str
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class GlobalUse:
    """One read/write of a module-global mutable name inside a function."""

    name: str  #: the global's name
    owner: str  #: dotted module that owns (``global``-declares) the name
    line: int
    col: int
    is_write: bool


@dataclass(frozen=True)
class CallRef:
    """An unresolved call reference recorded inside a function body.

    ``kind`` is ``"name"`` (``f(...)``), ``"self"`` (``self.m(...)``) or
    ``"mod"`` (``alias.f(...)`` with ``alias`` bound to an in-package
    module, already resolved to ``module``).
    """

    kind: str
    name: str
    module: Optional[str] = None


@dataclass(frozen=True)
class AttrWrite:
    """One mutation of ``self.<attr>`` inside a class method."""

    attr: str
    method: str  #: name of the enclosing method
    line: int
    col: int
    guard_attrs: frozenset  #: ``with self.<X>`` attrs lexically enclosing
    in_init: bool


@dataclass
class FunctionInfo:
    """A module-level function or a method, with its call/global uses."""

    qualname: str  #: ``module.func`` or ``module.Class.func``
    module: str
    name: str
    cls: Optional[str]  #: owning class qualname, or None
    node: ast.AST
    calls: list = field(default_factory=list)  #: list[CallRef]
    global_uses: list = field(default_factory=list)  #: list[GlobalUse]


@dataclass
class ClassInfo:
    """A class definition with its lock-attribute and write index."""

    qualname: str  #: ``module.Class``
    module: str
    name: str
    node: ast.ClassDef
    bases: list = field(default_factory=list)  #: list[CallRef]-style refs
    lock_attrs: set = field(default_factory=set)
    attr_writes: list = field(default_factory=list)  #: list[AttrWrite]
    methods: dict = field(default_factory=dict)  #: name -> FunctionInfo
    teardown_attrs: set = field(default_factory=set)
    #: ``self.X`` attrs referenced inside close/shutdown/__exit__/__del__

    def defines_teardown(self) -> bool:
        """Whether the class itself declares ``close`` or ``shutdown``."""
        return "close" in self.methods or "shutdown" in self.methods


@dataclass(frozen=True)
class SubmissionSite:
    """One ``<executor>.submit(fn, ...)`` call."""

    module: str
    line: int
    col: int
    callee: Optional[CallRef]  #: resolved submitted callable, if any
    in_class: Optional[str]  #: class qualname when inside a method


@dataclass
class ModuleInfo:
    """Everything the graph rules need to know about one module."""

    name: str
    path: str
    is_package: bool
    tree: ast.Module
    lines: Tuple[str, ...]
    import_edges: list = field(default_factory=list)
    module_aliases: dict = field(default_factory=dict)  #: local -> module
    imported_names: dict = field(default_factory=dict)  #: local -> (mod, attr)
    mutable_globals: set = field(default_factory=set)
    constants: dict = field(default_factory=dict)  #: NAME -> str value
    env_reads: list = field(default_factory=list)
    functions: dict = field(default_factory=dict)  #: name -> FunctionInfo
    classes: dict = field(default_factory=dict)  #: name -> ClassInfo
    executor_names: set = field(default_factory=set)
    submissions: list = field(default_factory=list)


def package_root_for(path: Path) -> Optional[Path]:
    """Topmost package directory containing ``path``, or ``None``.

    Walks up from a ``.py`` file (or a package directory) while the parent
    holds an ``__init__.py``; the last such directory is the package root
    the whole-program graph is built from.
    """
    path = path.resolve()
    current = path.parent if path.is_file() else path
    if not (current / "__init__.py").exists():
        return None
    while (current.parent / "__init__.py").exists():
        current = current.parent
    return current


# --------------------------------------------------------------------- #
# Per-module scanning
# --------------------------------------------------------------------- #


class _ModuleScanner(ast.NodeVisitor):
    """Single pass over one module collecting the :class:`ModuleInfo`."""

    def __init__(self, info: ModuleInfo, package: str) -> None:
        self.info = info
        self.package = package
        self._depth = 0  #: function nesting depth (>0 = lazy imports)
        self._cls: Optional[ClassInfo] = None
        self._func: Optional[FunctionInfo] = None
        self._guards: list[str] = []  #: active ``with self.X`` attr names
        self._threading_aliases: set[str] = set()
        self._lock_ctor_names: set[str] = set()  #: from threading import Lock
        self._os_aliases: set[str] = set()
        self._environ_aliases: set[str] = set()
        self._getenv_aliases: set[str] = set()

    # -- imports -------------------------------------------------------- #

    def _in_package(self, dotted: str) -> bool:
        return dotted == self.package or dotted.startswith(self.package + ".")

    def _add_edge(self, target: str, node: ast.AST) -> None:
        if not self._in_package(target) or target == self.info.name:
            return
        self.info.import_edges.append(
            ImportEdge(
                src=self.info.name,
                target=target,
                line=node.lineno,
                col=node.col_offset + 1,
                lazy=self._depth > 0,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "threading":
                self._threading_aliases.add(alias.asname or "threading")
            elif alias.name == "os":
                self._os_aliases.add(alias.asname or "os")
            if self._in_package(alias.name):
                self._add_edge(alias.name, node)
                self.info.module_aliases[alias.asname or alias.name] = alias.name

    def _resolve_from(self, node: ast.ImportFrom) -> Optional[str]:
        """Dotted module an ``ImportFrom`` resolves to, or ``None``."""
        if node.level == 0:
            return node.module
        anchor = self.info.name if self.info.is_package else self.info.name.rsplit(".", 1)[0]
        parts = anchor.split(".")
        drop = node.level - 1
        if drop >= len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        if node.module:
            parts.append(node.module)
        return ".".join(parts)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = self._resolve_from(node)
        if base is None:
            return
        if base == "threading":
            for alias in node.names:
                if alias.name in ("Lock", "RLock"):
                    self._lock_ctor_names.add(alias.asname or alias.name)
        elif base == "os":
            for alias in node.names:
                if alias.name == "environ":
                    self._environ_aliases.add(alias.asname or alias.name)
                elif alias.name == "getenv":
                    self._getenv_aliases.add(alias.asname or alias.name)
        elif base == "concurrent.futures":
            for alias in node.names:
                if alias.name in _EXECUTOR_NAMES:
                    self.info.executor_names.add(alias.asname or alias.name)
        if not self._in_package(base):
            return
        for alias in node.names:
            candidate = f"{base}.{alias.name}"
            local = alias.asname or alias.name
            if candidate in self._known_modules:
                self._add_edge(candidate, node)
                self.info.module_aliases[local] = candidate
            else:
                self._add_edge(base, node)
                self.info.imported_names[local] = (base, alias.name)

    # -- scopes --------------------------------------------------------- #

    _known_modules: frozenset = frozenset()  # injected by build_graph

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self._cls is not None or self._depth > 0:
            # Nested/local classes: scan bodies in the enclosing context.
            self.generic_visit(node)
            return
        info = ClassInfo(
            qualname=f"{self.info.name}.{node.name}",
            module=self.info.name,
            name=node.name,
            node=node,
        )
        for base in node.bases:
            ref = self._call_ref(base)
            if ref is not None:
                info.bases.append(ref)
        self.info.classes[node.name] = info
        self._cls = info
        self.generic_visit(node)
        self._cls = None

    def _enter_function(self, node) -> None:
        if self._depth == 0:
            qual = (
                f"{self._cls.qualname}.{node.name}"
                if self._cls is not None
                else f"{self.info.name}.{node.name}"
            )
            info = FunctionInfo(
                qualname=qual,
                module=self.info.name,
                name=node.name,
                cls=self._cls.qualname if self._cls is not None else None,
                node=node,
            )
            if self._cls is not None:
                self._cls.methods[node.name] = info
            else:
                self.info.functions[node.name] = info
            self._func = info
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1
        if self._depth == 0:
            self._func = None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.info.mutable_globals.update(node.names)

    # -- guards and attribute writes ------------------------------------ #

    def _with_guard_attrs(self, node) -> list[str]:
        attrs = []
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                attrs.append(expr.attr)
        return attrs

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node) -> None:
        attrs = self._with_guard_attrs(node)
        self._guards.extend(attrs)
        self.generic_visit(node)
        if attrs:
            del self._guards[-len(attrs):]

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        """``X`` when ``node`` is ``self.X`` or ``self.X[...]``."""
        if isinstance(node, ast.Subscript):
            node = node.value
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr
        return None

    def _record_write(self, attr: str, node: ast.AST) -> None:
        if self._cls is None or self._func is None or self._func.cls is None:
            return
        self._cls.attr_writes.append(
            AttrWrite(
                attr=attr,
                method=self._func.name,
                line=node.lineno,
                col=node.col_offset + 1,
                guard_attrs=frozenset(self._guards),
                in_init=self._func.name == "__init__",
            )
        )

    def _is_lock_ctor(self, value: ast.expr) -> bool:
        if not isinstance(value, ast.Call):
            return False
        func = value.func
        if isinstance(func, ast.Name):
            return func.id in self._lock_ctor_names
        return (
            isinstance(func, ast.Attribute)
            and func.attr in ("Lock", "RLock")
            and isinstance(func.value, ast.Name)
            and func.value.id in self._threading_aliases
        )

    def _scan_assign_target(self, target: ast.expr, node: ast.AST, value) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._scan_assign_target(element, node, None)
            return
        attr = self._self_attr(target)
        if attr is None:
            return
        if (
            value is not None
            and not isinstance(target, ast.Subscript)
            and self._is_lock_ctor(value)
            and self._cls is not None
        ):
            self._cls.lock_attrs.add(attr)
            return
        self._record_write(attr, node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._scan_assign_target(target, node, node.value)
        self._scan_module_constant(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._scan_assign_target(node.target, node, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._self_attr(node.target)
        if attr is not None:
            self._record_write(attr, node)
        self.generic_visit(node)

    def _scan_module_constant(self, node: ast.Assign) -> None:
        if self._depth > 0 or self._cls is not None:
            return
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            self.info.constants[node.targets[0].id] = node.value.value

    # -- calls, globals, env reads, submissions -------------------------- #

    def _call_ref(self, func: ast.expr) -> Optional[CallRef]:
        if isinstance(func, ast.Name):
            return CallRef(kind="name", name=func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            owner = func.value.id
            if owner == "self":
                return CallRef(kind="self", name=func.attr)
            target = self.info.module_aliases.get(owner)
            if target is not None:
                return CallRef(kind="mod", name=func.attr, module=target)
        return None

    def _env_key(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.info.constants.get(node.id)
        return None

    def _is_environ(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self._environ_aliases
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "environ"
            and isinstance(node.value, ast.Name)
            and node.value.id in self._os_aliases
        )

    def _record_env_read(self, key: Optional[ast.expr], node: ast.AST) -> None:
        if key is None:
            return
        name = self._env_key(key)
        if name is not None:
            self.info.env_reads.append(
                EnvRead(
                    module=self.info.name,
                    name=name,
                    line=node.lineno,
                    col=node.col_offset + 1,
                )
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_environ(node.value):
            self._record_env_read(node.slice, node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # Environment reads.
        if isinstance(func, ast.Attribute):
            if func.attr == "get" and self._is_environ(func.value):
                self._record_env_read(node.args[0] if node.args else None, node)
            elif (
                func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id in self._os_aliases
            ):
                self._record_env_read(node.args[0] if node.args else None, node)
            elif func.attr == "submit":
                submitted = _submitted_callable(node.args)
                callee = self._call_ref(submitted) if submitted is not None else None
                self.info.submissions.append(
                    SubmissionSite(
                        module=self.info.name,
                        line=node.lineno,
                        col=node.col_offset + 1,
                        callee=callee,
                        in_class=self._cls.qualname if self._cls else None,
                    )
                )
            # ``self.X.append(...)``-style in-place mutation.
            if func.attr in _MUTATOR_METHODS:
                attr = self._self_attr(func.value)
                if attr is not None:
                    self._record_write(attr, node)
        elif isinstance(func, ast.Name) and func.id in self._getenv_aliases:
            self._record_env_read(node.args[0] if node.args else None, node)
        if self._func is not None:
            ref = self._call_ref(func)
            if ref is not None:
                self._func.calls.append(ref)
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if self._func is not None and node.id in self.info.mutable_globals:
            self._func.global_uses.append(
                GlobalUse(
                    name=node.id,
                    owner=self.info.name,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                )
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Cross-module global access: ``alias.NAME`` with NAME a mutable
        # global of the aliased module (resolved in a second pass, since
        # the owning module may not be scanned yet).
        if (
            self._func is not None
            and isinstance(node.value, ast.Name)
            and node.value.id in self.info.module_aliases
        ):
            target = self.info.module_aliases[node.value.id]
            self._func.global_uses.append(
                GlobalUse(
                    name=node.attr,
                    owner=target,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    is_write=isinstance(node.ctx, (ast.Store, ast.Del)),
                )
            )
        self.generic_visit(node)


def _submitted_callable(args: list) -> Optional[ast.expr]:
    """The callable an ``<executor>.submit(...)`` call runs.

    ``fn`` for ``submit(fn, ...)``, and also for
    ``submit(contextvars.copy_context().run, fn, ...)`` — the form that
    carries the submitting context onto the worker.
    """
    if not args:
        return None
    first = args[0]
    if (
        len(args) > 1
        and isinstance(first, ast.Attribute)
        and first.attr == "run"
        and isinstance(first.value, ast.Call)
    ):
        factory = first.value.func
        name = factory.attr if isinstance(factory, ast.Attribute) else getattr(factory, "id", None)
        if name == "copy_context":
            return args[1]
    return first


# --------------------------------------------------------------------- #
# Whole-program assembly
# --------------------------------------------------------------------- #


class ProgramGraph:
    """The parsed package: modules, imports, classes, and call seeds."""

    def __init__(self, root: Path, package: str, modules: dict) -> None:
        self.root = root
        self.package = package
        self.modules: dict[str, ModuleInfo] = modules
        self._reachable: Optional[set] = None
        self._finalize()

    def _finalize(self) -> None:
        """Resolve deferred cross-module facts after every module parsed."""
        for module in self.modules.values():
            for cls in module.classes.values():
                self._collect_teardown_attrs(cls)
            # Keep only cross-module uses that name a real mutable global
            # of the owning module (the scanner over-records attributes).
            for func in self._module_functions(module):
                func.global_uses = [
                    use
                    for use in func.global_uses
                    if use.owner == module.name
                    or use.name in self.modules.get(use.owner, _EMPTY).mutable_globals
                ]

    def _module_functions(self, module: ModuleInfo) -> Iterator[FunctionInfo]:
        yield from module.functions.values()
        for cls in module.classes.values():
            yield from cls.methods.values()

    def _collect_teardown_attrs(self, cls: ClassInfo) -> None:
        for name in ("close", "shutdown", "__exit__", "__del__"):
            method = cls.methods.get(name)
            if method is None:
                continue
            for node in ast.walk(method.node):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    cls.teardown_attrs.add(node.attr)

    # -- iteration ------------------------------------------------------ #

    def functions(self) -> Iterator[FunctionInfo]:
        """All module-level functions and methods in the program."""
        for module in self.modules.values():
            yield from self._module_functions(module)

    def classes(self) -> Iterator[ClassInfo]:
        """All top-level classes in the program."""
        for module in self.modules.values():
            yield from module.classes.values()

    def submission_sites(self) -> Iterator[SubmissionSite]:
        """All ``<executor>.submit(...)`` call sites."""
        for module in self.modules.values():
            yield from module.submissions

    def module_edges(self, include_lazy: bool = False) -> Iterator[ImportEdge]:
        """All import edges, module-level only unless ``include_lazy``."""
        for module in self.modules.values():
            for edge in module.import_edges:
                if include_lazy or not edge.lazy:
                    yield edge

    # -- resolution ----------------------------------------------------- #

    def _lookup_in_module(
        self, module_name: str, attr: str, index: str, hops: int = 3
    ) -> object:
        """``attr`` from ``module_name``'s ``index`` ("classes"/"functions"),
        chasing up to ``hops`` levels of ``from x import y`` re-exports
        (package ``__init__`` facades)."""
        for _ in range(hops):
            module = self.modules.get(module_name)
            if module is None:
                return None
            found = getattr(module, index).get(attr)
            if found is not None:
                return found
            imported = module.imported_names.get(attr)
            if imported is None:
                return None
            module_name, attr = imported
        return None

    def resolve_class(self, module: ModuleInfo, ref: CallRef) -> Optional[ClassInfo]:
        """Class a constructor-call reference points at, if in-program."""
        if ref.kind == "name":
            cls = module.classes.get(ref.name)
            if cls is not None:
                return cls
            imported = module.imported_names.get(ref.name)
            if imported is not None:
                return self._lookup_in_module(imported[0], imported[1], "classes")
            return None
        if ref.kind == "mod" and ref.module in self.modules:
            return self._lookup_in_module(ref.module, ref.name, "classes")
        return None

    def _method_in_hierarchy(
        self, cls: ClassInfo, name: str, seen: Optional[set] = None
    ) -> Optional[FunctionInfo]:
        seen = seen or set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        method = cls.methods.get(name)
        if method is not None:
            return method
        module = self.modules.get(cls.module)
        if module is None:
            return None
        for base_ref in cls.bases:
            base = self.resolve_class(module, base_ref)
            if base is not None:
                found = self._method_in_hierarchy(base, name, seen)
                if found is not None:
                    return found
        return None

    def class_by_qualname(self, qualname: str) -> Optional[ClassInfo]:
        """Look up a class by its ``module.Class`` qualname."""
        module_name, _, cls_name = qualname.rpartition(".")
        module = self.modules.get(module_name)
        return module.classes.get(cls_name) if module else None

    def resolve_callable(
        self, module: ModuleInfo, ref: Optional[CallRef], cls: Optional[str] = None
    ) -> Optional[FunctionInfo]:
        """The in-program function a :class:`CallRef` points at, if any."""
        if ref is None:
            return None
        if ref.kind == "name":
            func = module.functions.get(ref.name)
            if func is not None:
                return func
            imported = module.imported_names.get(ref.name)
            if imported is not None:
                target = self.modules.get(imported[0])
                if target is not None:
                    return target.functions.get(imported[1])
            return None
        if ref.kind == "mod":
            target = self.modules.get(ref.module or "")
            return target.functions.get(ref.name) if target else None
        if ref.kind == "self" and cls is not None:
            owner = self.class_by_qualname(cls)
            if owner is not None:
                return self._method_in_hierarchy(owner, ref.name)
        return None

    # -- reachability from executor submissions -------------------------- #

    def reachable_from_submissions(self) -> dict:
        """``{function qualname: seed SubmissionSite}`` for every function
        statically reachable from an executor submission, via name-based
        call-graph BFS (calls through variables/parameters not resolved)."""
        if self._reachable is not None:
            return self._reachable
        reachable: dict[str, SubmissionSite] = {}
        queue: list[tuple[FunctionInfo, SubmissionSite]] = []
        for site in self.submission_sites():
            module = self.modules[site.module]
            func = self.resolve_callable(module, site.callee, site.in_class)
            if func is not None and func.qualname not in reachable:
                reachable[func.qualname] = site
                queue.append((func, site))
        while queue:
            func, seed = queue.pop()
            module = self.modules.get(func.module)
            if module is None:
                continue
            for ref in func.calls:
                callee = self.resolve_callable(module, ref, func.cls)
                if callee is not None and callee.qualname not in reachable:
                    reachable[callee.qualname] = seed
                    queue.append((callee, seed))
        self._reachable = reachable
        return reachable

    # -- resource helpers ------------------------------------------------ #

    def closeable_classes(self) -> set:
        """Qualnames of classes that define (or inherit, in-program) a
        ``close``/``shutdown`` method.  ``__exit__`` alone does not count:
        pure context managers (spans, timers) manage no long-lived handle."""
        closeable: set[str] = set()
        for cls in self.classes():
            if self._method_in_hierarchy(cls, "close") is not None:
                closeable.add(cls.qualname)
            elif self._method_in_hierarchy(cls, "shutdown") is not None:
                closeable.add(cls.qualname)
        return closeable


_EMPTY = ModuleInfo(
    name="", path="", is_package=False, tree=ast.Module(body=[], type_ignores=[]),
    lines=(),
)


def _iter_package_files(root: Path) -> Iterable[Path]:
    for candidate in sorted(root.rglob("*.py")):
        if any(part in _SKIP_DIRS for part in candidate.parts):
            continue
        yield candidate


def _module_name(root: Path, package: str, path: Path) -> str:
    relative = path.relative_to(root)
    parts = [package] + list(relative.parts[:-1])
    if relative.name != "__init__.py":
        parts.append(relative.stem)
    return ".".join(parts)


def build_graph(root: Path) -> ProgramGraph:
    """Parse every module under the package directory ``root``.

    ``root`` must be the package directory itself (it contains
    ``__init__.py``); use :func:`package_root_for` to find it from any
    file inside the package.  Unparsable files are skipped — the per-file
    linter already reports them as REP000.
    """
    root = root.resolve()
    package = root.name
    modules: dict[str, ModuleInfo] = {}
    scanners: list[_ModuleScanner] = []
    files = list(_iter_package_files(root))
    known = frozenset(_module_name(root, package, path) for path in files)
    for path in files:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            continue
        info = ModuleInfo(
            name=_module_name(root, package, path),
            path=str(path),
            is_package=path.name == "__init__.py",
            tree=tree,
            lines=tuple(source.splitlines()),
        )
        modules[info.name] = info
        scanner = _ModuleScanner(info, package)
        scanner._known_modules = known
        scanners.append(scanner)
    # Two passes: ``global`` declarations and constants must be known
    # module-wide before function bodies record uses of them.
    for scanner in scanners:
        for node in ast.walk(scanner.info.tree):
            if isinstance(node, ast.Global):
                scanner.info.mutable_globals.update(node.names)
    for scanner in scanners:
        scanner.visit(scanner.info.tree)
    return ProgramGraph(root=root, package=package, modules=modules)
