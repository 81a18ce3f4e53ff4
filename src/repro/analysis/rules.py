"""Repo-specific AST lint rules enforcing the Planar index's invariants.

Each rule guards an invariant the paper's correctness argument (or this
reproduction's performance envelope) depends on but that the type system
cannot express.  Rules are registered in :data:`REGISTRY`; the driver in
:mod:`repro.analysis.lint` runs every applicable rule over each file and
filters ``# repro: noqa(REP001)``-style suppressions.

Rules are deliberately heuristic: they resolve numpy import aliases and do
light local dataflow (names bound from ``np.*`` calls or ``store.get_all()``)
but no cross-module inference.  False positives are expected to be rare and
are silenced inline with a rationale comment — see ``docs/analysis.md``.

Scoping: rules that only matter on the hot path (REP001/REP002/REP006)
exempt ``repro`` modules outside their hot-path packages.  Files that are
*not* part of the ``repro`` package (scratch files, downstream code) get
every rule, so the linter is usable as a standalone checker.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

from ..exceptions import ContractSpecError
from .contracts import parse_param_spec, parse_return_spec

__all__ = [
    "Diagnostic",
    "Rule",
    "ModuleContext",
    "REGISTRY",
    "check_module",
    "rule_ids",
]


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """Format as the conventional ``path:line:col: RULE message`` line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Rule:
    """A registered lint rule.

    ``applies`` receives the dotted module name (``None`` when the file is
    not inside a package) and decides whether the rule runs at all;
    ``check`` receives the module context and yields diagnostics.
    """

    id: str
    name: str
    summary: str
    applies: Callable[[str | None], bool]
    check: Callable[["ModuleContext"], Iterable[Diagnostic]]


class ModuleContext:
    """Parsed module plus the alias information shared by all rules."""

    def __init__(self, path: str, module_name: str | None, tree: ast.Module) -> None:
        self.path = path
        self.module_name = module_name
        self.tree = tree
        # Names referring to the numpy module / the numpy.random module.
        self.numpy_aliases: set[str] = set()
        self.numpy_random_aliases: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy_aliases.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        if alias.asname:
                            self.numpy_random_aliases.add(alias.asname)
                        else:
                            self.numpy_aliases.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        self.numpy_random_aliases.add(alias.asname or "random")

    # ------------------------------------------------------------------ #

    def is_numpy(self, node: ast.expr) -> bool:
        """True when ``node`` names the numpy module (under any alias)."""
        return isinstance(node, ast.Name) and node.id in self.numpy_aliases

    def is_numpy_random(self, node: ast.expr) -> bool:
        """True when ``node`` names ``numpy.random`` (directly or aliased)."""
        if isinstance(node, ast.Name) and node.id in self.numpy_random_aliases:
            return True
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "random"
            and self.is_numpy(node.value)
        )

    def diag(self, rule_id: str, node: ast.AST, message: str) -> Diagnostic:
        """Build a :class:`Diagnostic` located at ``node`` (1-based column)."""
        return Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule_id,
            message=message,
        )


# --------------------------------------------------------------------- #
# Scoping predicates
# --------------------------------------------------------------------- #


def _package_of(module_name: str | None) -> str | None:
    """Second-level package of a ``repro`` module (``repro.core.x`` -> ``core``)."""
    if module_name is None or not (
        module_name == "repro" or module_name.startswith("repro.")
    ):
        return None
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else ""


def _everywhere(module_name: str | None) -> bool:
    return True


def _scope_packages(*packages: str, exempt_modules: tuple[str, ...] = ()) -> Callable:
    """Hot-path scoping: inside ``repro``, only the named packages; outside
    the ``repro`` package every file is treated as hot path."""

    def applies(module_name: str | None) -> bool:
        package = _package_of(module_name)
        if package is None:
            return True  # not a repro module: treat as hot path
        if module_name in exempt_modules:
            return False
        return package in packages

    return applies


# --------------------------------------------------------------------- #
# Helpers shared by the dataflow-ish rules
# --------------------------------------------------------------------- #


def _assigned_names(target: ast.expr) -> list[ast.Name]:
    """Plain names bound by an assignment target (recursing into tuples)."""
    if isinstance(target, ast.Name):
        return [target]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[ast.Name] = []
        for element in target.elts:
            names.extend(_assigned_names(element))
        return names
    return []


def _function_scopes(tree: ast.Module) -> list[ast.AST]:
    """Module plus every (async) function definition, as analysis scopes."""
    scopes: list[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append(node)
    return scopes


def _scope_statements(scope: ast.AST) -> Iterable[ast.AST]:
    """Walk a scope without descending into nested function definitions."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# --------------------------------------------------------------------- #
# REP001 — unguarded full-matrix scalar-product scan
# --------------------------------------------------------------------- #

# Variable names that conventionally hold the full feature matrix.
_FULL_MATRIX_NAMES = {"features", "feature_matrix", "all_features", "full_features"}
# Instance attributes that hold the full matrix in this codebase.
_FULL_MATRIX_ATTRS = {"_features", "_data"}
_MATMUL_FUNCS = {"dot", "matmul"}


def _check_rep001(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Unguarded full-matrix scalar product (``features @ a``) on the hot path.

    The query path must never silently fall back to an O(n d') scan of the
    whole feature matrix: exact scans are only allowed inside
    :class:`~repro.core.feature_store.FeatureStore` (``scan_values``, which
    the cost-based router calls deliberately) and the ``scan.baseline``
    oracle.  Flags ``@`` / ``np.dot`` / ``np.matmul`` / ``X.dot(y)`` where
    an operand is named like the full matrix (``features``, ``self._data``,
    ...) or was bound from ``store.get_all()`` in the same scope.
    Deliberate build-time or guarded scans carry ``# repro: noqa(REP001)``
    with a rationale.
    """
    for scope in _function_scopes(ctx.tree):
        tracked: set[str] = set()
        for node in _scope_statements(scope):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                func = node.value.func
                if isinstance(func, ast.Attribute) and func.attr == "get_all":
                    for target in node.targets:
                        tracked.update(name.id for name in _assigned_names(target))

        def suspicious(node: ast.expr) -> bool:
            if isinstance(node, ast.Name):
                return node.id in _FULL_MATRIX_NAMES or node.id in tracked
            if isinstance(node, ast.Attribute):
                return node.attr in _FULL_MATRIX_ATTRS
            return False

        for node in _scope_statements(scope):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and (suspicious(node.left) or suspicious(node.right))
            ):
                yield ctx.diag(
                    "REP001",
                    node,
                    "full feature-matrix scalar product outside "
                    "FeatureStore/baseline; route through the cost-based "
                    "scan path or suppress with a rationale",
                )
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                func = node.func
                if (
                    func.attr in _MATMUL_FUNCS
                    and ctx.is_numpy(func.value)
                    and any(suspicious(arg) for arg in node.args[:2])
                ) or (func.attr == "dot" and suspicious(func.value)):
                    yield ctx.diag(
                        "REP001",
                        node,
                        "full feature-matrix np.dot/np.matmul outside "
                        "FeatureStore/baseline",
                    )


# --------------------------------------------------------------------- #
# REP002 — dtype-literal drift on the hot path
# --------------------------------------------------------------------- #

_BAD_DTYPE_ATTRS = {
    "float16", "float32", "half", "single", "longdouble", "float128", "float_",
    "int8", "int16", "int32", "intc", "int_", "short", "byte", "longlong",
    "uint8", "uint16", "uint32", "uint64", "uintc", "uint", "ubyte", "ushort",
    "ulonglong", "complex64", "complex128", "csingle", "cdouble", "complex_",
}
_BAD_DTYPE_STRINGS = _BAD_DTYPE_ATTRS | {
    prefix + code
    for prefix in ("", "<", ">", "=")
    for code in ("f2", "f4", "i1", "i2", "i4", "u1", "u2", "u4", "u8", "c8", "c16")
}
_PLATFORM_DTYPE_NAMES = {"int", "float"}


def _dtype_argument_nodes(call: ast.Call) -> list[ast.expr]:
    """Expressions used in a dtype position of ``call``."""
    nodes = [kw.value for kw in call.keywords if kw.arg == "dtype"]
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in {"astype", "dtype", "view"}:
        nodes.extend(call.args[:1])
    return nodes


def _check_rep002(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Numeric dtypes other than ``float64``/``int64`` in hot-path packages.

    The interval thresholds cancel catastrophically (see
    :func:`repro.core.selection.thresholds`); anything below float64 turns the guard
    band into wrong answers, and 32-bit integer ids overflow silently at
    production scale.  ``bool`` masks are allowed.  Also flags the builtin
    ``int``/``float`` used as a dtype (platform-dependent width).
    Deliberate compact dtypes (e.g. int8 octant sign patterns) carry a
    ``noqa`` with a rationale.
    """
    flagged: set[int] = set()
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _BAD_DTYPE_ATTRS
            and ctx.is_numpy(node.value)
            and id(node) not in flagged
        ):
            flagged.add(id(node))
            yield ctx.diag(
                "REP002",
                node,
                f"numpy dtype np.{node.attr} drifts from the float64/int64 "
                "hot-path invariant",
            )
        elif isinstance(node, ast.Call):
            for arg in _dtype_argument_nodes(node):
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value in _BAD_DTYPE_STRINGS
                ):
                    yield ctx.diag(
                        "REP002",
                        arg,
                        f"dtype string {arg.value!r} drifts from the "
                        "float64/int64 hot-path invariant",
                    )
                elif isinstance(arg, ast.Name) and arg.id in _PLATFORM_DTYPE_NAMES:
                    yield ctx.diag(
                        "REP002",
                        arg,
                        f"builtin {arg.id!r} as a dtype is platform-dependent; "
                        "use np.float64/np.int64",
                    )


# --------------------------------------------------------------------- #
# REP003 — mutable default arguments
# --------------------------------------------------------------------- #

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_CALLS = {"list", "dict", "set", "bytearray"}


def _check_rep003(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Mutable default arguments (shared across calls, a classic aliasing bug)."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults if default is not None
        ]
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_CALLS
            ):
                yield ctx.diag(
                    "REP003",
                    default,
                    "mutable default argument is shared across calls; "
                    "default to None and build inside the function",
                )


# --------------------------------------------------------------------- #
# REP004 — missing or inconsistent __all__
# --------------------------------------------------------------------- #


def _module_all(tree: ast.Module) -> tuple[ast.AST | None, list[str] | None]:
    """The ``__all__`` assignment node and its literal names (None if dynamic)."""
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], None
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)) and all(
                    isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in value.elts
                ):
                    return node, [e.value for e in value.elts]
                return node, None  # dynamic or annotated-only: presence counts
    return None, None


def _check_rep004(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Missing/inconsistent ``__all__``: every module declares its exports,
    every declared name exists, every public top-level def/class is exported.

    Keeping ``__all__`` authoritative is what lets downstream tooling (and
    the contracts subsystem) reason about the public surface; drifting
    export lists were a real seed-repo defect this rule now gates.
    """
    node, names = _module_all(ctx.tree)
    if node is None:
        yield ctx.diag(
            "REP004",
            ctx.tree.body[0] if ctx.tree.body else ctx.tree,
            "module does not declare __all__",
        )
        return
    if names is None:
        return  # dynamic __all__: presence satisfied, consistency unknown
    defined: set[str] = set()
    has_star_import = False
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                defined.update(name.id for name in _assigned_names(target))
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            defined.add(stmt.target.id)
        elif isinstance(stmt, ast.Import):
            for alias in stmt.names:
                defined.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            for alias in stmt.names:
                if alias.name == "*":
                    has_star_import = True
                else:
                    defined.add(alias.asname or alias.name)
        elif isinstance(stmt, (ast.If, ast.Try)):
            # Conditional definitions (TYPE_CHECKING, fallbacks): best effort.
            for sub in ast.walk(stmt):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(sub.name)
                elif isinstance(sub, ast.ImportFrom):
                    defined.update(a.asname or a.name for a in sub.names)
    if not has_star_import:
        for missing in [name for name in names if name not in defined]:
            yield ctx.diag(
                "REP004",
                node,
                f"__all__ exports {missing!r} which is not defined in the module",
            )
    seen = set(names)
    for stmt in ctx.tree.body:
        if (
            isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and stmt.name not in seen
        ):
            yield ctx.diag(
                "REP004",
                stmt,
                f"public {'class' if isinstance(stmt, ast.ClassDef) else 'function'} "
                f"{stmt.name!r} is missing from __all__",
            )


# --------------------------------------------------------------------- #
# REP005 — bare / over-broad except
# --------------------------------------------------------------------- #

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _check_rep005(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Bare or over-broad ``except``: swallowing everything hides the silent
    wrong-answer failures this subsystem exists to prevent."""
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield ctx.diag("REP005", node, "bare except: catches everything")
            continue
        candidates = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        for candidate in candidates:
            name = None
            if isinstance(candidate, ast.Name):
                name = candidate.id
            elif isinstance(candidate, ast.Attribute):
                name = candidate.attr
            if name in _BROAD_EXCEPTIONS:
                yield ctx.diag(
                    "REP005",
                    node,
                    f"over-broad except {name}: catch the specific repro "
                    "exception instead",
                )


# --------------------------------------------------------------------- #
# REP006 — Python-level loops over numpy arrays
# --------------------------------------------------------------------- #

_ITER_WRAPPERS = {"zip", "enumerate", "reversed", "sorted"}


def _is_ndarray_annotation(annotation: ast.expr | None, ctx: ModuleContext) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Attribute) and annotation.attr == "ndarray":
        return ctx.is_numpy(annotation.value)
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return annotation.value.endswith("ndarray")
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return _is_ndarray_annotation(annotation.left, ctx) or _is_ndarray_annotation(
            annotation.right, ctx
        )
    return False


def _check_rep006(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Python ``for`` loops iterating numpy arrays in ``core``/``scan``.

    A Python-level loop over array elements is 100-1000x slower than the
    vectorized equivalent and is exactly how hot paths regress quietly.
    Tracks names bound from ``np.*`` calls (and slices of them) plus
    parameters annotated ``np.ndarray``, then flags ``for`` statements and
    comprehensions whose iterable is tracked (directly or through
    ``zip``/``enumerate``/``reversed``/``sorted``).
    """
    for scope in _function_scopes(ctx.tree):
        tracked: set[str] = set()
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = scope.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if _is_ndarray_annotation(arg.annotation, ctx):
                    tracked.add(arg.arg)
        changed = True
        while changed:  # tiny fixpoint for chains like a = np.sort(x); b = a[1:]
            changed = False
            for node in _scope_statements(scope):
                if not isinstance(node, ast.Assign):
                    continue
                value = node.value
                derived = (
                    (
                        isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Attribute)
                        and ctx.is_numpy(value.func.value)
                    )
                    or (
                        isinstance(value, ast.Subscript)
                        and isinstance(value.value, ast.Name)
                        and value.value.id in tracked
                    )
                    or (isinstance(value, ast.Name) and value.id in tracked)
                )
                if derived:
                    for target in node.targets:
                        for name in _assigned_names(target):
                            if name.id not in tracked:
                                tracked.add(name.id)
                                changed = True

        def tracked_iterable(node: ast.expr) -> bool:
            if isinstance(node, ast.Name):
                return node.id in tracked
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ITER_WRAPPERS
            ):
                return any(tracked_iterable(arg) for arg in node.args)
            if isinstance(node, ast.Subscript):
                # Slicing an array yields an array; x[i] may be a scalar row
                # — only flag slice expressions.
                return (
                    isinstance(node.slice, ast.Slice)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in tracked
                )
            return False

        for node in _scope_statements(scope):
            if isinstance(node, (ast.For, ast.AsyncFor)) and tracked_iterable(node.iter):
                yield ctx.diag(
                    "REP006",
                    node,
                    "Python-level for loop over a numpy array on the hot "
                    "path; vectorize or suppress with a rationale",
                )
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if tracked_iterable(generator.iter):
                        yield ctx.diag(
                            "REP006",
                            node,
                            "comprehension over a numpy array on the hot path; "
                            "vectorize or suppress with a rationale",
                        )
                        break


# --------------------------------------------------------------------- #
# REP007 — legacy global-RNG usage
# --------------------------------------------------------------------- #

_ALLOWED_RANDOM_ATTRS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "MT19937", "PCG64", "PCG64DXSM", "Philox", "SFC64",
}


def _check_rep007(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Legacy global numpy RNG (``np.random.seed``/``rand``/...).

    The repo's convention is explicit generators via
    :func:`repro._util.as_rng`; global-RNG calls make experiments
    irreproducible across module import order and break parallel runs.
    """
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Attribute)
            and ctx.is_numpy_random(node.value)
            and node.attr not in _ALLOWED_RANDOM_ATTRS
        ):
            yield ctx.diag(
                "REP007",
                node,
                f"legacy global RNG np.random.{node.attr}; use as_rng / "
                "np.random.default_rng",
            )
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in _ALLOWED_RANDOM_ATTRS and alias.name != "*":
                    yield ctx.diag(
                        "REP007",
                        node,
                        f"legacy numpy.random.{alias.name} import; use "
                        "np.random.default_rng",
                    )


# --------------------------------------------------------------------- #
# REP008 — array-contract / signature agreement
# --------------------------------------------------------------------- #


def _check_rep008(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """``@array_contract`` strings must parse and name real parameters.

    The runtime half validates this at import time; the linter repeats the
    check statically so contract drift is caught even in code paths no test
    imports.
    """
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for decorator in node.decorator_list:
            if not (
                isinstance(decorator, ast.Call)
                and (
                    (isinstance(decorator.func, ast.Name) and decorator.func.id == "array_contract")
                    or (
                        isinstance(decorator.func, ast.Attribute)
                        and decorator.func.attr == "array_contract"
                    )
                )
            ):
                continue
            arg_names = {
                arg.arg
                for arg in [
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                ]
            }
            for positional in decorator.args:
                if not (
                    isinstance(positional, ast.Constant)
                    and isinstance(positional.value, str)
                ):
                    continue  # dynamic spec: runtime check covers it
                try:
                    spec = parse_param_spec(positional.value)
                except ContractSpecError as exc:
                    yield ctx.diag("REP008", positional, str(exc))
                    continue
                if spec.name not in arg_names:
                    yield ctx.diag(
                        "REP008",
                        positional,
                        f"contract names parameter {spec.name!r} missing from "
                        f"the signature of {node.name}()",
                    )
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "returns"
                    and isinstance(keyword.value, ast.Constant)
                    and isinstance(keyword.value.value, str)
                ):
                    try:
                        parse_return_spec(keyword.value.value)
                    except ContractSpecError as exc:
                        yield ctx.diag("REP008", keyword.value, str(exc))


# --------------------------------------------------------------------- #
# REP009 — public API without docstrings
# --------------------------------------------------------------------- #


def _is_property_companion(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """``@x.setter`` / ``@x.deleter``: the docstring lives on the getter."""
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Attribute) and decorator.attr in {
            "setter",
            "deleter",
        }:
            return True
    return False


def _check_rep009(ctx: ModuleContext) -> Iterable[Diagnostic]:
    """Public functions, classes, and methods must carry a docstring.

    The reproduction's API is its documentation contract: ``__all__`` (REP004)
    says *what* is public, the docstring says what the public thing *does* —
    in particular which invariants of ``docs/algorithms.md`` it relies on.
    Names with a leading underscore (including dunders) are exempt, as are
    ``@x.setter``/``@x.deleter`` companions whose docstring belongs on the
    getter.
    """

    def public(name: str) -> bool:
        return not name.startswith("_")

    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if (
                public(stmt.name)
                and not _is_property_companion(stmt)
                and ast.get_docstring(stmt) is None
            ):
                yield ctx.diag(
                    "REP009",
                    stmt,
                    f"public function {stmt.name!r} has no docstring",
                )
        elif isinstance(stmt, ast.ClassDef) and public(stmt.name):
            if ast.get_docstring(stmt) is None:
                yield ctx.diag(
                    "REP009",
                    stmt,
                    f"public class {stmt.name!r} has no docstring",
                )
            for sub in stmt.body:
                if (
                    isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and public(sub.name)
                    and not _is_property_companion(sub)
                    and ast.get_docstring(sub) is None
                ):
                    yield ctx.diag(
                        "REP009",
                        sub,
                        f"public method {stmt.name}.{sub.name}() has no docstring",
                    )


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

REGISTRY: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        Rule(
            id="REP001",
            name="unguarded-full-scan",
            summary="full feature-matrix scalar product outside FeatureStore/baseline",
            applies=_scope_packages(
                "core",
                "scan",
                "moving",
                "obs",
                "parallel",
                exempt_modules=("repro.core.feature_store", "repro.scan.baseline"),
            ),
            check=_check_rep001,
        ),
        Rule(
            id="REP002",
            name="dtype-drift",
            summary="numeric dtype other than float64/int64 on the hot path",
            applies=_scope_packages(
                "core", "scan", "geometry", "moving", "obs", "parallel"
            ),
            check=_check_rep002,
        ),
        Rule(
            id="REP003",
            name="mutable-default",
            summary="mutable default argument",
            applies=_everywhere,
            check=_check_rep003,
        ),
        Rule(
            id="REP004",
            name="all-consistency",
            summary="missing or inconsistent __all__",
            applies=_everywhere,
            check=_check_rep004,
        ),
        Rule(
            id="REP005",
            name="broad-except",
            summary="bare or over-broad except clause",
            applies=_everywhere,
            check=_check_rep005,
        ),
        Rule(
            id="REP006",
            name="python-loop-over-array",
            summary="Python-level loop over a numpy array in core/scan",
            applies=_scope_packages("core", "scan", "obs", "parallel"),
            check=_check_rep006,
        ),
        Rule(
            id="REP007",
            name="legacy-global-rng",
            summary="legacy global numpy RNG instead of as_rng/default_rng",
            applies=_everywhere,
            check=_check_rep007,
        ),
        Rule(
            id="REP008",
            name="contract-signature-drift",
            summary="@array_contract string disagrees with the function signature",
            applies=_everywhere,
            check=_check_rep008,
        ),
        Rule(
            id="REP009",
            name="public-missing-docstring",
            summary="public function/class/method without a docstring",
            applies=_everywhere,
            check=_check_rep009,
        ),
    )
}


def rule_ids() -> list[str]:
    """All registered rule ids, sorted."""
    return sorted(REGISTRY)


def check_module(
    path: str,
    module_name: str | None,
    tree: ast.Module,
    select: set[str] | None = None,
) -> list[Diagnostic]:
    """Run every applicable rule over one parsed module."""
    ctx = ModuleContext(path, module_name, tree)
    diagnostics: list[Diagnostic] = []
    for rule in REGISTRY.values():
        if select is not None and rule.id not in select:
            continue
        if not rule.applies(module_name):
            continue
        diagnostics.extend(rule.check(ctx))
    diagnostics.sort()
    return diagnostics
