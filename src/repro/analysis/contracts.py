"""Runtime array contracts for the Planar index's numeric invariants.

The Planar index is numerically correct only under invariants the Python
type system cannot see: hot-path arrays must be (or coerce to) contiguous
``float64``/``int64`` (``float32`` keys and ``uint32`` ids in the sorted
key stores), shapes must agree across arguments (``m`` ids for
``m`` rows), and feature values must be finite — NaN/inf silently corrupt
the sorted key order and turn interval pruning into a wrong-answer bug
rather than a crash.  :func:`array_contract` makes those invariants
machine-checkable at the public entry points:

>>> @array_contract("features: (n, d) float64 C", returns="(n,) float64")
... def keys(features, normal):
...     return features @ normal

By default the decorator is a **zero-overhead no-op**: it attaches the
parsed contract to the function as ``__array_contract__`` (for tooling and
the REP008 lint cross-check) and returns the *original* function object —
no wrapper, no per-call cost.  When the environment variable
``REPRO_SANITIZE`` is truthy at import time, every decorated entry point is
wrapped with full shape/dtype/contiguity/finiteness checking and raises
:class:`~repro.exceptions.ContractViolationError` on the first violation.

Contract-string mini-grammar
----------------------------
One string per parameter (plus an optional ``returns=`` spec without the
leading name)::

    spec    := name ":" ["?"] "(" dims ")" dtype {flag}
    dims    := dim { "," dim } [","]          — e.g. "(n, d)", "(m,)"
    dim     := symbol | integer               — symbols bind per call
    dtype   := "float64" | "int64" | "float32" | "uint32" | "bool" | "any"
    flag    := "C" | "cast" | "promote" | "opt" | "nonfinite"

Semantics under ``REPRO_SANITIZE=1``:

``symbolic dims``
    The first occurrence of a symbol binds its size; later occurrences in
    the same call (across parameters and the return value) must match, so
    ``"ids: (m,) int64", "rows: (m, d) float64"`` enforces one id per row.
``C``
    The value must be a C-contiguous ``numpy.ndarray`` (checked only for
    ndarray inputs; list inputs are coerced contiguous downstream anyway).
``cast``
    Lenient dtype check: the input dtype only needs to be same-kind
    castable to the declared dtype.  Used on coercion points whose
    documented behavior is to accept any array-like.  Signed and unsigned
    integers count as one kind here, so ``int64`` ids pass a ``uint32``
    id contract; the callee owns the range check.
``promote``
    Allow one missing leading axis (a single point where a batch is
    expected), mirroring :func:`repro._util.as_2d_float` promotion.
``opt`` / leading ``?``
    ``None`` is accepted and skipped.
``nonfinite``
    Skip the NaN/inf check (default: float arrays must be finite).

Violations raise :class:`ContractViolationError`, a
:class:`~repro.exceptions.DimensionMismatchError` (and ``ValueError``)
subclass, so sanitized runs keep the library's error contract.
"""

from __future__ import annotations

import functools
import inspect
import os
import re
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..exceptions import ContractSpecError, ContractViolationError

__all__ = [
    "array_contract",
    "Contract",
    "ArraySpec",
    "parse_param_spec",
    "parse_return_spec",
    "sanitize_enabled",
    "checked",
]

_TRUTHY = {"1", "true", "yes", "on"}

_DTYPES: dict[str, np.dtype | None] = {
    "float64": np.dtype(np.float64),
    "int64": np.dtype(np.int64),
    # The stored key and id dtypes of repro.core.sorted_keys.
    "float32": np.dtype("float32"),
    "uint32": np.dtype("uint32"),
    "bool": np.dtype(np.bool_),
    "any": None,
}

_FLAGS = {"C", "cast", "promote", "opt", "nonfinite"}

_SPEC_RE = re.compile(
    r"""^\s*
        (?:(?P<name>[A-Za-z_][A-Za-z0-9_]*)\s*:\s*)?   # parameter name
        (?P<opt>\?)?\s*
        \(\s*(?P<dims>[^)]*)\)\s*
        (?P<dtype>[A-Za-z_][A-Za-z0-9_]*)
        (?P<flags>(?:\s+[A-Za-z]+)*)\s*$""",
    re.VERBOSE,
)


def sanitize_enabled() -> bool:
    """Whether ``REPRO_SANITIZE`` requests full contract checking.

    Read at decoration (import) time: the default mode must stay a true
    no-op, so enabling the sanitizer requires setting the variable before
    importing :mod:`repro`.
    """
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY


@dataclass(frozen=True)
class ArraySpec:
    """One parsed parameter (or return-value) contract."""

    name: str
    dims: tuple[str | int, ...]
    dtype: np.dtype | None
    contiguous: bool = False
    cast: bool = False
    promote: bool = False
    optional: bool = False
    check_finite: bool = True

    def check(self, value: Any, env: dict[str, int], where: str) -> None:
        """Validate ``value``, binding symbolic dims into ``env``."""
        if value is None:
            if self.optional:
                return
            raise ContractViolationError(f"{where}: got None for a required array")
        is_array = isinstance(value, np.ndarray)
        try:
            arr = value if is_array else np.asarray(value)
        except Exception as exc:  # repro: noqa(REP005) — any asarray failure is a violation
            raise ContractViolationError(f"{where}: not array-like ({exc})") from exc
        if self.dtype is not None:
            if is_array and not self.cast:
                if arr.dtype != self.dtype:
                    raise ContractViolationError(
                        f"{where}: dtype {arr.dtype} != required {self.dtype}"
                    )
            elif not (
                np.can_cast(arr.dtype, self.dtype, casting="same_kind")
                or (arr.dtype.kind in "iu" and self.dtype.kind in "iu")
            ):
                raise ContractViolationError(
                    f"{where}: dtype {arr.dtype} is not same-kind castable "
                    f"to {self.dtype}"
                )
        if self.contiguous and is_array and not arr.flags["C_CONTIGUOUS"]:
            raise ContractViolationError(f"{where}: array is not C-contiguous")
        shape: tuple[int, ...] = arr.shape
        if len(shape) != len(self.dims):
            if self.promote and len(shape) == len(self.dims) - 1:
                shape = (1, *shape)
            else:
                raise ContractViolationError(
                    f"{where}: shape {arr.shape} does not match pattern "
                    f"({', '.join(map(str, self.dims))})"
                )
        for sym, size in zip(self.dims, shape):
            if isinstance(sym, int):
                if size != sym:
                    raise ContractViolationError(
                        f"{where}: axis of size {size} where {sym} required"
                    )
            else:
                bound = env.setdefault(sym, int(size))
                if bound != size:
                    raise ContractViolationError(
                        f"{where}: dim {sym!r} = {size} conflicts with "
                        f"{sym!r} = {bound} bound earlier in this call"
                    )
        if (
            self.check_finite
            and arr.dtype.kind == "f"
            and arr.size
            and not bool(np.all(np.isfinite(arr)))
        ):
            # Name the offending positions, mirroring the library's own
            # eager validation (`repro._util.require_finite_rows`), so
            # the documented "names the position" error contract holds
            # whether the sanitizer or the inner check fires first.
            bad = np.argwhere(~np.isfinite(arr))
            first = bad[0]
            pos = ", ".join(str(int(i)) for i in first)
            extra = f" (+{len(bad) - 1} more)" if len(bad) > 1 else ""
            raise ContractViolationError(
                f"{where}: array must be finite; [{pos}] is "
                f"{arr[tuple(first)]!r}{extra}"
            )


def _parse(text: str, *, need_name: bool) -> ArraySpec:
    match = _SPEC_RE.match(text)
    if match is None:
        raise ContractSpecError(f"unparsable contract spec {text!r}")
    name = match.group("name")
    if need_name and name is None:
        raise ContractSpecError(f"contract spec {text!r} is missing 'name:'")
    if not need_name and name is not None:
        raise ContractSpecError(f"returns spec {text!r} must not carry a name")
    dims_text = match.group("dims").strip()
    dims: list[str | int] = []
    if dims_text:
        for part in dims_text.split(","):
            part = part.strip()
            if not part:
                continue  # trailing comma, e.g. "(n,)"
            dims.append(int(part) if part.lstrip("-").isdigit() else part)
            if isinstance(dims[-1], str) and not dims[-1].isidentifier():
                raise ContractSpecError(
                    f"bad dimension {part!r} in contract spec {text!r}"
                )
    dtype_name = match.group("dtype")
    if dtype_name not in _DTYPES:
        raise ContractSpecError(
            f"unknown dtype {dtype_name!r} in contract spec {text!r} "
            f"(allowed: {sorted(_DTYPES)})"
        )
    flags = set(match.group("flags").split())
    unknown = flags - _FLAGS
    if unknown:
        raise ContractSpecError(
            f"unknown flags {sorted(unknown)} in contract spec {text!r}"
        )
    return ArraySpec(
        name=name or "<return>",
        dims=tuple(dims),
        dtype=_DTYPES[dtype_name],
        contiguous="C" in flags,
        cast="cast" in flags,
        promote="promote" in flags,
        optional=bool(match.group("opt")) or "opt" in flags,
        check_finite="nonfinite" not in flags,
    )


def parse_param_spec(text: str) -> ArraySpec:
    """Parse one named parameter contract string (``"rows: (m, d) float64 C"``)."""
    return _parse(text, need_name=True)


def parse_return_spec(text: str) -> ArraySpec:
    """Parse a return-value contract string (``"(n,) float64"``)."""
    return _parse(text, need_name=False)


@dataclass(frozen=True)
class Contract:
    """A full function contract: parameter specs plus an optional return spec."""

    params: tuple[ArraySpec, ...]
    returns: ArraySpec | None

    @classmethod
    def parse(cls, param_specs: tuple[str, ...], returns: str | None) -> "Contract":
        """Parse decorator arguments, rejecting duplicate parameter specs."""
        params = tuple(parse_param_spec(text) for text in param_specs)
        seen: set[str] = set()
        for spec in params:
            if spec.name in seen:
                raise ContractSpecError(f"duplicate contract for parameter {spec.name!r}")
            seen.add(spec.name)
        return cls(params, parse_return_spec(returns) if returns is not None else None)

    def validate_signature(self, fn: Callable) -> None:
        """Fail fast (at decoration time) when a spec names a missing parameter."""
        parameters = inspect.signature(fn).parameters
        for spec in self.params:
            if spec.name not in parameters:
                raise ContractSpecError(
                    f"@array_contract on {fn.__qualname__} names parameter "
                    f"{spec.name!r} which is not in its signature "
                    f"({', '.join(parameters)})"
                )


def _make_checked(fn: Callable, contract: Contract) -> Callable:
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        env: dict[str, int] = {}
        for spec in contract.params:
            if spec.name in bound.arguments:
                spec.check(
                    bound.arguments[spec.name],
                    env,
                    f"{fn.__qualname__}({spec.name})",
                )
        result = fn(*args, **kwargs)
        if contract.returns is not None:
            contract.returns.check(result, env, f"{fn.__qualname__} -> return")
        return result

    wrapper.__array_contract__ = contract  # type: ignore[attr-defined]
    wrapper.__array_contract_checked__ = True  # type: ignore[attr-defined]
    return wrapper


def array_contract(*param_specs: str, returns: str | None = None) -> Callable:
    """Attach (and, under ``REPRO_SANITIZE=1``, enforce) an array contract.

    Parameters
    ----------
    param_specs:
        One contract string per checked parameter (see the module docstring
        for the mini-grammar).  Parameters not named are not checked.
    returns:
        Optional contract for the return value, without the leading name.

    The parsed :class:`Contract` is always attached as
    ``fn.__array_contract__``; the checking wrapper is only installed when
    the sanitizer is enabled, so the default configuration returns the
    original function object unchanged (zero overhead).
    """
    contract = Contract.parse(param_specs, returns)

    def decorate(fn: Callable) -> Callable:
        contract.validate_signature(fn)
        if not sanitize_enabled():
            fn.__array_contract__ = contract  # type: ignore[attr-defined]
            return fn
        return _make_checked(fn, contract)

    return decorate


def checked(fn: Callable) -> Callable:
    """Force-build the checking wrapper for ``fn`` regardless of environment.

    Intended for tests: lets the enforcement logic be exercised in a
    process where ``REPRO_SANITIZE`` was unset at import time.  ``fn`` must
    have been decorated with :func:`array_contract`.
    """
    contract = getattr(fn, "__array_contract__", None)
    if contract is None:
        raise ContractSpecError(f"{fn!r} carries no __array_contract__")
    if getattr(fn, "__array_contract_checked__", False):
        return fn
    return _make_checked(fn, contract)
