"""Tests for :mod:`repro.analysis.contracts`.

Covers the contract mini-grammar, the zero-overhead default mode, the
enforcement semantics of every flag, and a subprocess check that
``REPRO_SANITIZE=1`` actually arms the decorated entry points.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import contracts
from repro.analysis.contracts import (
    Contract,
    array_contract,
    checked,
    parse_param_spec,
    parse_return_spec,
    sanitize_enabled,
)
from repro.exceptions import (
    ContractSpecError,
    ContractViolationError,
    DimensionMismatchError,
    ReproError,
)

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


# --------------------------------------------------------------------- #
# Grammar
# --------------------------------------------------------------------- #


class TestGrammar:
    def test_basic_param_spec(self):
        spec = parse_param_spec("features: (n, d) float64 C")
        assert spec.name == "features"
        assert spec.dims == ("n", "d")
        assert spec.dtype == np.dtype(np.float64)
        assert spec.contiguous
        assert not spec.cast and not spec.optional

    def test_trailing_comma_one_dim(self):
        spec = parse_param_spec("ids: (m,) int64 cast")
        assert spec.dims == ("m",)
        assert spec.cast

    def test_fixed_integer_dim(self):
        spec = parse_param_spec("corner: (3,) float64")
        assert spec.dims == (3,)

    def test_optional_question_mark(self):
        spec = parse_param_spec("ids: ?(n,) int64 cast")
        assert spec.optional

    def test_optional_flag_word(self):
        assert parse_param_spec("ids: (n,) int64 opt").optional

    def test_nonfinite_flag(self):
        assert not parse_param_spec("vals: (n,) float64 nonfinite").check_finite
        assert parse_param_spec("vals: (n,) float64").check_finite

    def test_any_dtype(self):
        assert parse_param_spec("x: (n,) any").dtype is None

    def test_return_spec_has_no_name(self):
        spec = parse_return_spec("(k,) int64")
        assert spec.name == "<return>"
        with pytest.raises(ContractSpecError):
            parse_return_spec("out: (k,) int64")

    @pytest.mark.parametrize(
        "bad",
        [
            "features (n, d) float64",  # missing colon
            "features: (n, d) float16",  # unknown dtype
            "features: (n, d) float64 Z",  # unknown flag
            "features: (n-d) float64",  # bad dim symbol
            "features: n, d float64",  # missing parens
            "",
        ],
    )
    def test_unparsable_specs(self, bad):
        with pytest.raises(ContractSpecError):
            parse_param_spec(bad)

    def test_duplicate_param_rejected(self):
        with pytest.raises(ContractSpecError):
            Contract.parse(("a: (n,) float64", "a: (n,) int64"), None)

    def test_signature_drift_fails_at_decoration_time(self):
        with pytest.raises(ContractSpecError):

            @array_contract("nope: (n,) float64")
            def fn(values):
                return values


# --------------------------------------------------------------------- #
# Zero-overhead default mode
# --------------------------------------------------------------------- #


class TestDefaultMode:
    def test_decorator_is_identity_when_disabled(self):
        """The deployed configuration: original function object, no wrapper."""
        if sanitize_enabled():
            pytest.skip("suite running under REPRO_SANITIZE=1")

        def fn(values):
            return values

        decorated = array_contract("values: (n,) float64")(fn)
        assert decorated is fn  # not merely equivalent: the same object
        assert hasattr(decorated, "__array_contract__")

    def test_library_entry_points_carry_contracts(self):
        from repro.core.feature_store import FeatureStore
        from repro.core.sorted_keys import SortedKeyStore
        from repro.scan.baseline import SequentialScan

        for fn in (
            FeatureStore.get,
            FeatureStore.take_rows,
            SortedKeyStore.update_batch,
            SequentialScan.query,
        ):
            assert getattr(fn, "__array_contract__", None) is not None

    def test_checked_requires_a_contract(self):
        with pytest.raises(ContractSpecError):
            contracts.checked(len)


# --------------------------------------------------------------------- #
# Enforcement (via contracts.checked, independent of the environment)
# --------------------------------------------------------------------- #


@array_contract(
    "ids: (m,) int64 cast",
    "rows: (m, d) float64 cast",
    returns="(m,) float64",
)
def _keyed(ids, rows, normal=None):
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[None, :]
    if normal is None:
        normal = np.ones(rows.shape[1])
    return rows @ normal


@array_contract("x: (n,) float64", returns="(n,) float64")
def _strict_identity(x):
    return x


@array_contract("x: (n,) float64 C")
def _needs_contiguous(x):
    return x


@array_contract("x: ?(n,) float64 cast")
def _optional_arg(x=None):
    return 0 if x is None else len(x)


@array_contract("x: (n,) float64 nonfinite")
def _allows_nan(x):
    return x


@array_contract("x: (n, d) float64 cast promote")
def _promoting(x):
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


@array_contract("x: (n,) float64", returns="(n,) int64")
def _lying_return(x):
    return x  # float64, but the contract promises int64


class TestEnforcement:
    def test_good_call_passes(self):
        fn = checked(_keyed)
        out = fn(np.arange(3, dtype=np.int64), np.ones((3, 2)))
        assert out.shape == (3,)

    def test_cross_parameter_dim_binding(self):
        fn = checked(_keyed)
        with pytest.raises(ContractViolationError, match="conflicts with"):
            fn(np.arange(3, dtype=np.int64), np.ones((4, 2)))

    def test_return_value_binds_same_env(self):
        fn = checked(_keyed)
        # m bound to 2 by the inputs; the (m,) return matches.
        assert fn(np.arange(2, dtype=np.int64), np.ones((2, 5))).shape == (2,)

    def test_return_contract_violation(self):
        fn = checked(_lying_return)
        with pytest.raises(ContractViolationError, match="return"):
            fn(np.ones(4))

    def test_strict_dtype_rejects_float32_ndarray(self):
        fn = checked(_strict_identity)
        with pytest.raises(ContractViolationError, match="dtype"):
            fn(np.ones(4, dtype=np.float32))

    def test_cast_accepts_same_kind(self):
        fn = checked(_keyed)
        # float32 rows are same-kind castable to float64 under `cast`.
        assert fn(np.arange(2), np.ones((2, 3), dtype=np.float32)).shape == (2,)

    def test_cast_rejects_cross_kind(self):
        fn = checked(_keyed)
        with pytest.raises(ContractViolationError, match="castable"):
            fn(np.array([1.5, 2.5]), np.ones((2, 3)))  # float ids

    def test_contiguity_enforced_for_ndarray(self):
        fn = checked(_needs_contiguous)
        strided = np.ones(16)[::2]
        assert not strided.flags["C_CONTIGUOUS"]
        with pytest.raises(ContractViolationError, match="contiguous"):
            fn(strided)
        fn(np.ones(8))  # contiguous passes

    def test_none_rejected_unless_optional(self):
        with pytest.raises(ContractViolationError, match="None"):
            checked(_strict_identity)(None)
        assert checked(_optional_arg)() == 0
        assert checked(_optional_arg)(np.ones(3)) == 3

    def test_nan_rejected_by_default(self):
        fn = checked(_strict_identity)
        # The message names the offending position, mirroring the
        # library's own eager validation.
        with pytest.raises(ContractViolationError, match=r"finite.*\[1\].*nan"):
            fn(np.array([1.0, np.nan]))

    def test_nonfinite_flag_admits_nan(self):
        fn = checked(_allows_nan)
        fn(np.array([np.inf, np.nan]))  # does not raise

    def test_promote_allows_single_point(self):
        fn = checked(_promoting)
        assert fn(np.ones(4)).shape == (1, 4)
        assert fn(np.ones((3, 4))).shape == (3, 4)
        with pytest.raises(ContractViolationError, match="shape"):
            fn(np.ones((2, 3, 4)))

    def test_fixed_dim_enforced(self):
        @array_contract("x: (2,) float64")
        def two(x):
            return x

        fn = checked(two)
        fn(np.ones(2))
        with pytest.raises(ContractViolationError, match="2 required"):
            fn(np.ones(3))

    def test_violation_is_a_value_error(self):
        """Sanitized runs must keep the library's documented error types."""
        assert issubclass(ContractViolationError, DimensionMismatchError)
        assert issubclass(ContractViolationError, ValueError)
        assert issubclass(ContractViolationError, ReproError)

    def test_checked_is_idempotent(self):
        fn = checked(_strict_identity)
        assert checked(fn) is fn

    def test_keyword_arguments_are_bound(self):
        fn = checked(_keyed)
        with pytest.raises(ContractViolationError):
            fn(rows=np.ones((3, 2)), ids=np.arange(4, dtype=np.int64))


# --------------------------------------------------------------------- #
# REPRO_SANITIZE=1 end-to-end (fresh interpreter: env read at import time)
# --------------------------------------------------------------------- #


def _run_sanitized(code: str) -> subprocess.CompletedProcess:
    # The repository root on the path makes the test helpers importable.
    env = dict(os.environ, REPRO_SANITIZE="1", PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestSanitizedProcess:
    def test_violation_caught_at_entry_point(self):
        proc = _run_sanitized(
            "import numpy as np\n"
            "from repro.core.feature_store import FeatureStore\n"
            "from repro.exceptions import ContractViolationError\n"
            "store = FeatureStore(np.ones((4, 2)))\n"
            "try:\n"
            "    store.update(np.arange(2), np.full((2, 2), np.nan))\n"
            "except ContractViolationError as exc:\n"
            "    print('CAUGHT', exc)\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert "CAUGHT" in proc.stdout
        assert "nan" in proc.stdout
        assert "[0, 0]" in proc.stdout  # first offending position is named

    def test_good_query_unaffected(self):
        proc = _run_sanitized(
            "import numpy as np\n"
            "from repro.core.query import ScalarProductQuery\n"
            "from tests.conftest import one_index\n"
            "rng = np.random.default_rng(7)\n"
            "collection = one_index(rng.uniform(1, 9, (50, 3)), np.ones(3))\n"
            "q = ScalarProductQuery(np.array([1.0, 2.0, 1.0]), 20.0)\n"
            "print('OK', len(collection.query(q).ids))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OK")

    def test_wrapper_installed_only_when_enabled(self):
        proc = _run_sanitized(
            "from repro.core.feature_store import FeatureStore\n"
            "print(getattr(FeatureStore.get, '__array_contract_checked__', False))\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"
