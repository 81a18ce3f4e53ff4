"""Unit tests for the whole-program graph layer (repro.analysis.graph).

Each test writes a tiny synthetic package into tmp_path and asserts the
graph facts the cross-module rules (REP010–REP014) consume: import edges
and their lazy flags, lock attributes and guarded writes, module-global
mutable state, environment reads, executor submissions and reachability.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.graph import build_graph, package_root_for


def write_package(root: Path, name: str, files: dict[str, str]) -> Path:
    """Materialise ``{relpath: source}`` as package ``name`` under ``root``."""
    pkg = root / name
    for relpath, source in files.items():
        path = pkg / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        # Every directory on the way needs an __init__.py to be a package.
        current = path.parent
        while current != root:
            init = current / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            current = current.parent
    return pkg


class TestPackageRoot:
    def test_walks_to_topmost_package(self, tmp_path):
        pkg = write_package(tmp_path, "app", {"sub/mod.py": "X = 1\n"})
        assert package_root_for(pkg / "sub" / "mod.py") == pkg
        assert package_root_for(pkg / "sub") == pkg

    def test_none_outside_a_package(self, tmp_path):
        script = tmp_path / "script.py"
        script.write_text("X = 1\n", encoding="utf-8")
        assert package_root_for(script) is None


class TestImportEdges:
    def test_module_level_vs_lazy(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "a.py": """\
                    from app import b

                    def f():
                        from app import c
                    """,
                "b.py": "",
                "c.py": "",
            },
        )
        graph = build_graph(pkg)
        edges = {(e.target, e.lazy) for e in graph.modules["app.a"].import_edges}
        assert ("app.b", False) in edges
        assert ("app.c", True) in edges
        eager = {e.target for e in graph.module_edges()}
        assert "app.c" not in eager
        assert "app.c" in {e.target for e in graph.module_edges(include_lazy=True)}

    def test_relative_import_resolution(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "sub/a.py": "from ..other import helper\n",
                "other.py": "def helper():\n    pass\n",
            },
        )
        graph = build_graph(pkg)
        targets = {e.target for e in graph.modules["app.sub.a"].import_edges}
        assert targets == {"app.other"}

    def test_from_import_distinguishes_modules_and_names(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "a.py": "from app.sub import mod\nfrom app.other import helper\n",
                "sub/mod.py": "",
                "other.py": "def helper():\n    pass\n",
            },
        )
        graph = build_graph(pkg)
        info = graph.modules["app.a"]
        assert info.module_aliases["mod"] == "app.sub.mod"
        assert info.imported_names["helper"] == ("app.other", "helper")


class TestClassIndex:
    SOURCE = """\
        import threading

        class Store:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self._count = 0

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def reset(self):
                self._count = 0
    """

    def test_lock_attrs_and_guarded_writes(self, tmp_path):
        pkg = write_package(tmp_path, "app", {"store.py": self.SOURCE})
        graph = build_graph(pkg)
        cls = graph.modules["app.store"].classes["Store"]
        assert cls.lock_attrs == {"_lock"}
        writes = {w.attr: w for w in cls.attr_writes if not w.in_init}
        assert "_lock" in writes["_items"].guard_attrs  # mutator call, guarded
        assert not writes["_count"].guard_attrs  # plain assign, unguarded
        init_writes = {w.attr for w in cls.attr_writes if w.in_init}
        assert init_writes == {"_items", "_count"}  # lock ctor excluded

    def test_lock_via_from_import(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "store.py": """\
                    from threading import RLock

                    class Store:
                        def __init__(self):
                            self._mu = RLock()
                    """
            },
        )
        graph = build_graph(pkg)
        assert graph.modules["app.store"].classes["Store"].lock_attrs == {"_mu"}


class TestGlobals:
    def test_global_decl_after_reader_still_counts(self, tmp_path):
        # The reader appears before the ``global`` statement in the file;
        # the two-pass scan must still classify ENABLED as mutable.
        pkg = write_package(
            tmp_path,
            "app",
            {
                "state.py": """\
                    ENABLED = False
                    LIMIT = 10

                    def check():
                        return ENABLED

                    def enable():
                        global ENABLED
                        ENABLED = True
                    """
            },
        )
        graph = build_graph(pkg)
        info = graph.modules["app.state"]
        assert "ENABLED" in info.mutable_globals
        assert "LIMIT" not in info.mutable_globals
        uses = info.functions["check"].global_uses
        assert [(u.name, u.is_write) for u in uses] == [("ENABLED", False)]

    def test_cross_module_alias_access_filtered_to_real_globals(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "state.py": """\
                    ARMED = False
                    CONST = 3

                    def arm():
                        global ARMED
                        ARMED = True
                    """,
                "user.py": """\
                    from app import state

                    def f():
                        return state.ARMED, state.CONST
                    """,
            },
        )
        graph = build_graph(pkg)
        uses = graph.modules["app.user"].functions["f"].global_uses
        assert [(u.owner, u.name) for u in uses] == [("app.state", "ARMED")]


class TestEnvReads:
    SOURCE = """\
        import os
        from os import environ, getenv

        STATE_ENV = "APP_STATE"

        def read():
            a = os.environ.get("APP_FLAG", "0")
            b = os.getenv("APP_SEED")
            c = environ["APP_MODE"]
            d = getenv(STATE_ENV)
            return a, b, c, d
    """

    def test_all_read_forms_and_constant_indirection(self, tmp_path):
        pkg = write_package(tmp_path, "app", {"config.py": self.SOURCE})
        graph = build_graph(pkg)
        names = {r.name for r in graph.modules["app.config"].env_reads}
        assert names == {"APP_FLAG", "APP_SEED", "APP_MODE", "APP_STATE"}


class TestSubmissionsAndReachability:
    SOURCE = {
        "engine.py": """\
            from concurrent.futures import ThreadPoolExecutor
            from app import state

            class Engine:
                def run(self):
                    with ThreadPoolExecutor() as pool:
                        pool.submit(self._work, 1)

                def _work(self, shard):
                    return state.helper(shard)
            """,
        "state.py": """\
            ARMED = False

            def arm():
                global ARMED
                ARMED = True

            def helper(shard):
                if ARMED:
                    return None
                return shard
            """,
    }

    def test_bfs_through_self_and_module_calls(self, tmp_path):
        pkg = write_package(tmp_path, "app", self.SOURCE)
        graph = build_graph(pkg)
        sites = list(graph.submission_sites())
        assert len(sites) == 1 and sites[0].module == "app.engine"
        reachable = graph.reachable_from_submissions()
        assert "app.engine.Engine._work" in reachable
        assert "app.state.helper" in reachable
        assert "app.state.arm" not in reachable  # never called from the pool

    def test_copy_context_run_submits_the_wrapped_callable(self, tmp_path):
        source = dict(self.SOURCE)
        source["engine.py"] = source["engine.py"].replace(
            "pool.submit(self._work, 1)",
            "pool.submit(contextvars.copy_context().run, self._work, 1)",
        ).replace("from app import state", "import contextvars\n            from app import state")
        graph = build_graph(write_package(tmp_path, "app", source))
        (site,) = graph.submission_sites()
        assert site.callee is not None and site.callee.name == "_work"
        reachable = graph.reachable_from_submissions()
        assert "app.engine.Engine._work" in reachable
        assert "app.state.helper" in reachable


class TestResolution:
    def test_resolve_class_through_reexport(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "__init__.py": "from app.impl import Widget\n",
                "impl.py": """\
                    class Widget:
                        def close(self):
                            pass
                    """,
                "user.py": """\
                    from app import Widget

                    def make():
                        return Widget()
                    """,
            },
        )
        graph = build_graph(pkg)
        user = graph.modules["app.user"]
        from repro.analysis.graph import CallRef

        cls = graph.resolve_class(user, CallRef(kind="name", name="Widget"))
        assert cls is not None and cls.qualname == "app.impl.Widget"

    def test_closeable_excludes_pure_context_managers(self, tmp_path):
        pkg = write_package(
            tmp_path,
            "app",
            {
                "res.py": """\
                    class Handle:
                        def close(self):
                            pass

                    class Derived(Handle):
                        pass

                    class Span:
                        def __enter__(self):
                            return self

                        def __exit__(self, *exc):
                            return False
                    """
            },
        )
        graph = build_graph(pkg)
        closeable = graph.closeable_classes()
        assert "app.res.Handle" in closeable
        assert "app.res.Derived" in closeable  # inherited close counts
        assert "app.res.Span" not in closeable
