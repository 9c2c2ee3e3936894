"""Native search kernel: build cache faults, fallback and input guards.

The kernel's C source is compiled once per machine and cached (see
:mod:`repro.utils.native`).  Every fault must end in a rebuild, a
clean exception or the announced scalar fallback — never in loading a
damaged library or crashing the interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import repro.utils.native as native
from repro.arch.architecture import FpgaArchitecture
from repro.arch.rrg import build_rrg
from repro.place import annealkernel
from repro.route.searchkernel import KERNEL_SOURCE, NATIVE, HeapSearch
from repro.utils.native import NativeBuildError, library_name, load_library


def _cached_path(directory, source=KERNEL_SOURCE):
    return directory / library_name(source.stem, source.read_bytes())


@pytest.fixture
def compiles(monkeypatch):
    """Count the compiler runs of :func:`load_library`."""
    calls = []
    compile_ = native._compile

    def spy(*args):
        calls.append(args)
        return compile_(*args)

    monkeypatch.setattr(native, "_compile", spy)
    return calls


@pytest.mark.smoke
def test_native_kernel_is_loaded():
    # A silent fallback to the scalar core must not pass as green.
    assert NATIVE


def test_library_name_keys_on_source():
    assert library_name("k", b"int a;") != library_name("k", b"int b;")
    assert library_name("k", b"int a;") == library_name("k", b"int a;")


def test_library_name_keys_on_stem():
    assert library_name("astar", b"int a;") != library_name(
        "anneal", b"int a;"
    )
    assert library_name("anneal", b"int a;").startswith("anneal-")


def test_both_kernels_share_one_cache(tmp_path, compiles):
    """The router's and the placer's kernels build through the same
    loader into one directory, each under its own stem, and each is
    built once."""
    for source in (KERNEL_SOURCE, annealkernel.KERNEL_SOURCE):
        load_library(source, cache_dir=tmp_path)
        load_library(source, cache_dir=tmp_path)
    assert len(compiles) == 2
    assert sorted(os.listdir(tmp_path)) == sorted(
        _cached_path(tmp_path, source).name
        for source in (KERNEL_SOURCE, annealkernel.KERNEL_SOURCE)
    )
    lib = load_library(annealkernel.KERNEL_SOURCE, cache_dir=tmp_path)
    assert lib.repro_anneal_abi() == 1


class TestBuildCache:
    def test_built_once_then_reused(self, tmp_path, compiles):
        load_library(KERNEL_SOURCE, cache_dir=tmp_path)
        load_library(KERNEL_SOURCE, cache_dir=tmp_path)
        assert len(compiles) == 1
        assert native._valid(_cached_path(tmp_path))

    @pytest.mark.parametrize("damage", ["truncated", "garbage"])
    def test_damaged_library_is_rebuilt(self, tmp_path, compiles, damage):
        good_dir = tmp_path / "good"
        load_library(KERNEL_SOURCE, cache_dir=good_dir)
        good = _cached_path(good_dir).read_bytes()
        cache = tmp_path / "cache"
        cache.mkdir()
        path = _cached_path(cache)
        path.write_bytes(
            good[: len(good) // 2] if damage == "truncated"
            else b"\x7fELF" + b"garbage" * 100
        )
        assert not native._valid(path)
        lib = load_library(KERNEL_SOURCE, cache_dir=cache)
        assert len(compiles) == 2
        assert native._valid(path)
        assert lib.repro_astar_abi() == 1

    def test_unwritable_cache_builds_in_private_dir(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        private = tmp_path / "private"
        private.mkdir()
        monkeypatch.setattr(
            tempfile, "mkdtemp", lambda prefix=None: str(private)
        )
        lib = load_library(KERNEL_SOURCE, cache_dir=blocker / "native")
        assert lib.repro_astar_abi() == 1
        assert native._valid(_cached_path(private))

    @pytest.mark.parametrize("compiler", ["missing", "failing"])
    def test_compiler_faults_raise(self, tmp_path, compiler):
        cc = str(tmp_path / "no-such-cc") if compiler == "missing" else (
            "false"
        )
        with pytest.raises(NativeBuildError):
            load_library(KERNEL_SOURCE, cache_dir=tmp_path, compiler=cc)
        assert os.listdir(tmp_path) == []

    def test_no_compiler_on_path(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "COMPILERS", ("no-such-cc",))
        with pytest.raises(NativeBuildError, match="no C compiler"):
            load_library(KERNEL_SOURCE, cache_dir=tmp_path)

    def test_concurrent_builders_both_load(self, tmp_path):
        # Each process imports the stdlib-only build module on its own
        # and races to build into the same empty cache directory.
        script = (
            "import importlib.util, sys\n"
            "from pathlib import Path\n"
            "spec = importlib.util.spec_from_file_location("
            "'native', sys.argv[1])\n"
            "mod = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(mod)\n"
            "lib = mod.load_library(Path(sys.argv[2]), Path(sys.argv[3]))\n"
            "print(lib.repro_astar_abi())\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, native.__file__,
                 str(KERNEL_SOURCE), str(tmp_path)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            assert out.strip() == "1"
        # One published library, no temporary files left behind.
        assert os.listdir(tmp_path) == [_cached_path(tmp_path).name]
        assert native._valid(_cached_path(tmp_path))


def test_no_compiler_falls_back_to_scalar_with_one_warning(tmp_path):
    """A fresh process with no compiler and an empty cache: the
    import-time build fails, and every ``PathFinderRouter(...)`` is
    the scalar core, announced by exactly one RuntimeWarning."""
    script = (
        "import json, warnings\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    from repro.arch.architecture import FpgaArchitecture\n"
        "    from repro.arch.rrg import build_rrg\n"
        "    from repro.route import searchkernel\n"
        "    from repro.route.router import PathFinderRouter\n"
        "    g = build_rrg(FpgaArchitecture(nx=2, ny=2, channel_width=2,"
        " k=4))\n"
        "    types = [type(PathFinderRouter(g)).__name__ for _ in 'ab']\n"
        "print(json.dumps({'native': searchkernel.NATIVE, 'types': types,"
        " 'warnings': [str(w.message) for w in caught"
        " if issubclass(w.category, RuntimeWarning)]}))\n"
    )
    env = dict(os.environ, PATH="", HOME=str(tmp_path))
    env.pop("REPRO_SCALAR_ROUTER", None)
    env["PYTHONPATH"] = str(pathlib.Path(native.__file__).parents[2])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["native"] is False
    assert report["types"] == ["PathFinderRouter", "PathFinderRouter"]
    assert len(report["warnings"]) == 1
    assert "scalar reference" in report["warnings"][0]


class TestInputGuards:
    """Out-of-range input returns an error code that surfaces as a
    Python exception; the workspace stays usable afterwards."""

    @pytest.fixture
    def kernel(self):
        rrg = build_rrg(FpgaArchitecture(nx=2, ny=2, channel_width=2, k=4))
        pn = np.ones(rrg.n_nodes)
        source = rrg.clb_opin[(1, 1)]
        sink = rrg.clb_sink[(2, 2)]
        search = HeapSearch(rrg)
        return search, rrg, search.vector(pn), source, sink, pn

    def test_vectors_are_checked(self, kernel):
        search, rrg, _pn, _source, _sink, _keep = kernel
        for bad in (
            np.ones(rrg.n_nodes + 1),
            np.ones(rrg.n_nodes, np.float32),
            np.ones(2 * rrg.n_nodes)[::2],
        ):
            with pytest.raises(ValueError, match="float64 vector"):
                search.vector(bad)

    def test_bad_target(self, kernel):
        search, rrg, pn, source, _sink, _keep = kernel
        with pytest.raises(RuntimeError, match="out of range"):
            search.search({source}, rrg.n_nodes + 3, pn, pn)
        with pytest.raises(RuntimeError, match="out of range"):
            search.search({source}, -1, pn, pn)

    def test_bad_start(self, kernel):
        search, rrg, pn, _source, sink, _keep = kernel
        with pytest.raises(RuntimeError, match="out of range"):
            search.search({rrg.n_nodes}, sink, pn, pn)

    def test_heap_overrun(self, kernel):
        search, _rrg, pn, source, sink, _keep = kernel
        capacity = search._ws.heap_cap
        search._ws.heap_cap = 1
        with pytest.raises(RuntimeError, match="heap capacity"):
            search.search({source}, sink, pn, pn)
        search._ws.heap_cap = capacity
        edges = search.search({source}, sink, pn, pn)
        assert edges[0][0] == source and edges[-1][1] == sink
        assert all(type(x) is int for edge in edges for x in edge)

    def test_timed_search_needs_delays(self, kernel):
        search, _rrg, pn, source, sink, _keep = kernel
        with pytest.raises(RuntimeError, match="without node delays"):
            search.search({source}, sink, pn, pn, timed=True, crit=0.5)
