import ast
import glob
import importlib
import importlib.util
import json
import os
import pkgutil
import re

import numpy as np
import pytest

from dosebounds.cli import load_run_config
from dosebounds.fileio import (
    atomic_write_text,
    format_float,
    read_csv,
    write_csv,
    write_json,
)
from dosebounds.seeds import derive_seed, substream


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def readme_blocks(language):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


class TestReadme:
    def test_benchmark_config_block_is_the_default_config(self):
        (block,) = readme_blocks("json")
        assert load_run_config(json.loads(block)) == load_run_config({})

    def test_python_blocks_import_existing_names(self):
        imported = []
        for block in readme_blocks("python"):
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module.startswith("dosebounds"):
                    module = importlib.import_module(node.module)
                    imported += [(module, alias.name) for alias in node.names]
        assert imported
        missing = [name for module, name in imported if not hasattr(module, name)]
        assert not missing


class TestSeeds:
    def test_substream_is_deterministic(self):
        a = substream(42, "alpha", 3).normal(size=5)
        b = substream(42, "alpha", 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_names_address_independent_streams(self):
        base = substream(42, "alpha").normal(size=5)
        other = substream(42, "beta").normal(size=5)
        deeper = substream(42, "alpha", "beta").normal(size=5)
        assert not np.array_equal(base, other)
        assert not np.array_equal(base, deeper)

    def test_seed_changes_stream(self):
        assert not np.array_equal(
            substream(1, "x").normal(size=4), substream(2, "x").normal(size=4)
        )

    def test_derive_seed(self):
        first = derive_seed(42, "trial", 7)
        assert first == derive_seed(42, "trial", 7)
        assert first != derive_seed(42, "trial", 8)
        assert 0 <= first < 2**63

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            substream(-1, "x")
        with pytest.raises(ValueError):
            substream(1.5, "x")


class TestFileio:
    def test_format_float_round_trips_doubles(self):
        rng = substream(42, "floats")
        values = np.concatenate(
            [rng.normal(size=50), rng.normal(size=50) * 1e300, rng.normal(size=50) * 1e-300]
        )
        for v in values:
            assert float(format_float(v)) == v

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        target = tmp_path / "nested" / "out.txt"
        atomic_write_text(str(target), "payload")
        assert target.read_text() == "payload"
        assert glob.glob(str(tmp_path / "nested" / "*.tmp")) == []

    def test_write_json_is_byte_stable(self, tmp_path):
        path = tmp_path / "data.json"
        payload = {"b": 1.5, "a": [1, 2], "c": {"z": True, "y": None}}
        write_json(str(path), payload)
        first = path.read_bytes()
        write_json(str(path), payload)
        assert path.read_bytes() == first
        assert first.endswith(b"\n")
        assert first.index(b'"a"') < first.index(b'"b"') < first.index(b'"c"')

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [[0, 0.1, -3.25], [1, 2.5e-17, 7.0]]
        write_csv(str(path), ["idx", "x", "y"], rows)
        names, data = read_csv(str(path))
        assert names == ["idx", "x", "y"]
        np.testing.assert_array_equal(data, np.asarray(rows, dtype=float))

    def test_read_csv_validates(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_csv(str(empty))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b,c\n1.0,2.0\n")
        with pytest.raises(ValueError):
            read_csv(str(ragged))

    def test_write_csv_preserves_integer_cells(self, tmp_path):
        path = tmp_path / "mixed.csv"
        write_csv(str(path), ["trial", "value"], [[3, 0.5]])
        assert path.read_text().splitlines()[1] == "3,0.5"


class TestExports:
    def test_every_exported_name_resolves(self):
        # a deleted class or function can linger in an __all__ list
        import dosebounds

        modules = [dosebounds] + [
            importlib.import_module(f"dosebounds.{info.name}")
            for info in pkgutil.iter_modules(dosebounds.__path__)
        ]
        missing = [
            f"{module.__name__}.{name}"
            for module in modules
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
        assert not missing, f"__all__ names that do not resolve: {missing}"


class TestSourceLayout:
    def test_no_source_line_is_over_100_characters(self):
        package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dosebounds")
        long_lines = []
        for path in sorted(glob.glob(os.path.join(package, "*.py"))):
            with open(path, encoding="utf-8") as handle:
                for number, line in enumerate(handle, start=1):
                    if len(line.rstrip("\n")) > 100:
                        long_lines.append(f"{os.path.basename(path)}:{number}")
        assert long_lines == []


class TestBenchmarkTracer:
    def test_every_patched_name_exists(self):
        # perfbench's tracer rebinds names inside the package; a renamed or
        # moved function would silently drop out of its layer timings
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        table = tracing._patch_table()
        assert table
        missing = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, *_ in table
            if attr not in vars(owner)
        ]
        assert not missing, f"perfbench tracer patches names that do not exist: {missing}"


class TestPerfbenchWorkloads:
    # one round of each perfbench workload, so an API break such as a dropped
    # keyword shows here and not first as failed benchmark operations
    KNOWN_FAULTS = {"trial": set(), "bounds": {("cmsm", "1.0")}, "capo": set()}

    @pytest.mark.parametrize("name", sorted(KNOWN_FAULTS))
    def test_one_round_runs_and_checks(self, tmp_path, monkeypatch, name):
        pytest.importorskip("mpmath")
        perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
        monkeypatch.syspath_prepend(perfbench)
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(perfbench, "workloads.py")
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.WORKLOADS[name]()
        workload.prepare(str(tmp_path))
        results = [(op, workload.run(op)) for op in workload.round_ops(0)]
        problems, faults = workload.check(results)
        assert not problems
        assert faults <= self.KNOWN_FAULTS[name]
