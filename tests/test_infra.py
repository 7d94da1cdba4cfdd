import ast
import glob
import importlib
import importlib.util
import inspect
import json
import math
import os
import pkgutil
import re
import shlex

import numpy as np
import pytest

import dosebounds
from dosebounds.cli import _build_parser, load_run_config
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

    def test_python_blocks_run(self):
        # each block stands alone, as a reader would paste it
        for block in readme_blocks("python"):
            exec(compile(block, README, "exec"), {})

    def test_shell_commands_parse(self):
        commands = [
            shlex.split(line)[1:]
            for block in readme_blocks("sh")
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("dosebounds ")
        ]
        assert commands
        parser = _build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: dosebounds {shlex.join(argv)}")


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

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=["umask022", "umask027"])
    def test_atomic_write_gives_the_umask_mode(self, tmp_path, umask):
        # mkstemp creates the temporary file 0o600, and the rename keeps it
        target = tmp_path / "out.txt"
        previous = os.umask(umask)
        try:
            atomic_write_text(str(target), "payload")
        finally:
            os.umask(previous)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_write_json_is_byte_stable(self, tmp_path):
        path = tmp_path / "data.json"
        payload = {"b": 1.5, "a": [1, 2], "c": {"z": True, "y": None}}
        write_json(str(path), payload)
        first = path.read_bytes()
        write_json(str(path), payload)
        assert path.read_bytes() == first
        assert first.endswith(b"\n")
        assert first.index(b'"a"') < first.index(b'"b"') < first.index(b'"c"')

    def test_write_json_writes_numpy_scalars_as_python_values(self, tmp_path):
        numpy_path, plain_path = tmp_path / "numpy.json", tmp_path / "plain.json"
        write_json(str(numpy_path), {
            "i": np.int64(3), "f": np.float32(0.5), "inf": np.float64(np.inf),
            "nan": np.float32(np.nan), "b": np.bool_(True), "list": [np.uint8(7)],
        })
        write_json(str(plain_path), {
            "i": 3, "f": 0.5, "inf": math.inf, "nan": math.nan, "b": True, "list": [7],
        })
        assert numpy_path.read_bytes() == plain_path.read_bytes()

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

    def test_top_level_is_the_documented_api(self):
        # the names README's Python blocks, demos/ and perfbench read, the
        # baselines and the exceptions documented functions raise; the rest
        # stays in its submodule
        import dosebounds

        documented = [
            "BetaPropensity", "BinaryMSM", "CMSM", "DegenerateDrawsError", "DeltaMSM",
            "DivisorEngine", "FittedModels", "IntervalCurve", "PartialIdentificationError",
            "TrainConfig", "TrialConfig", "Uniform", "apo_band_matrix", "apo_interval",
            "cacd_interval", "capo_interval", "derive_seed", "extremize", "fit_outcome",
            "fit_propensity", "generate_trial", "outcome_draws", "run_benchmark",
            "sensitivity_model_for", "synthetic_raw", "true_apo",
        ]
        assert sorted(dosebounds.__all__) == documented
        public = sorted(
            name
            for name, value in vars(dosebounds).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        )
        assert public == documented


def names_read_in_package():
    """Every name that code in ``src/dosebounds`` reads: a bare name it loads,
    or an attribute of a package module bound by ``from . import <module>``.

    Attributes of anything else do not count, so a field or a local that
    shares a function's name (``score.coverage``) cannot keep it alive.
    """
    package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dosebounds")
    read = set()
    for path in sorted(glob.glob(os.path.join(package, "*.py"))):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        modules = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                read.add(node.attr)
    return read


def defined_functions_and_classes(module):
    """Names of the functions and classes ``module`` itself defines."""
    return [
        name
        for name, value in vars(module).items()
        if (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]


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

    def test_specfun_holds_only_the_run_path(self):
        # every public function has a caller elsewhere in the package
        from dosebounds import specfun

        package = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dosebounds")
        sources = []
        for path in sorted(glob.glob(os.path.join(package, "*.py"))):
            if os.path.basename(path) != "specfun.py":
                with open(path, encoding="utf-8") as handle:
                    sources.append(handle.read())
        public = [
            name
            for name, value in vars(specfun).items()
            if inspect.isfunction(value)
            and value.__module__ == specfun.__name__
            and not name.startswith("_")
        ]
        assert "hyp1f1" in public
        uncalled = [
            name for name in public if not any(re.search(rf"\b{name}\(", s) for s in sources)
        ]
        assert uncalled == []

    def test_sensitivity_holds_only_the_run_path(self):
        # every function and class sensitivity defines is read by code in the
        # package, its own module included; a docstring, an __all__ entry or an
        # import does not count, so an entry point only the tests call fails
        from dosebounds import sensitivity

        defined = defined_functions_and_classes(sensitivity)
        assert "_folded_power_bounds" in defined
        assert sorted(set(defined) - names_read_in_package()) == []

    @pytest.mark.parametrize(
        "module", ["benchmark", "checks", "cli", "estimator", "fileio", "models", "seeds"]
    )
    def test_module_holds_only_the_run_path(self, module):
        # the sensitivity rule, except that the documented top-level API
        # (dosebounds.__all__) counts as read even if no package code calls it
        module = importlib.import_module(f"dosebounds.{module}")
        defined = defined_functions_and_classes(module)
        assert defined
        unread = set(defined) - names_read_in_package() - set(dosebounds.__all__)
        assert sorted(unread) == []


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
    DIVISORS = {f"sensitivity.divisor.{m}" for m in ("binarymsm", "cmsm", "deltamsm", "uniform")}
    SPECFUN = {"specfun.hyp1f1", "specfun.special"}
    FITS = {"models.fit_outcome", "models.fit_propensity"}
    # the tracer's layers that a round reaches; a function imported by name
    # past the tracer (``from .specfun import hyp1f1``) would drop out here
    LAYERS = {
        "trial": {"benchmark.generate_trial", "benchmark.prob_matrix", "benchmark.true_apo"}
        | FITS | DIVISORS | SPECFUN,
        "bounds": {"estimator.band", "fileio.io"} | FITS | DIVISORS | SPECFUN,
        "capo": {"estimator.band", "estimator.cacd"}
        | (DIVISORS - {"sensitivity.divisor.cmsm"}) | SPECFUN,
    }

    @staticmethod
    def load(perfbench, name):
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", os.path.join(perfbench, f"{name}.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.mark.parametrize("name", sorted(KNOWN_FAULTS))
    def test_one_round_runs_and_checks(self, tmp_path, monkeypatch, name):
        pytest.importorskip("mpmath")
        perfbench = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
        monkeypatch.syspath_prepend(perfbench)
        workloads, tracing = (self.load(perfbench, module) for module in ("workloads", "tracing"))
        workload = workloads.WORKLOADS[name]()
        workload.prepare(str(tmp_path))
        with tracing.Tracer() as tracer:
            results = [(op, workload.run(op)) for op in workload.round_ops(0)]
        problems, faults = workload.check(results)
        assert not problems
        assert faults <= self.KNOWN_FAULTS[name]
        layers = {
            key.removesuffix(".calls")
            for key, count in tracer.counts.items()
            if key.endswith(".calls") and count > 0
        }
        assert layers == self.LAYERS[name]
