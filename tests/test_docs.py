"""Documentation stays runnable: doctests, README snippets and examples."""

import ast
import doctest
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


class TestDoctests:
    def test_onehot_fig2_doctest(self):
        """The Figure-2 example embedded in the one-hot module must run."""
        import repro.projection.onehot as mod

        results = doctest.testmod(mod)
        assert results.failed == 0
        assert results.attempted >= 1


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (ROOT / "README.md").read_text(encoding="utf-8")

    def test_quickstart_snippet_runs(self, readme):
        """The first python block of the README is the quickstart; it must
        execute as written (at its stated 1/64 scale this takes seconds)."""
        blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
        assert blocks, "README lost its python quickstart block"
        namespace: dict = {}
        exec(compile(blocks[0], "<README quickstart>", "exec"), namespace)

    def test_documented_modules_exist(self, readme):
        """Every repro.* module the architecture section names must import."""
        names = set(re.findall(r"^(repro\.[a-z_.]+)", readme, flags=re.MULTILINE))
        assert len(names) >= 8
        for name in sorted(names):
            importlib.import_module(name)

    def test_mentioned_examples_exist(self, readme):
        for match in re.findall(r"examples/[a-z_]+\.py", readme):
            assert (ROOT / match).exists(), f"README references missing {match}"

    def test_mentioned_benches_exist(self, readme):
        for match in re.findall(r"bench_[a-z0-9_]+\.py", readme):
            assert (ROOT / "benchmarks" / match).exists(), match


class TestExamples:
    """No CI job runs ``examples/``, so a deleted or renamed library name
    would otherwise leave an example that fails only when a reader runs it.
    The examples are parsed, not executed."""

    @pytest.mark.parametrize(
        "path", sorted((ROOT / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_imported_repro_names_exist(self, path):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.split(".")[0] != "repro":
                    continue
                module = importlib.import_module(node.module)
                for alias in node.names:
                    if not hasattr(module, alias.name):
                        # ``from repro.core import engine`` names a submodule.
                        importlib.import_module(f"{node.module}.{alias.name}")


class TestDesignDoc:
    def test_design_references_real_modules(self):
        text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
        for name in set(re.findall(r"`(repro\.[a-z_.]+)`", text)):
            # Entries may name attributes (repro.eval.stats.hypergeom_...);
            # import the longest importable prefix.
            parts = name.split(".")
            for cut in range(len(parts), 1, -1):
                try:
                    importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                raise AssertionError(f"DESIGN.md references unimportable {name}")

    def test_experiments_doc_exists_with_status_lines(self):
        text = (ROOT / "EXPERIMENTS.md").read_text(encoding="utf-8")
        assert text.count("**Status:") >= 8  # one per table/figure
