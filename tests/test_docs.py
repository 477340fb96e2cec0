"""Doc-consistency checks for README.md, docs/ARCHITECTURE.md and the CLI.

Every ``python -m repro ...`` snippet in the docs must parse against the
real argument parser, every relative markdown link must resolve, every
module/benchmark file the architecture map names must exist, and the
``REPRO_*`` environment-variable table must match the source tree.  These
tests keep the docs from silently rotting as flags and files move.
"""

import re
from pathlib import Path

import pytest

import repro.cli as cli_module
from repro.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md")

#: Tokens marking a snippet as illustrative (placeholders), not runnable.
PLACEHOLDER_MARKERS = ("[", "]", "{", "}", "<", ">", "...", "|")


def doc_commands():
    """All concrete ``python -m repro`` command lines found in the docs."""

    commands = []
    sources = [(path.name, path.read_text(encoding="utf-8")) for path in DOC_FILES]
    sources.append(("cli.py docstring", cli_module.__doc__ or ""))
    for name, text in sources:
        for line in text.splitlines():
            line = line.strip().lstrip("$ ")
            match = re.match(r"^python -m repro\b(.*)$", line)
            if match is None:
                continue
            rest = match.group(1).split("#", 1)[0].strip()
            if any(marker in rest for marker in PLACEHOLDER_MARKERS):
                continue
            commands.append((name, rest.split()))
    return commands


class TestDocCommandsParse:
    def test_docs_contain_commands(self):
        assert len(doc_commands()) >= 8  # the docs demo the CLI extensively

    @pytest.mark.parametrize("source,argv", doc_commands(),
                             ids=[" ".join(argv) for _, argv in doc_commands()])
    def test_command_parses(self, source, argv):
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command does not parse ({source}): "
                        f"python -m repro {' '.join(argv)}")
        if argv and argv[0] not in ("list", "info"):
            assert getattr(args, "handler", None) is not None

    def test_documented_orchestrator_flags_exist(self):
        """The flags the README documents are the flags the parser accepts."""

        args = build_parser().parse_args(
            ["campaign", "counts", "--workers", "2", "--shard", "0/2",
             "--trial-chunk", "1", "--unit-timeout", "30", "--resume",
             "--cache-dir", "x"])
        assert args.workers == 2
        assert (args.shard.index, args.shard.total) == (0, 2)
        assert args.trial_chunk == 1
        assert args.unit_timeout == 30.0
        assert args.resume is True


class TestDocLinksResolve:
    @pytest.mark.parametrize("path", DOC_FILES, ids=[p.name for p in DOC_FILES])
    def test_relative_links_exist(self, path):
        text = path.read_text(encoding="utf-8")
        missing = []
        for target in re.findall(r"\]\(([^)#]+)\)", text):
            if "://" in target:
                continue
            if not (path.parent / target).exists() and not (REPO_ROOT / target).exists():
                missing.append(target)
        assert not missing, f"{path.name} links to missing files: {missing}"

    def test_architecture_map_names_existing_files(self):
        """Every repo path named in the figure map / layer tables exists."""

        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        paths = set(re.findall(r"`((?:benchmarks|docs|tests)/[\w/]+\.(?:py|md))`", text))
        paths |= {f"src/repro/{match}" for match in
                  re.findall(r"`((?:experiments|faults|systolic|snn)/[\w/]+\.py)`", text)}
        assert len(paths) >= 15
        missing = [p for p in sorted(paths) if not (REPO_ROOT / p).exists()]
        assert not missing, f"ARCHITECTURE.md names missing files: {missing}"

        # The layer table: every backticked module of a row is a module or
        # package under one of that row's layers.
        rows = re.findall(r"^\| (`repro[^|]*) \| ([^|]*) \|", text, re.MULTILINE)
        assert len(rows) >= 8
        unresolved = []
        for layers, modules in rows:
            roots = [REPO_ROOT / "src" / Path(*layer.split("."))
                     for layer in re.findall(r"`(repro[\w.]*)`", layers)]
            for name in re.findall(r"`([\w/]+)`", modules):
                name = name.rstrip("/")
                if not any((root / f"{name}.py").is_file()
                           or (root / name / "__init__.py").is_file()
                           for root in roots):
                    unresolved.append(f"{layers}: {name}")
        assert not unresolved, \
            f"ARCHITECTURE.md layer table names missing modules: {unresolved}"

    def test_architecture_experiment_ids_are_registered(self):
        from repro.experiments import EXPERIMENTS

        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
        ids = set(re.findall(r"`(fig\w+|headline)`", text))
        assert {"fig2", "fig5a", "fig5b", "fig5c", "fig6", "fig7", "fig8",
                "headline"} <= ids
        unknown = [i for i in sorted(ids) if i not in EXPERIMENTS]
        assert not unknown, f"ARCHITECTURE.md names unregistered experiments: {unknown}"

    def test_readme_recorded_bench_table_matches_results_file(self):
        """The README's folded-in bench table and results/ hold the same rows."""

        results = REPO_ROOT / "benchmarks" / "results" / "campaign_engine.txt"
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")

        def rows(text):
            return {line.rstrip() for line in text.splitlines()
                    if line.startswith(("sequential", "fused")) and "|" in line}

        recorded = rows(results.read_text(encoding="utf-8"))
        documented = rows(readme)
        assert not recorded - documented, \
            f"README bench table is stale; missing rows: {sorted(recorded - documented)}"
        assert not documented - recorded, \
            f"README bench table has rows the results file lacks: {sorted(documented - recorded)}"


ENV_VAR = re.compile(r"REPRO_[A-Z0-9_]+")


def test_env_var_table_in_sync():
    """docs/ARCHITECTURE.md documents exactly the REPRO_* vars the code reads."""

    root = Path(__file__).resolve().parents[1]
    used = set()
    for base in ("src", "benchmarks"):
        for path in sorted((root / base).rglob("*.py")):
            used.update(ENV_VAR.findall(path.read_text(encoding="utf-8")))
    doc = (root / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    documented = {
        ENV_VAR.search(line).group(0)
        for line in doc.splitlines()
        if line.startswith("| `REPRO_")
    }
    missing = used - documented
    stale = documented - used
    assert not missing, f"undocumented REPRO_* vars: {sorted(missing)}"
    assert not stale, f"documented but unused REPRO_* vars: {sorted(stale)}"
