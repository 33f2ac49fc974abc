"""Tests for the documentation integrity checker (`tools/docs_check.py`).

The checker gates two rot modes — dead cross-links/anchors and stale
CLI examples (subcommands, experiment targets, ``--flags``) — so the
tests exercise both the detectors (on synthetic markdown written to
tmp_path) and the live contract: the repository's own docs must come
back clean, and the slug/subcommand/flag oracles must match reality.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import docs_check  # noqa: E402


class TestGithubSlug:
    @pytest.mark.parametrize(
        "heading, slug",
        [
            ("Plain Heading", "plain-heading"),
            ("The `stats` frame", "the-stats-frame"),
            ("Backpressure and load shedding", "backpressure-and-load-shedding"),
            ("p50/p95/p99, per kind!", "p50p95p99-per-kind"),
            ("  Spaced  ", "spaced"),
        ],
    )
    def test_slugs(self, heading, slug):
        assert docs_check.github_slug(heading) == slug


class TestMarkdownAnchors:
    def test_headings_collected_fences_ignored(self):
        text = (
            "# Top\n\nbody\n\n## Sub Section\n\n"
            "```bash\n# not a heading\n```\n\n### `code` head\n"
        )
        anchors = docs_check.markdown_anchors(text)
        assert anchors == {"top", "sub-section", "code-head"}


class TestShellFences:
    def test_only_shell_languages_and_line_numbers(self):
        text = (
            "intro\n\n```python\nprint('x')\n```\n\n"
            "```bash\npython -m repro demo\n```\n"
        )
        fences = docs_check.shell_fences(text)
        assert len(fences) == 1
        line, body = fences[0]
        assert "repro demo" in body
        assert text.splitlines()[line - 1].startswith("```bash")


class TestOracles:
    def test_known_subcommands_match_reality(self):
        subcommands = docs_check.known_subcommands()
        assert {"serve", "query", "experiments", "demo"} <= subcommands

    def test_known_flags_match_reality(self):
        flags = docs_check.known_flags()
        assert {"--port", "--max-batch", "--workers", "--help"} <= flags
        assert "--window-ms" not in flags

    def test_experiment_targets_match_reality(self):
        targets = docs_check.experiment_targets()
        assert {"table1", "fig7", "all"} <= targets


class TestCheckLinks:
    def _run(self, tmp_path, text, name="page.md"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return docs_check.check_links(path, text, {})

    def test_clean_relative_link_and_anchor(self, tmp_path):
        (tmp_path / "other.md").write_text("# Real Heading\n")
        findings = self._run(
            tmp_path, "[ok](other.md) and [deep](other.md#real-heading)\n"
        )
        assert findings == []

    def test_dead_file_reported_with_line(self, tmp_path):
        findings = self._run(tmp_path, "line one\n[bad](missing.md)\n")
        assert len(findings) == 1
        assert ":2: dead link" in findings[0]

    def test_dead_anchor_reported(self, tmp_path):
        (tmp_path / "other.md").write_text("# Real Heading\n")
        findings = self._run(tmp_path, "[bad](other.md#no-such)\n")
        assert len(findings) == 1
        assert "dead anchor" in findings[0]

    def test_own_page_anchor(self, tmp_path):
        text = "# Here\n\n[self](#here) [bad](#gone)\n"
        findings = self._run(tmp_path, text)
        assert len(findings) == 1
        assert "#gone" in findings[0]

    def test_external_schemes_skipped(self, tmp_path):
        findings = self._run(
            tmp_path,
            "[web](https://example.com/x) [mail](mailto:a@b.c)\n",
        )
        assert findings == []

    def test_links_inside_fences_ignored(self, tmp_path):
        findings = self._run(
            tmp_path, "```bash\necho [fake](missing.md)\n```\n"
        )
        assert findings == []


class TestCheckCliExamples:
    def _run(self, tmp_path, body):
        path = tmp_path / "page.md"
        text = f"```bash\n{body}\n```\n"
        path.write_text(text, encoding="utf-8")
        return docs_check.check_cli_examples(
            path,
            text,
            {"serve", "query", "experiments"},
            {"table1", "table2", "all"},
            {"--port", "--max-batch", "--help"},
        )

    def test_known_subcommand_clean(self, tmp_path):
        assert self._run(tmp_path, "python -m repro serve --port 1") == []

    def test_unknown_subcommand_reported(self, tmp_path):
        findings = self._run(tmp_path, "python -m repro zerve --port 1")
        assert len(findings) == 1
        assert "unknown subcommand" in findings[0]

    def test_experiment_target_validated(self, tmp_path):
        assert self._run(tmp_path, "python -m repro experiments table2") == []
        findings = self._run(tmp_path, "python -m repro experiments tabel2")
        assert len(findings) == 1
        assert "unknown experiment target" in findings[0]

    def test_module_invocation_target_validated(self, tmp_path):
        clean = self._run(
            tmp_path, "python -m repro.workloads.experiments table1"
        )
        assert clean == []
        findings = self._run(
            tmp_path, "python -m repro.workloads.experiments bogus"
        )
        assert len(findings) == 1

    def test_registered_flags_clean(self, tmp_path):
        body = (
            "python -m repro serve --port 1 --max-batch=8 | tee log\n"
            "python -m repro query --help > out.txt --anything\n"
            "python -m repro experiments table2 --repetitions 2"
        )
        assert self._run(tmp_path, body) == []

    def test_unregistered_flag_reported(self, tmp_path):
        body = (
            "echo start\n"
            "python -m repro serve --port 1 \\\n"
            "    --window-ms 2"
        )
        findings = self._run(tmp_path, body)
        assert len(findings) == 1
        assert ":3: unregistered flag '--window-ms'" in findings[0]

    def test_flags_only_invocation_ignored(self, tmp_path):
        assert self._run(tmp_path, "python -m repro.tool --help") == []

    def test_prose_outside_fences_ignored(self, tmp_path):
        path = tmp_path / "page.md"
        text = "run python -m repro zerve manually\n"
        path.write_text(text, encoding="utf-8")
        findings = docs_check.check_cli_examples(
            path, text, {"serve"}, set(), set()
        )
        assert findings == []


class TestMain:
    def test_repo_docs_are_clean(self, capsys):
        assert docs_check.main([]) == 0
        assert "0 findings" in capsys.readouterr().err

    def test_findings_fail(self, tmp_path, capsys):
        page = tmp_path / "broken.md"
        page.write_text("[dead](nope.md)\n", encoding="utf-8")
        assert docs_check.main([str(page)]) == 1
        out = capsys.readouterr().out
        assert "dead link" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert docs_check.main([str(tmp_path / "ghost.md")]) == 1
        assert "no such file" in capsys.readouterr().out
