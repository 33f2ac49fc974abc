#!/usr/bin/env python3
"""Documentation integrity checks for ``make docs-check``.

Documentation rots in two specific, mechanically detectable ways, and
this tool gates both:

* **Dead cross-links** — every relative markdown link in the checked
  files must resolve to a real file, and every ``#anchor`` (own-page or
  cross-page) must match a real heading's GitHub slug.  External
  (``http(s)``/``mailto``) links are out of scope: their liveness is
  not a property of this repository.
* **Stale CLI examples** — every ``python -m repro <subcommand>`` in a
  fenced ``bash``/``console``/``sh`` block must name a subcommand the
  CLI actually registers and pass only ``--flags`` it registers (both
  parsed from ``src/repro/__main__.py``), and every ``python -m repro
  experiments <target>`` / ``python -m repro.workloads.experiments
  <target>`` must name a target the experiment harness accepts
  (``_TARGETS``).  A renamed subcommand or a deleted option breaks
  every copy-pasteable example silently; this makes it loud.

Usage::

    python tools/docs_check.py [FILE.md ...]

With no arguments, checks ``README.md`` and every ``docs/*.md``.
Exit status 0 when clean, 1 with one ``file:line: message`` finding per
problem — the same contract as ``tools/lint.py``.
"""

from __future__ import annotations

import pathlib
import re
import sys
from typing import Dict, List, Sequence, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: fence languages whose contents are treated as shell examples
_SHELL_LANGUAGES = {"bash", "sh", "console", "shell"}

#: ``[text](target)`` — target captured; images share the syntax.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: one fenced code block: language word, then body up to the closer
_FENCE_RE = re.compile(r"^(`{3,})([\w-]*)[^\n]*\n(.*?)^\1`*\s*$",
                       re.MULTILINE | re.DOTALL)

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$", re.MULTILINE)

#: a CLI example line: the module invoked and its first argument
_CLI_RE = re.compile(
    r"python\s+-m\s+(repro(?:\.[\w.]+)?)\s+(?!-)([\w-]+)"
)

#: a long option token (an ``=value`` suffix is not part of the name)
_FLAG_RE = re.compile(r"(?<!\S)(--[\w-]+)")

#: where one shell command ends and the next (pipe, list, redirect) begins
_COMMAND_END_RE = re.compile(r"[|;&>]")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading text.

    Lowercase, code ticks and punctuation dropped, spaces become
    hyphens — the algorithm GitHub's renderer applies, minus the
    de-duplication counter (duplicate headings are rare enough here
    that the first-wins slug is the useful one to validate against).
    """
    text = heading.strip().lower()
    text = re.sub(r"`([^`]*)`", r"\1", text)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked heading
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_anchors(text: str) -> Set[str]:
    """Every heading slug a page exposes (outside code fences)."""
    prose = _FENCE_RE.sub("", text)
    return {
        github_slug(match.group(2))
        for match in _HEADING_RE.finditer(prose)
    }


def shell_fences(text: str) -> List[Tuple[int, str]]:
    """``(starting line, body)`` of every shell-language fence."""
    fences = []
    for match in _FENCE_RE.finditer(text):
        if match.group(2).lower() in _SHELL_LANGUAGES:
            line = text.count("\n", 0, match.start()) + 1
            fences.append((line, match.group(3)))
    return fences


def _cli_source() -> str:
    """The source of ``python -m repro``'s argparse setup."""
    return (REPO_ROOT / "src" / "repro" / "__main__.py").read_text(
        encoding="utf-8"
    )


def known_subcommands() -> Set[str]:
    """Subcommand names registered by ``python -m repro``'s argparse."""
    return set(
        re.findall(r"add_parser\(\s*\"([\w-]+)\"", _cli_source(), re.DOTALL)
    )


def known_flags() -> Set[str]:
    """``--flag`` names registered by ``python -m repro``'s argparse.

    Every option string among the leading literals of an
    ``add_argument(...)`` call, plus argparse's own ``--help``.
    """
    flags = {"--help"}
    for names in re.findall(
        r"add_argument\(\s*((?:\"[^\"]*\"\s*,\s*)+)", _cli_source()
    ):
        flags.update(re.findall(r"\"(--[\w-]+)\"", names))
    return flags


def experiment_targets() -> Set[str]:
    """Targets the experiment harness CLI accepts (``_TARGETS``)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        from repro.workloads.experiments import _TARGETS
    finally:
        sys.path.pop(0)
    return set(_TARGETS)


def check_links(
    path: pathlib.Path,
    text: str,
    anchors_of: Dict[pathlib.Path, Set[str]],
) -> List[str]:
    """Findings for dead relative links / anchors in one file."""
    findings: List[str] = []
    prose = _FENCE_RE.sub(lambda m: "\n" * m.group(0).count("\n"), text)
    for lineno, line in enumerate(prose.splitlines(), start=1):
        for match in _LINK_RE.finditer(line):
            target = match.group(1)
            if re.match(r"^[a-z][a-z+.-]*:", target):  # http:, mailto:
                continue
            raw, _, anchor = target.partition("#")
            if raw:
                resolved = (path.parent / raw).resolve()
                if not resolved.exists():
                    findings.append(
                        f"{path}:{lineno}: dead link {target!r} "
                        f"({raw} does not exist)"
                    )
                    continue
            else:
                resolved = path.resolve()
            if not anchor or resolved.suffix != ".md":
                continue
            if resolved not in anchors_of:
                anchors_of[resolved] = markdown_anchors(
                    resolved.read_text(encoding="utf-8")
                )
            if anchor.lower() not in anchors_of[resolved]:
                findings.append(
                    f"{path}:{lineno}: dead anchor {target!r} "
                    f"(no heading slugs to '#{anchor}' in "
                    f"{resolved.name})"
                )
    return findings


def _commands(body: str) -> List[Tuple[int, str]]:
    """``(line offset, command)`` per shell command, continuations joined."""
    commands: List[Tuple[int, str]] = []
    for offset, line in enumerate(body.splitlines(), start=1):
        if commands and commands[-1][1].endswith("\\"):
            start, head = commands.pop()
            commands.append((start, head[:-1] + " " + line))
        else:
            commands.append((offset, line))
    return commands


def check_cli_examples(
    path: pathlib.Path,
    text: str,
    subcommands: Set[str],
    targets: Set[str],
    flags: Set[str],
) -> List[str]:
    """Findings for stale ``python -m repro`` examples in one file.

    A backslash-continued command is read as one line, reported at its
    first.  Flags after ``python -m repro experiments`` are skipped:
    that subcommand forwards them to the experiment harness's parser.
    """
    findings: List[str] = []
    for fence_line, body in shell_fences(text):
        for offset, line in _commands(body):
            for match in _CLI_RE.finditer(line):
                module, argument = match.groups()
                lineno = fence_line + offset
                if module == "repro":
                    if argument not in subcommands:
                        findings.append(
                            f"{path}:{lineno}: unknown subcommand "
                            f"'python -m repro {argument}' (CLI has: "
                            f"{', '.join(sorted(subcommands))})"
                        )
                    elif argument == "experiments":
                        rest = line[match.end():].split()
                        if rest and not rest[0].startswith("-") and (
                            rest[0] not in targets
                        ):
                            findings.append(
                                f"{path}:{lineno}: unknown experiment "
                                f"target {rest[0]!r} (harness has: "
                                f"{', '.join(sorted(targets))})"
                            )
                    else:
                        tail = _COMMAND_END_RE.split(line[match.end():])[0]
                        findings.extend(
                            f"{path}:{lineno}: unregistered flag "
                            f"{flag!r} on 'python -m repro {argument}'"
                            for flag in _FLAG_RE.findall(tail)
                            if flag not in flags
                        )
                elif module == "repro.workloads.experiments":
                    if argument not in targets:
                        findings.append(
                            f"{path}:{lineno}: unknown experiment "
                            f"target {argument!r} (harness has: "
                            f"{', '.join(sorted(targets))})"
                        )
    return findings


def check_paths(paths: Sequence[pathlib.Path]) -> List[str]:
    """All findings across ``paths`` (shared anchor cache)."""
    subcommands = known_subcommands()
    targets = experiment_targets()
    flags = known_flags()
    anchors_of: Dict[pathlib.Path, Set[str]] = {}
    findings: List[str] = []
    for path in paths:
        text = path.read_text(encoding="utf-8")
        findings.extend(check_links(path, text, anchors_of))
        findings.extend(
            check_cli_examples(path, text, subcommands, targets, flags)
        )
    return findings


def main(argv: Sequence[str]) -> int:
    """CLI driver: check the given files, or README + docs/*.md."""
    if argv:
        paths = [pathlib.Path(arg) for arg in argv]
    else:
        paths = [REPO_ROOT / "README.md"] + sorted(
            (REPO_ROOT / "docs").glob("*.md")
        )
    missing = [path for path in paths if not path.is_file()]
    if missing:
        for path in missing:
            print(f"{path}: no such file")
        return 1
    findings = check_paths(paths)
    for finding in findings:
        print(finding)
    print(
        f"docs-check: {len(paths)} files checked, "
        f"{len(findings)} findings",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
