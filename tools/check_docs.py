#!/usr/bin/env python3
"""Documentation health check (the CI ``docs-check`` job).

Two families of checks, both offline and dependency-free:

1. **Link/anchor check** — every relative markdown link in the curated
   doc set resolves to an existing file, and every ``#anchor`` fragment
   resolves to a real heading (GitHub slug rules) in the target file.
   External (``http(s)://``, ``mailto:``) links are not fetched.

2. **Doc-drift lint** — the documentation must mention:

   * every ``python -m repro`` subcommand (enumerated live from
     ``repro.cli._build_parser()``, so a new subcommand without docs
     fails CI), and
   * every ``REPRO_*`` environment variable referenced anywhere under
     ``src/`` (word-boundary match, so Python identifiers like
     ``_REPRO_TEMPLATE`` do not count).

   A mention anywhere under ``docs/`` or in ``README.md`` satisfies the
   lint.  In the other direction, every ``REPRO_*`` variable those docs
   name must still be read by something: code under ``src/`` or
   ``benchmarks/``, or the ``Makefile``.  A variable whose reader was
   deleted fails the lint until its docs go too.

3. **Command-line lint** — every documented ``python -m repro ...``
   command (fenced code lines, with ``\\`` continuations joined, and
   inline code spans) in ``README.md`` and ``docs/*.md`` must parse with
   ``repro.cli._build_parser()``.  A trailing ``# comment``, a pipe, or
   a shell ``&``/``;`` ends the command.  A flag that was renamed or
   dropped fails the lint until its docs follow.

Exit status 0 when clean, 1 with one ``file: problem`` line per finding.
"""

import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The curated doc set whose links and drift coverage we guarantee.
DOC_FILES = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    REPO / "EXPERIMENTS.md",
    REPO / "ROADMAP.md",
    *sorted((REPO / "docs").glob("*.md")),
]

#: Where a subcommand / env var must be mentioned to count as documented.
MENTION_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*)$")
_ENV_RE = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*")
_INLINE_RE = re.compile(r"`([^`]*)`")
_CLI = "python -m repro"


def _strip_code_fences(text):
    """Drop fenced code blocks so headings/links inside them are ignored."""
    out, in_fence = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            out.append(line)
    return "\n".join(out)


def github_slug(heading, seen):
    """GitHub's anchor slug for a heading text (with duplicate -N suffixes)."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)          # inline code
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links -> text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    slug = text.replace(" ", "-")
    if slug in seen:
        seen[slug] += 1
        return f"{slug}-{seen[slug]}"
    seen[slug] = 0
    return slug


def anchors_of(path, cache={}):
    if path not in cache:
        seen, slugs = {}, set()
        try:
            body = _strip_code_fences(path.read_text(encoding="utf-8"))
        except OSError:
            body = ""
        for line in body.splitlines():
            match = _HEADING_RE.match(line)
            if match:
                slugs.add(github_slug(match.group(2), seen))
        cache[path] = slugs
    return cache[path]


def check_links():
    problems = []
    for doc in DOC_FILES:
        if not doc.exists():
            continue
        rel = doc.relative_to(REPO)
        body = _strip_code_fences(doc.read_text(encoding="utf-8"))
        for target in _LINK_RE.findall(body):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            target, _, fragment = target.partition("#")
            dest = doc if not target \
                else (doc.parent / target).resolve()
            if target and not dest.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
            if fragment and dest.suffix == ".md" \
                    and fragment not in anchors_of(dest):
                problems.append(
                    f"{rel}: broken anchor -> {target or rel.name}"
                    f"#{fragment}")
    return problems


def _mention_corpus():
    return "\n".join(
        p.read_text(encoding="utf-8") for p in MENTION_FILES if p.exists()
    )


def _cli_parser():
    sys.path.insert(0, str(REPO / "src"))
    from repro.cli import _build_parser

    return _build_parser()


def repro_subcommands():
    import argparse

    parser = _cli_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("repro.cli._build_parser() has no subcommands")


def _env_vars_in(paths):
    names = set()
    for path in paths:
        names.update(_ENV_RE.findall(path.read_text(encoding="utf-8")))
    return sorted(names)


def src_env_vars():
    return _env_vars_in((REPO / "src").rglob("*.py"))


def read_env_vars():
    """``REPRO_*`` vars named where they can be read: ``src/``,
    ``benchmarks/`` and the Makefile."""
    return _env_vars_in([*(REPO / "src").rglob("*.py"),
                         *(REPO / "benchmarks").rglob("*.py"),
                         REPO / "Makefile"])


def env_var_drift(corpus, used, read):
    """Env-var findings for a doc ``corpus``: vars in ``used`` (read in
    src/) it never mentions, and vars it names that nothing in ``read``
    (src/, benchmarks/, Makefile) reads."""
    problems = []
    for var in used:
        if var not in corpus:
            problems.append(
                f"docs drift: env var {var} (used in src/) is documented "
                f"nowhere under docs/ or README.md")
    for var in sorted(set(_ENV_RE.findall(corpus)) - set(read)):
        problems.append(
            f"docs drift: env var {var} is documented under docs/ or "
            f"README.md but nothing in src/, benchmarks/ or the Makefile "
            f"reads it")
    return problems


def documented_commands(text):
    """``(line number, command)`` for each ``python -m repro`` command in
    markdown ``text``: the rest of a fenced line (``\\`` continuations
    joined) or the inside of an inline code span."""
    commands, in_fence = [], False
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if _CLI not in line:
            continue
        if in_fence:
            j = i
            while line.endswith("\\") and j + 1 < len(lines):
                j += 1
                line = line[:-1] + " " + lines[j].strip()
            commands.append((i + 1, line[line.index(_CLI):]))
        else:
            commands += [(i + 1, span[span.index(_CLI):])
                         for span in _INLINE_RE.findall(line) if _CLI in span]
    return commands


def command_drift(name, text, parser):
    """Findings for documented commands in ``text`` that ``parser``
    rejects."""
    problems = []
    for lineno, command in documented_commands(text):
        argv = []
        for token in shlex.split(command, comments=True)[3:]:
            if token in ("|", "&", "&&", ";"):
                break
            argv.append(token)
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit as exc:
            if exc.code:
                reason = err.getvalue().strip().rpartition("\n")[2]
                problems.append(
                    f"{name}:{lineno}: `{' '.join([_CLI, *argv])}` does "
                    f"not parse ({reason})")
    return problems


def check_commands():
    parser = _cli_parser()
    problems = []
    for path in MENTION_FILES:
        if path.exists():
            problems += command_drift(path.relative_to(REPO),
                                      path.read_text(encoding="utf-8"),
                                      parser)
    return problems


def check_drift():
    corpus = _mention_corpus()
    problems = []
    for command in repro_subcommands():
        if not re.search(rf"\b{re.escape(command)}\b", corpus):
            problems.append(
                f"docs drift: `python -m repro {command}` is documented "
                f"nowhere under docs/ or README.md")
    problems += env_var_drift(corpus, src_env_vars(), read_env_vars())
    return problems


def main():
    problems = check_links() + check_drift() + check_commands()
    for problem in problems:
        print(problem)
    if problems:
        print(f"\ndocs-check: {len(problems)} problem(s)")
        return 1
    docs = sum(1 for d in DOC_FILES if d.exists())
    commands = sum(len(documented_commands(p.read_text(encoding="utf-8")))
                   for p in MENTION_FILES if p.exists())
    print(f"docs-check: OK ({docs} docs, "
          f"{len(repro_subcommands())} subcommands, "
          f"{commands} command lines, "
          f"{len(src_env_vars())} REPRO_* vars covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
