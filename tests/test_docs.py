"""Documentation stays in lockstep with the code (the docs-check gate).

Runs ``tools/check_docs.py`` — markdown link/anchor resolution plus the
doc-drift lint (every CLI subcommand and every ``REPRO_*`` env var used
in ``src/`` must be mentioned under ``docs/`` or ``README.md``, and every
``REPRO_*`` var those docs name must still be read by ``src/``,
``benchmarks/`` or the Makefile, and every documented ``python -m repro``
command line must parse) — so a new subcommand, env var, deleted env
var, dropped flag, or renamed doc heading fails the test suite, not just
the CI job.
"""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_docs_check_is_clean():
    proc = subprocess.run(
        [sys.executable, str(REPO / "tools" / "check_docs.py")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _check_docs():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


def test_drift_lint_sees_current_surface():
    """The lint's own inputs are non-trivial: it must enumerate every
    CLI subcommand and the known env vars (a broken enumerator would
    vacuously pass the drift check)."""
    check_docs = _check_docs()
    commands = check_docs.repro_subcommands()
    assert {"run", "figure", "compare", "sweep", "chaos", "profile",
            "conformance"} <= set(commands)
    env_vars = check_docs.src_env_vars()
    assert {"REPRO_SCALE", "REPRO_NO_LINK_CACHE"} <= set(env_vars)
    assert "REPRO_TEMPLATE" not in env_vars  # _REPRO_TEMPLATE identifier
    # REPRO_CACHE is read only by the benchmark suite's conftest.
    read = check_docs.read_env_vars()
    assert "REPRO_CACHE" in read and "REPRO_CACHE" not in env_vars
    assert set(env_vars) <= set(read)


def test_env_lint_flags_var_used_in_src_but_undocumented():
    check_docs = _check_docs()
    problems = check_docs.env_var_drift(
        "set REPRO_SCALE=smoke", used=["REPRO_SCALE", "REPRO_NEW_KNOB"],
        read=["REPRO_SCALE", "REPRO_NEW_KNOB"])
    assert len(problems) == 1
    assert "REPRO_NEW_KNOB" in problems[0]
    assert "documented nowhere" in problems[0]


def test_env_lint_flags_documented_var_nothing_reads():
    check_docs = _check_docs()
    read = check_docs.read_env_vars()
    corpus = ("`REPRO_SCALE=smoke` sizes the suite; `REPRO_NO_VECTOR=1` "
              "forced the scalar channel; `REPRO_*` vars are refused")
    problems = check_docs.env_var_drift(corpus, used=[], read=read)
    assert len(problems) == 1
    assert "REPRO_NO_VECTOR" in problems[0]
    assert "nothing in src/, benchmarks/ or the Makefile reads it" \
        in problems[0]
    # A var read only outside src/ (the benchmark conftest) is fine.
    assert check_docs.env_var_drift("REPRO_CACHE=0", used=[],
                                    read=read) == []


def test_command_lint_passes_documented_commands_that_parse():
    check_docs = _check_docs()
    text = (
        "Run `python -m repro figure fig8`, or:\n\n"
        "```bash\n"
        "REPRO_SCALE=smoke python -m repro sweep --seeds 0-3 \\\n"
        "    --workers 2 --json | python -m json.tool   # pretty\n"
        "python -m repro serve --port 8750 &   # background\n"
        "```\n"
    )
    commands = check_docs.documented_commands(text)
    assert [line for line, _ in commands] == [1, 4, 6]
    assert check_docs.command_drift("doc.md", text,
                                    check_docs._cli_parser()) == []


def test_command_lint_flags_a_stale_flag():
    check_docs = _check_docs()
    text = ("```bash\n"
            "python -m repro chaos --protocols mnp \\\n"
            "    --fault-intensity 0.5\n"
            "```\n"
            "and `python -m repro sweep --shards 4`\n")
    problems = check_docs.command_drift("doc.md", text,
                                        check_docs._cli_parser())
    assert len(problems) == 2
    assert problems[0].startswith("doc.md:2: `python -m repro chaos "
                                  "--protocols mnp --fault-intensity 0.5`")
    assert "unrecognized arguments: --fault-intensity" in problems[0]
    assert problems[1].startswith("doc.md:5: ")
    assert "--shards" in problems[1]
