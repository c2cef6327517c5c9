import re
import shlex
from pathlib import Path

from fairpr.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs(capsys):
    # the documented import paths and calls, run as written
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "all nodes fair: True" in out


def readme_commands():
    """``(argv, out, files)`` of the line starting ``fairpr `` in each ```sh block, continuations
    joined: its arguments, its ``--out`` directory and the files its ``# writes`` comment names."""
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        text = block.replace("\\\n", " ")
        command = next((line for line in text.splitlines() if line.startswith("fairpr ")), None)
        if command is None:
            continue
        comment = " ".join(line for line in text.splitlines() if line.startswith("#"))
        assert comment.startswith("# writes "), command
        argv = shlex.split(command)[1:]
        yield argv, argv[argv.index("--out") + 1], re.findall(r"[\w-]+\.(?:tsv|csv|json)", comment)


def test_readme_shell_examples_run_as_written(tmp_path, monkeypatch, capsys):
    # generate, rank, audit and sweep in README order, each on the files the one before wrote
    monkeypatch.chdir(tmp_path)
    commands = list(readme_commands())
    assert [argv[0] for argv, _, _ in commands] == ["generate", "rank", "audit", "sweep"]
    for argv, out, files in commands:
        assert main(argv) == 0, capsys.readouterr().err
        assert files and all((tmp_path / out / name).is_file() for name in files), (argv, files)
