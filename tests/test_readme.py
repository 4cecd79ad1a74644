import re
from pathlib import Path

from regclique.cli import main

README = Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    # the README's "Library" section shows one python block; run it as written
    library = README.read_text().split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_command_lines_run(monkeypatch, capsys, tmp_path):
    # every `regclique ...` line of the "Command line" block, in-process, writing into an empty directory
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines() if line.startswith("regclique ")]
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, argv
        if argv[0] == "certify":
            assert out == "PASS\n", argv
