"""The README's library examples, run as shipped, and its shell lines,
`check` figures and Config block checked against the tree."""

import argparse
import json
import re
from pathlib import Path

from nashadmm import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("converged ")


def test_readme_shell_lines_name_what_exists():
    blocks = re.findall(r"```bash\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    lines = [line.split() for block in blocks for line in block.splitlines() if line.strip()]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    documented = [words[1] for words in lines if words[0] == "nashadmm"]
    assert documented
    for command in documented:
        assert command in sub.choices, f"README documents unknown subcommand {command!r}"
    for words in lines:
        if words[0] == "python3" and not words[1].startswith("-"):
            assert (ROOT / words[1]).is_file(), f"README runs missing file {words[1]}"


def test_readme_layout_names_every_module():
    layout = re.search(r"## Layout\n\n```\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    listed = re.findall(r"^  (\w+)\.py ", layout.group(1), re.M)
    modules = {p.stem for p in (ROOT / "src" / "nashadmm").glob("*.py")} - {"__init__", "__main__"}
    assert sorted(listed) == sorted(modules)


def test_readme_check_paragraph_matches_check_output(tmp_path, capsys):
    section = (ROOT / "README.md").read_text().split("## Congestion-game experiment\n")[1]
    paragraph = next(p for p in section.split("\n\n") if p.startswith("`check` "))
    quoted = re.findall(r"`(\w+=[^`\s]*)`", paragraph)
    assert quoted
    assert cli.main(["print-default-config"]) == 0
    config = tmp_path / "config.json"
    config.write_text(capsys.readouterr().out)
    assert cli.main(["check", str(config)]) == 0
    lines = capsys.readouterr().out.splitlines()
    for pair in quoted:
        assert pair in lines, f"README quotes {pair!r}, which check does not print"


def test_readme_config_block_is_the_default_config():
    block = re.search(r"```jsonc\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    # no string in the block holds "//", so a comment starts at the first one on a line
    text = "\n".join(line.split("//")[0] for line in block.splitlines())
    assert json.loads(text) == cli.DEFAULT_CONFIG
