"""The README's library sketch runs as written, and its command lines parse."""

import pathlib
import re
import shlex

from srpb import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_sketch"})


def test_readme_command_lines_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("srpb ")]
    assert len(lines) >= 10
    parser = cli._build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.run), line
