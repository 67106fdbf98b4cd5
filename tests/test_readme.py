import re
import shlex
from pathlib import Path

from simcores.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_prints_each_commented_value():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace = {}
    checked = []
    for line in blocks[0].splitlines():
        code, hash_, comment = line.partition("  #")
        if not hash_:
            exec(code, namespace)
            continue
        # "value  (remark)": the value ends at the first double space
        expected = comment.strip().split("  ")[0]
        value = eval(code, namespace)
        assert expected in (repr(value), str(value)), line
        checked.append(code.strip())
    assert "qdet_coarea(Partition((2, 1)))" in checked
    assert len(checked) == 6


def test_readme_cli_lines_run_and_print_each_commented_number(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("simcores ")]
    assert len(lines) == 14
    monkeypatch.chdir(tmp_path)  # --svg writes into the working directory
    checked = []
    for line in lines:
        code, _, comment = line.partition("#")
        assert main(shlex.split(code)[1:]) == 0, line
        out = capsys.readouterr().out
        comment = comment.strip()
        if comment[:1].isdigit():
            # "66, total size: 858": each piece is one of the last lines, or
            # its last word ("total size: 25" for "25")
            pieces = comment.split(", ")
            ends = out.splitlines()[-len(pieces):]
            assert len(ends) == len(pieces), line
            assert all(end == piece or end.endswith(" " + piece)
                       for end, piece in zip(ends, pieces)), (line, out)
            checked.append(comment)
    assert checked == ["66", "25", "66, total size: 858", "66"]
    assert (tmp_path / "panels.svg").is_file()
