import re
from pathlib import Path

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
