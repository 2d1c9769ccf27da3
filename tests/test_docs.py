"""README examples run as written, so a name removed from the package cannot
linger in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_use_runs():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace: dict = {}
    exec(compile(block, f"{README}:Library use", "exec"), namespace)
    assert namespace["emil"].cardinality() == 14544
    assert namespace["best"] in namespace["emil"].enumerate_all()
