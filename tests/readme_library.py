"""Run the code block under README.md's `## Library` and check the values it
states: each line whose comment ends in a number must evaluate to that number.

Needs only the standard library and the package on the path:

    PYTHONPATH=src python tests/readme_library.py
"""

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_lines() -> list[str]:
    """The lines of the python block under README.md's `## Library`."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def check() -> list[tuple[str, int]]:
    """Run the block line by line, and return (code, value) for each line that
    states its value; raise AssertionError at the first value that differs."""
    namespace: dict = {}
    checked = []
    for line in library_lines():
        code, _, comment = line.partition("#")
        stated = re.search(r"(\d+)\s*$", comment)
        if stated is None:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        if value != int(stated[1]):
            raise AssertionError(f"{code.strip()} gives {value}, README.md states {stated[1]}")
        checked.append((code.strip(), value))
    return checked


if __name__ == "__main__":
    checked = check()
    for code, value in checked:
        print(f"{code} == {value}")
    sys.exit(0 if checked else "no stated value found under ## Library")
