"""Every ``REPRO_*`` environment knob is documented: the names in
``src/`` and ``scripts/*.py`` equal the rows of the "Environment knobs"
table in ``docs/ARCHITECTURE.md`` § "Resilience"."""

import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_KNOB = re.compile(r"REPRO_[A-Z_]+")
_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|")


def read(*parts):
    with open(os.path.join(ROOT, *parts)) as handle:
        return handle.read()


def knobs_in_code():
    paths = glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)
    paths += glob.glob(os.path.join(ROOT, "scripts", "*.py"))
    names = set()
    for path in paths:
        with open(path) as handle:
            names.update(_KNOB.findall(handle.read()))
    return names


def table_rows():
    """``[(name, owner, default, reader)]`` of the knob table."""
    lines = read("docs", "ARCHITECTURE.md").splitlines()
    start = next(
        i for i, line in enumerate(lines) if "**Environment knobs.**" in line
    )
    rows = []
    in_table = False
    for line in lines[start:]:
        if not line.startswith("|"):
            if in_table:
                break
            continue
        in_table = True
        if _ROW.match(line):
            rows.append(
                tuple(cell.strip(" `") for cell in line.strip("|").split("|"))
            )
    return rows


def test_table_rows_equal_the_knobs_in_code():
    names = [row[0] for row in table_rows()]
    assert len(names) == len(set(names)), f"duplicate rows: {names}"
    assert set(names) == knobs_in_code()


def test_each_row_names_its_owner_default_and_reader():
    for row in table_rows():
        assert len(row) == 4, row
        name, owner, default, reader = row
        module = os.path.join("src", *owner.split(".")) + ".py"
        assert name in read(module), f"{owner} does not read {name}"
        assert default, row
        assert reader in ("parent", "workers", "parent and workers"), row
