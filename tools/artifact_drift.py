"""Compare two trees of run artifacts file by file and say how far they drifted.

For each file under either directory, in sorted order, prints whether its
bytes are equal.  A JSON or CSV file whose bytes differ is compared value by
value (a CSV cell that reads as a number is a float): the line gives the
number of changed floats and the largest relative change,
|a - b| / max(|a|, |b|), with the key path where it occurs; each key path
whose value changed and is not a float pair (an integer, a string, a boolean,
a key or list entry present on one side only) follows on its own line.  Any
such change, a file present on one side only, or differing bytes in any other
file makes the exit status 1; drift in floats alone exits 0, and a missing
directory exits 2.

    python3 tools/artifact_drift.py OLD_DIR NEW_DIR
"""

import csv
import json
import math
import sys
from pathlib import Path


def _compare(old, new, path, floats, other):
    """Append each changed float pair to ``floats`` as (relative change, path)
    and each other changed path to ``other``."""
    if isinstance(old, float) and isinstance(new, float):
        if old != new and not (math.isnan(old) and math.isnan(new)):
            rel = abs(old - new) / max(abs(old), abs(new))
            floats.append((rel if math.isfinite(rel) else math.inf, path))
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                _compare(old[key], new[key], sub, floats, other)
            else:
                other.append(sub)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            if i < len(old) and i < len(new):
                _compare(old[i], new[i], f"{path}[{i}]", floats, other)
            else:
                other.append(f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        other.append(path or "(top level)")


def _read(path: Path):
    """A JSON document, or a CSV file as rows of floats and strings."""
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def drift(old: Path, new: Path, name: str) -> tuple:
    """The report lines for the file ``name`` and whether it changed other than in floats."""
    a, b = old / name, new / name
    if not (a.is_file() and b.is_file()):
        return [f"{name}: only in {old if a.is_file() else new}"], True
    if a.read_bytes() == b.read_bytes():
        return [f"{name}: identical"], False
    if a.suffix not in (".json", ".csv"):
        return [f"{name}: bytes differ"], True
    try:
        docs = _read(a), _read(b)
    except ValueError as exc:
        return [f"{name}: bytes differ, not comparable ({exc})"], True
    floats, other = [], []
    _compare(*docs, "", floats, other)
    line = f"{name}: {len(floats)} floats changed"
    if floats:
        rel, where = max(floats)
        line += f", largest relative change {rel:.2g} at {where or '(top level)'}"
    if other:
        line += f", {len(other)} other values changed"
    return [line, *(f"  {path}" for path in other)], bool(other)


def main(argv):
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: " + __doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    old, new = map(Path, argv)
    names = sorted({str(p.relative_to(root)) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    changed = False
    for name in names:
        lines, other = drift(old, new, name)
        print("\n".join(lines))
        changed |= other
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
