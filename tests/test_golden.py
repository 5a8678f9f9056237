"""Every number of a fixed set of CLI runs against the committed golden outputs (``tests/golden/``).

On the numpy and scipy versions that wrote them the numbers must be the
same bits; on other versions they are compared at ``OTHER_VERSION_RTOL``
and the test says so in a warning.  A failure names the file, the column,
key or line, and the largest distance in ulps.  To regenerate after a
change that moves numbers on purpose: ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

import json
import math
import re
import struct
import warnings

import pytest

from golden.regenerate import GOLDEN, RUNS, golden_texts, run, versions

#: on other numpy or scipy versions: |a - b| <= OTHER_VERSION_RTOL * max(|a|, |b|, OTHER_VERSION_FLOOR), so
#: numbers below the floor in magnitude (round-off residuals such as verify's) are compared to an absolute 1e-9
OTHER_VERSION_RTOL, OTHER_VERSION_FLOOR = 1e-6, 1e-3

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:inf|nan)\b)")


def _value(text: str) -> float | str:
    try:
        return float(text)
    except ValueError:
        return text


def _flatten(value, key: str, out: dict) -> None:
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(item, f"{key}.{name}" if key else name, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, f"{key}[{i}]", out)
    else:
        out.setdefault(f"key {key}", []).append(float(value) if type(value) in (int, float) else value)


def parse(file: str, text: str) -> dict[str, list]:
    """The values of a golden file by location: a CSV's column, a JSON object's key (one object per line in
    stdout), or a text line's numbers and the words between them (the words as strings)."""
    out: dict[str, list] = {}
    lines = text.splitlines()
    if file.endswith(".csv"):
        columns = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(columns):
                out.setdefault("rows", []).append(line)
            for column, cell in zip(columns, cells):
                out.setdefault(f"column {column}", []).append(_value(cell))
    elif file.endswith(".json"):
        _flatten(json.loads(text), "", out)
    else:
        for i, line in enumerate(lines, start=1):
            if line.startswith("{"):
                _flatten(json.loads(line), f"line {i}", out)
                continue
            parts = _NUMBER.split(line)
            label = next((part.strip() for part in parts[::2] if part.strip()), "")
            out[f"line {i} ({label})"] = [float(part) if j % 2 else part for j, part in enumerate(parts)]
    return out


def _ordinal(x: float) -> int:
    """The position of x among the doubles, ordered by value (-0.0 and 0.0 share 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulps(a: float, b: float) -> float:
    """How many doubles apart a and b are: inf when exactly one is NaN."""
    if math.isnan(a) or math.isnan(b):
        return 0.0 if math.isnan(a) and math.isnan(b) else math.inf
    return float(abs(_ordinal(a) - _ordinal(b)))


def _same(a: float, b: float, rtol: float) -> bool:
    if rtol == 0.0:
        return repr(a) == repr(b)  # the bits, the sign of zero included
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return repr(a) == repr(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), OTHER_VERSION_FLOOR)


def differences(file: str, want: str, got: str, rtol: float = 0.0) -> list[str]:
    """One line per location of ``file`` whose values differ: its largest distance in ulps, golden against now."""
    expected, found = parse(file, want), parse(file, got)
    if expected.keys() != found.keys():
        return [f"{file}: locations differ: {sorted(expected.keys() ^ found.keys())}"]
    lines = []
    for where, old in expected.items():
        new = found[where]
        if len(old) != len(new):
            lines.append(f"{file}: {where}: {len(old)} values, now {len(new)}")
            continue
        numbers = [(a, b) for a, b in zip(old, new) if isinstance(a, float) and isinstance(b, float)]
        words = [(a, b) for a, b in zip(old, new) if not (isinstance(a, float) and isinstance(b, float))]
        moved = [(a, b) for a, b in numbers if not _same(a, b, rtol)]
        if moved:
            a, b = max(moved, key=lambda pair: ulps(*pair))
            lines.append(f"{file}: {where}: {len(moved)} numbers moved, the largest by {ulps(a, b):.0f} ulps "
                         f"(golden {a!r}, now {b!r})")
        lines.extend(f"{file}: {where}: {a!r}, now {b!r}" for a, b in words if a != b)
    return lines


def test_differences_name_the_column_and_the_ulps():
    want = "t,energy\n0,1.5\n0.1,2\n"
    got = "t,energy\n0,1.5000000000000002\n0.1,2\n"
    assert differences("run.csv", want, got) == [
        "run.csv: column energy: 1 numbers moved, the largest by 1 ulps (golden 1.5, now 1.5000000000000002)"
    ]
    assert differences("run.csv", want, got, OTHER_VERSION_RTOL) == []
    assert differences("run.csv", want, "t,energy\n0,1.5001\n0.1,2\n", OTHER_VERSION_RTOL)
    assert differences("out.txt", "worst=1.0e-12 at seed 1\n", "worst=3.0e-12 at seed 1\n", OTHER_VERSION_RTOL) == []
    assert differences("out.txt", "ok at seed 1\n", "ok at seed 2\n") == [
        "out.txt: line 1 (ok at seed): 1 numbers moved, the largest by 4503599627370496 ulps (golden 1.0, now 2.0)"
    ]
    assert differences("a.json", '{"x": {"y": [0.0]}}', '{"x": {"y": [-0.0]}}') == [
        "a.json: key x.y[0]: 1 numbers moved, the largest by 0 ulps (golden 0.0, now -0.0)"
    ]


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_outputs_are_unchanged(name, tmp_path):
    header = json.loads((GOLDEN / "header.json").read_text())
    here, there = versions(), {key: header[key] for key in versions()}
    rtol = 0.0
    if here != there:
        rtol = OTHER_VERSION_RTOL
        warnings.warn(f"golden outputs were written with {there}, this is {here}: numbers compared to a relative "
                      f"{OTHER_VERSION_RTOL:g} of max(|value|, {OTHER_VERSION_FLOOR:g}), not bit for bit")
    code, texts = run(name, tmp_path)
    want = golden_texts(name)
    assert code == header["exit_codes"][name]
    assert sorted(texts) == sorted(want)
    problems = [line for file in want for line in differences(f"{name}/{file}", want[file], texts[file], rtol)]
    assert not problems, "\n".join(problems)
