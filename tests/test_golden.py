"""Golden corpus: each directory under tests/golden holds a config and the
`curve.csv` and `report.json` (without `wall_time_s`) that `robkit run`
wrote for it.  A rerun must reproduce both files byte for byte.

A change that alters the output format on purpose regenerates a directory
with `robkit run --config <dir>/config.json --out <dir>` and then deletes
`wall_time_s` from the report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from robkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
CASES = sorted(p.name for p in GOLDEN.iterdir() if (p / "config.json").is_file())


def test_corpus_covers_every_case():
    assert CASES == [
        "layered_bbp",
        "rank_one",
        "servo_stability",
        "state_space_complex_disk",
        "state_space_real_half_plane",
        "step_servo",
    ]


@pytest.mark.parametrize("name", CASES)
def test_rerun_is_byte_identical(name, tmp_path, capsys):
    case = GOLDEN / name
    assert main(["run", "--config", str(case / "config.json"), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert (tmp_path / "curve.csv").read_text() == (case / "curve.csv").read_text()
    report = json.loads((tmp_path / "report.json").read_text())
    del report["wall_time_s"]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == (
        case / "report.json"
    ).read_text()


def test_step_servo_without_scipy(tmp_path):
    # a fresh interpreter in which every scipy import fails
    case = GOLDEN / "step_servo"
    code = (
        "import sys; sys.modules['scipy'] = None; from robkit.cli import main; "
        f"sys.exit(main(['run', '--config', {str(case / 'config.json')!r}, '--out', {str(tmp_path)!r}]))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "curve.csv").read_bytes() == (case / "curve.csv").read_bytes()
    report = json.loads((tmp_path / "report.json").read_text())
    del report["wall_time_s"]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == (case / "report.json").read_text()
