"""The demos run and print exactly what they printed when pinned.

Each demo runs in its own interpreter with only `src` on PYTHONPATH; its
stdout must match the sha256 recorded here byte for byte.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent

DEMO_SHA256 = {
    "01_group_algebra_basics.py":
        "25f982aa185359f7b19896899560b19a9a6025732a090a10f6c8c3f27b69e7d3",
    "02_wedderburn_components.py":
        "82dfbcd6698b49410863657f54168d8f459212c0796eb265091bd3746c42e62e",
    "03_division_criterion.py":
        "09c292c7ae20390ab1e3eaaae6e35011c2602ca3d1da0aeb237b6b7d23781344",
    "04_nd_verdicts_and_witnesses.py":
        "58dba2d87e91ca9f530597081314b713e68e5763d1e7eda12c784a5a98a51166",
    "05_ssn_classification.py":
        "ecb8ddc966cf80eba4c8a04d905eee5b1332f17be748f27f2e1a1275f45c3611",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("demo", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(demo):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr.decode()
    assert hashlib.sha256(out.stdout).hexdigest() == DEMO_SHA256[demo]
