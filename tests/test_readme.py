"""The README's examples, run as written."""

import re
from pathlib import Path

import numpy as np
import pytest

from isoclinic import CompatibleStructure, OrientedTwoPlane, apply_structure, two_plane_orbit

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("coefficients", [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0.48, 0.6, 0.64)])
def test_kaehler_cosine_expression(coefficients):
    # the A-Kaehler cosine of the oriented plane (x, -Ax) is 1
    expression = re.search(r"its `A`-Kaehler cosine is `([^`]+)`", README).group(1)
    assert expression == "A.coefficients() @ two_plane_orbit(P).im[1:]"
    A = CompatibleStructure(*coefficients)
    x = np.random.default_rng(5).standard_normal(8)
    x /= np.linalg.norm(x)
    P = OrientedTwoPlane(x, -apply_structure(A, x))
    cosine = eval(expression, {"two_plane_orbit": two_plane_orbit}, {"A": A, "P": P})
    assert cosine == pytest.approx(1.0, abs=1e-12)
