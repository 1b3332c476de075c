"""Every demo runs in-process as CI runs it, with warnings as errors."""

import contextlib
import io
import runpy
import warnings
from pathlib import Path

import numpy as np
import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_without_warnings(demo):
    before = np.get_printoptions()
    out = io.StringIO()
    # The demos set numpy's print options; printoptions() restores them.
    with np.printoptions(), warnings.catch_warnings(), contextlib.redirect_stdout(out):
        warnings.simplefilter("error")
        runpy.run_path(str(demo), run_name="__main__")
    assert out.getvalue()
    assert np.get_printoptions() == before
