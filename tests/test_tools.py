import importlib.util
import itertools
import pathlib
import platform

import numpy as np
import pytest

from cesarolab.cli import main

TOOL = (pathlib.Path(__file__).resolve().parents[1] / "tools"
        / "report_digests.py")
DIGESTS = pathlib.Path(__file__).resolve().with_name("report_digests.txt")


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_is_reproducible():
    tool = load_tool()
    argv = ["verify", "--suite", "eigen", "--N", "8", "--m", "3"]
    code, first = tool.digest(argv, main)
    assert code == 0
    assert tool.digest(argv, main) == (code, first)
    # the report hashes alike on stdout and in an output file
    assert tool.digest(argv + ["--output", "{out}/r.json"], main) == (
        code, first)
    assert tool.digest(["verify", "--suite", "eigen", "--N", "9", "--m",
                        "3"], main)[1] != first


def test_reports_match_recorded_digests():
    # every report of the tool hashes as recorded; a change that moves a
    # report on purpose records the file again (see the tool's docstring)
    header, *recorded = DIGESTS.read_text().splitlines()
    here = f"# python {platform.python_version()} numpy {np.__version__}"
    if header != here:
        pytest.fail(f"{DIGESTS.name} was recorded with {header[2:]!r}, "
                    f"this is {here[2:]!r}: record it again with this "
                    f"interpreter from a checkout whose reports are right")
    changed = [(ours or theirs).split(" ", 2)[2]
               for ours, theirs in itertools.zip_longest(
                   load_tool().report_lines(main), recorded)
               if ours != theirs]
    assert not changed, "reports changed:\n" + "\n".join(changed)
