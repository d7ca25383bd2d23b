import importlib.util
import pathlib

from cesarolab.cli import main

TOOL = (pathlib.Path(__file__).resolve().parents[1] / "tools"
        / "report_digests.py")


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
