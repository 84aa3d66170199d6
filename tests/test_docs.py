"""The Python examples of README.md and PAPER.md run as written, so a tour
cannot name a function that has moved or gone."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(doc):
    return re.findall(r"^```python\n(.*?)^```$", (ROOT / doc).read_text(encoding="utf-8"), re.M | re.S)


README_BLOCKS = python_blocks("README.md")
PAPER_BLOCKS = python_blocks("PAPER.md")


def run_block(doc, block):
    exec(compile(block, str(ROOT / doc), "exec"), {})


def test_readme_has_python_blocks():
    assert README_BLOCKS


def test_paper_has_python_blocks():
    assert PAPER_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{k}" for k in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    run_block("README.md", block)


@pytest.mark.parametrize("block", PAPER_BLOCKS, ids=[f"block{k}" for k in range(len(PAPER_BLOCKS))])
def test_paper_python_block_runs(block):
    run_block("PAPER.md", block)
