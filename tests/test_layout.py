"""Every module of the package stays within one compile budget.

With no bytecode cache (a fresh checkout, or ``PYTHONDONTWRITEBYTECODE=1``)
each process compiles every module it imports, and the parser's peak memory
grows with the module's token count and stays in the process's peak RSS.
So no module may hold more than ``MAX_CODE_TOKENS`` code tokens: comments,
NL/NEWLINE and INDENT/DEDENT tokens are not counted (README, "Package
layout").
"""

import io
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "heightzeta").glob("*.py"))
MAX_CODE_TOKENS = 3300
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_tokens(source: str) -> int:
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(1 for tok in tokens if tok.type not in _NOT_CODE)


def test_count_skips_comments_and_layout():
    # names, operators, the docstring and the end marker count; comments and layout do not
    source = '"""doc"""\n# a comment\n\ndef f(x):\n    return x  # another\n'
    assert code_tokens(source) == 10


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_module_within_the_token_budget(path):
    assert code_tokens(path.read_text()) <= MAX_CODE_TOKENS
