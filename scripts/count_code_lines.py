"""Count the code lines of Python files: lines that hold a token other than
a comment, and that are not part of a docstring.  Blank lines are not
counted either.

    python scripts/count_code_lines.py [PATH ...]

Each PATH is a file or a directory searched for *.py files (default: the
package's src tree).  Prints the count of every file and the total.
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: tokens that carry no code
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstrings(tree: ast.AST) -> set:
    """The (line, column) start of every module, class and function
    docstring in tree."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of lines of `source` that hold a code token: a token
    other than a comment or a docstring.  A token over several lines, such
    as a multi-line string, counts each of its lines."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or tok.start in docstrings:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    default = Path(__file__).resolve().parent.parent / "src"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[default])
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        n = count_code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
