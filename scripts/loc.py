"""Line counts of the package source, per module and in total.

    python3 scripts/loc.py [--src DIR]

Each module prints one line, `MODULE LINES CODE`: LINES counts every line
of the file, CODE only the lines that hold code, leaving out docstrings (the
leading string of a module, class or function), comments and blank lines.
The last line, `total LINES CODE`, sums them.  Pass --src to count another
tree (default: ./src next to this script).
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(text):
    """The line numbers of every docstring in the source text."""
    out = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text):
    """How many lines of the source text hold a token of code outside a
    docstring; a token spanning lines counts on each."""
    docs = docstring_lines(text)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    root = Path(ap.parse_args().src)
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, code = len(text.splitlines()), code_lines(text)
        total_lines, total_code = total_lines + lines, total_code + code
        print(path.relative_to(root).as_posix(), lines, code)
    print("total", total_lines, total_code)


if __name__ == "__main__":
    main()
