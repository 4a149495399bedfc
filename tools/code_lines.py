"""Count the code lines of Python files: lines that hold a token other than a
comment, a newline or a docstring.

    python3 tools/code_lines.py src/contrareg        # prints the total
    python3 tools/code_lines.py -v src/contrareg     # and the count per file

Arguments are files or directories (searched for *.py).  A docstring is the
string-constant first statement of a module, class or function; a string
token spans every line from its start to its end.
"""

import argparse
import ast
import io
import pathlib
import tokenize

_BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in a module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _files(paths):
    for path in map(pathlib.Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None):
    parser = argparse.ArgumentParser(description="Count the code lines of Python files.")
    parser.add_argument("paths", nargs="+")
    parser.add_argument("-v", "--verbose", action="store_true", help="print each file's count")
    args = parser.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        if args.verbose:
            print(f"{count:6d}  {path}")
    print(total)


if __name__ == "__main__":
    main()
