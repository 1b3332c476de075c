"""README runs as written: the library tour's blocks, the values its comments
state, and the command lines of its ``sh`` blocks."""

import ast
import io
import re
import shlex
import textwrap
import tokenize
from pathlib import Path

import numpy as np

from relphase import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# Names a comment may use besides the tour's own.
HELPERS = {"diag": lambda *entries: np.diag(entries)}


def fenced(lang):
    return [textwrap.dedent(block)
            for block in re.findall(rf"^ *```{lang}\n(.*?)^ *```$", README, re.M | re.S)]


def stated(comment, namespace):
    """What a tour comment states about its line's value, or None for prose.

    ``shape (...)`` states the value's shape.  Otherwise the text after the
    last ``->``, or the whole comment, states the value (or, written
    ``name = ...``, its attribute ``name``) when it is a Python expression
    over names the tour has defined or ``diag``.
    """
    if shape := re.search(r"\bshape (\([\d, ]*\))", comment):
        return "shape", None, ast.literal_eval(shape[1])
    attr, text = re.fullmatch(r"(?:(\w+) = )?(.*)", comment.rpartition("->")[2].strip()).groups()
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError:
        return None
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if not names <= namespace.keys() | HELPERS.keys():
        return None
    return "value", attr, eval(compile(tree, "README", "eval"), {**namespace, **HELPERS})


def test_library_tour_blocks_run_in_order():
    blocks = fenced("python")
    assert len(blocks) == 4
    namespace, claims = {}, []
    for block in blocks:
        comments = {tok.start[0]: tok.string.lstrip("#").strip()
                    for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                    if tok.type == tokenize.COMMENT}
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
                value = (eval(ast.unparse(stmt.targets[0]), namespace)
                         if isinstance(stmt, ast.Assign) else None)
            for line in range(stmt.lineno, stmt.end_lineno + 1):
                claim = stated(comments.get(line, ""), namespace)
                if claim is None:
                    continue
                kind, attr, expected = claim
                claims.append(ast.unparse(stmt))
                got = getattr(value, attr) if attr else value
                if kind == "shape":
                    assert np.shape(got) == expected, claims[-1]
                elif isinstance(expected, (bool, tuple)):
                    assert got == expected, claims[-1]
                else:
                    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-15,
                                               err_msg=claims[-1])
    # Every comment that states a value is read; a reworded one that the
    # rules above no longer read lowers the count.
    assert len(claims) == 17


def test_command_lines_exit_zero(capsys):
    lines = [shlex.split(line, comments=True) for block in fenced("sh")
             for line in block.splitlines() if line.startswith("relphase ")]
    # The usage synopsis is not a command.
    commands = [argv[1:] for argv in lines if not any(c in " ".join(argv) for c in "[<")]
    assert len(commands) == 4
    for argv in commands:
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
