"""Parser, pretty-printer, and checker diagnostics."""

import pathlib

import pytest

from repro.lang import (
    LangError,
    check_module,
    format_module,
    load_module,
    parse_module,
)

GOOD = """\
@add3(a: int, b: int, c: int): int {
  t: int = add a b;
  t: int = add t c;
  ret t;
}

@main {
  one: int = const 1;
  two: int = const 2;
  s: int = call @add3 one two two;
  ok: bool = eq s one;
  br ok .yes .no;
.yes:
  print one;
  jmp .done;
.no:
  print s;
  jmp .done;
.done:
  ret;
}
"""


CORPUS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "corpus").glob("*.spam")
)


def test_round_trip_is_fixpoint():
    sources = [("good.spam", GOOD)]
    sources += [(path.name, path.read_text()) for path in CORPUS]
    assert len(sources) > 1
    for name, source in sources:
        printed = format_module(parse_module(source, filename=name))
        again = parse_module(printed, filename=name)
        assert format_module(again) == printed, name


def test_load_module_checks():
    module = load_module(GOOD, filename="good.spam")
    assert [fn.name for fn in module.functions] == ["add3", "main"]


def _diag(source: str) -> LangError:
    with pytest.raises(LangError) as err:
        load_module(source, filename="prog.spam")
    return err.value


def test_unknown_variable_has_position():
    err = _diag("@main {\n  x: int = add y y;\n  ret;\n}\n")
    text = str(err)
    assert text.startswith("prog.spam:2:3")
    assert "y" in text


def test_syntax_error_has_position():
    err = _diag("@main {\n  x int = const 1;\n}\n")
    assert str(err).startswith("prog.spam:2:")


def test_type_mismatch_is_rejected():
    err = _diag("@main {\n  b: bool = const true;\n"
                "  x: int = add b b;\n  ret;\n}\n")
    assert "add" in str(err)


def test_branch_on_int_is_rejected():
    err = _diag("@main {\n  x: int = const 1;\n  br x .a .b;\n"
                ".a:\n  ret;\n.b:\n  ret;\n}\n")
    assert "br" in str(err)


def test_unknown_label_is_rejected():
    err = _diag("@main {\n  jmp .nowhere;\n}\n")
    assert "nowhere" in str(err)


def test_possibly_uninitialized_read_is_rejected():
    source = """\
@main {
  c: bool = const true;
  br c .a .b;
.a:
  x: int = const 1;
  jmp .join;
.b:
  jmp .join;
.join:
  print x;
  ret;
}
"""
    err = _diag(source)
    assert "x" in str(err) and "before assignment" in str(err)


def test_reserved_prefix_rejected_for_user_source():
    err = _diag("@main {\n  __x: int = const 1;\n  ret;\n}\n")
    assert "reserved" in str(err)


def test_reserved_prefix_allowed_for_compiler_output():
    module = parse_module("@main {\n  __x: int = const 1;\n  ret;\n}\n",
                          filename="gen.spam")
    check_module(module, allow_reserved=True)


def test_duplicate_label_is_rejected():
    err = _diag("@main {\n.a:\n  ret;\n.a:\n  ret;\n}\n")
    assert "duplicate" in str(err)


def test_missing_return_value_path_is_rejected():
    err = _diag("@f(): int {\n  x: int = const 1;\n}\n"
                "@main {\n  y: int = call @f;\n  print y;\n  ret;\n}\n")
    assert "fall" in str(err) or "ret" in str(err)


def test_call_arity_mismatch_is_rejected():
    err = _diag("@f(a: int): int {\n  ret a;\n}\n"
                "@main {\n  y: int = call @f;\n  ret;\n}\n")
    assert "@f" in str(err)
