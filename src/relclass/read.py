"""Typed readers: what a field of an input file may be, decided in one place.

Every field of every input format is read through one of these where it
enters the program. A reader returns the value itself, never a converted
copy, or raises FieldError naming the field; the caller adds the file and
line. JSON's true/false are never numbers here, though Python's bool is an int.
The line formats are split into lines by ``text_lines``.
"""

import io
import operator
import reprlib
import sys

INT64 = range(-2**63, 2**63)  # the integers numpy can size and index arrays with
_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}


class FieldError(ValueError):
    """A field of the wrong kind, or out of its range."""


def text_lines(path, error: type[ValueError] = ValueError):
    """Yield ``(line number, line)`` for each line of the UTF-8 text file
    ``path``, split as text-mode iteration splits them (at ``\\n``,
    ``\\r\\n`` and ``\\r``, each read as ``\\n``). A byte that is not UTF-8
    raises ``error`` naming the file and the line it stands on."""
    with open(path, "rb") as fh:
        text = io.TextIOWrapper(fh, encoding="utf-8")
        try:
            yield from enumerate(text, start=1)
        except UnicodeDecodeError:
            fh.seek(0)  # the wrapper's offset is within its chunk: find the byte in the file
            data = fh.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                before = data[:exc.start].decode("utf-8")
                lineno = 1 + before.count("\n") + before.count("\r") - before.count("\r\n")
                raise error(f"{path}: line {lineno}: byte 0x{data[exc.start]:02x} is not "
                            f"UTF-8 ({exc.reason})") from None
            raise


def _fail(name: str, what: str, value):
    raise FieldError(f"{name} must be {what}, got {reprlib.repr(value)}")


def integer(value, name: str, lo: int = INT64.start, hi: int = INT64.stop - 1) -> int:
    """``value`` once it is an integer >= ``lo`` and <= ``hi``, by default the int64 range."""
    if isinstance(value, int) and not isinstance(value, bool) and lo <= value <= hi:
        return value
    bounds = [f">= {lo}"] * (lo > INT64.start) + [f"<= {hi}"] * (hi < INT64.stop - 1)
    _fail(name, " ".join(["a 64-bit integer", " and ".join(bounds)]).strip(), value)


def number(value, name: str, *bounds: str) -> float:
    """``value`` once it is a finite int or float within the bounds, each a
    string such as ``"> 0"`` or ``"< 1"``."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and all(_COMPARE[op](value, float(limit)) for op, limit in map(str.split, bounds))):
        return value
    _fail(name, " ".join(["a finite number", " and ".join(bounds)]).strip(), value)


def string(value, name: str, empty: bool = False) -> str:
    """``value`` once it is a string, nonempty unless ``empty`` allows it."""
    if isinstance(value, str) and (value or empty):
        return value
    _fail(name, "a string" if empty else "a nonempty string", value)


def boolean(value, name: str) -> bool:
    return value if isinstance(value, bool) else _fail(name, "true or false", value)


def array(value, name: str, length: int | None = None) -> list:
    """``value`` once it is a JSON array, of exactly ``length`` items if given."""
    if isinstance(value, list) and length in (None, len(value)):
        return value
    _fail(name, "an array" if length is None else f"an array of {length} items", value)


def object(value, name: str) -> dict:
    return value if isinstance(value, dict) else _fail(name, "a JSON object", value)
