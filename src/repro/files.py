"""The one seam between the library and its text artefacts.

Everything outside :mod:`repro.store` writes a text artefact, reads a
line-oriented file or loads a JSON / TOML document through this module,
so the decisions are made once: files are UTF-8, a writer creates its
parent directory, and a reader fails only with a named
:mod:`repro.errors` type saying which file (and line) was at fault.  The
one exception is a missing JSONL file: it is opened when iteration starts
and stays the ``OSError`` the operating system raised (``main()`` prints
it, exit 2).  A spec file -- the campaign file, the SLO policy, the
observer spec, the session policy -- is a frozen dataclass read by
:func:`spec_from_table` and written by :func:`spec_to_table`; what each
value may be comes from its field's type (:data:`SHAPES`), and the
dataclass's ``__post_init__`` checks it (:func:`check_spec`).
:class:`JsonlLog` is the append-only, canonically
sortable log the monitor and the observer fleet both keep their events
in.  A new artefact needs a ``to_json`` on its rows and a noun for
messages.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import typing
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.errors import ReproError, ResultsFormatError

T = TypeVar("T")
PathLike = Union[str, Path]


def write_text(path: PathLike, text: str) -> Path:
    """Write ``text`` to ``path`` as UTF-8, creating parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


def iter_lines(path: Path, what: str) -> Iterator[Tuple[int, str]]:
    """Yield ``(line_number, stripped_line)`` for every non-blank line.

    ``what`` is the noun for the file ("segment", "results file"); it is
    only formatted when a byte that is not UTF-8 turns up.
    """
    line_number = 0
    try:
        with path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if line:
                    yield line_number, line
    except UnicodeDecodeError as exc:
        # Decoded a block at a time: the bad byte is in a line not read yet.
        raise ResultsFormatError(
            f"{what} {path} is not UTF-8 at or after line {line_number + 1}: {exc}"
        ) from exc


def read_jsonl(path: PathLike, decode: Callable[[Any], T], what: str) -> List[T]:
    """Every line of a JSONL file through ``decode(json.loads(line))``.

    ``what`` names one line's content ("alert line"); a line that is not
    JSON, or that ``decode`` rejects, raises
    :class:`~repro.errors.ResultsFormatError` with file and line number.
    """
    path = Path(path)
    items: List[T] = []
    for number, line in iter_lines(path, "JSONL file"):
        try:
            items.append(decode(json.loads(line)))
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ResultsFormatError(
                f"{path}:{number}: malformed {what}: {exc}"
            ) from exc
    return items


def read_text(path: PathLike, error: Type[ReproError], what: str) -> str:
    """A whole UTF-8 file; a missing file or bad bytes raise ``error``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise error(f"unreadable {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"malformed {what} {path}: not UTF-8: {exc}") from exc


def read_document(
    path: PathLike, error: Type[ReproError], what: str
) -> Dict[str, Any]:
    """A ``.toml`` (via :mod:`tomllib`) or JSON file holding one mapping.

    Every failure — missing file, bad bytes, a parse error, a document
    that is not a mapping, TOML on an interpreter without ``tomllib`` —
    raises ``error``, the caller's :mod:`repro.errors` class, naming
    ``what`` and the path.
    """
    text = read_text(path, error, what)
    parse = json.loads
    if Path(path).suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError:
            raise error(
                f"{what} {path}: TOML files need Python 3.11 or later "
                f"(tomllib); use JSON on this interpreter"
            ) from None
        parse = tomllib.loads
    try:
        data = parse(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, TOMLDecodeError
        raise error(f"malformed {what} {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise error(
            f"malformed {what} {path}: expected a JSON object or TOML table, "
            f"got {type(data).__name__}"
        )
    return data


def _number(value: Any) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _non_empty_tuple(valid_item: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: isinstance(v, tuple) and bool(v) and all(map(valid_item, v))


#: What a spec field of each type must hold; a value of another type is
#: refused, never coerced (``"false"`` is not false, ``2.7`` rounds is not 2).
#: A spec dataclass holds a table and a ``Tuple`` of them a non-empty list
#: of tables; ``Union`` / ``Optional`` take any of their types ("or absent").
SHAPES: Dict[Any, Tuple[str, Callable[[Any], bool]]] = {
    str: ("a string", lambda v: isinstance(v, str)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    float: ("a finite number", _number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    Tuple[str, ...]: (
        "a non-empty list of names",
        _non_empty_tuple(lambda item: isinstance(item, str) and bool(item)),
    ),
    type(None): ("absent", lambda v: v is None),
}


class _SpecField(NamedTuple):
    name: str
    #: The file key: the field's name unless it declares ``metadata={"key": ...}``.
    key: str
    required: bool
    expected: str
    valid: Callable[[Any], bool]
    #: The spec dataclass a table read for this field becomes, if any.
    table_spec: Optional[type]
    #: Whether a list read for this field becomes a tuple, and the spec
    #: dataclass each entry becomes (``None``: entries are kept as they are).
    many: bool
    entry_spec: Optional[type]


def _shape(hint: Any) -> Tuple[str, Callable[[Any], bool]]:
    spec = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint
    if not dataclasses.is_dataclass(spec):
        return SHAPES[hint]
    if spec is hint:
        return "a table", lambda v: isinstance(v, spec)
    return "a non-empty list of tables", _non_empty_tuple(lambda v: isinstance(v, spec))


def _spec_field(item: "dataclasses.Field[Any]", hint: Any) -> _SpecField:
    # ``Optional[X]`` is ``Union[X, None]``: a value of any of the types.
    types = typing.get_args(hint) if typing.get_origin(hint) is Union else (hint,)
    shapes = [_shape(one) for one in types]
    checks = [valid for _, valid in shapes]
    if item.default == ():
        # The default stays valid in code; a file says it by leaving the key out.
        checks.append(lambda v: v == ())
    tables = [one for one in types if dataclasses.is_dataclass(one)]
    lists = [one for one in types if typing.get_origin(one) is tuple]
    entry = typing.get_args(lists[0])[0] if lists else None
    return _SpecField(
        name=item.name,
        key=item.metadata.get("key", item.name),
        required=item.default is dataclasses.MISSING
        and item.default_factory is dataclasses.MISSING,
        expected=" or ".join(expected for expected, _ in shapes),
        # One check is called as it is: ProbeConfig is checked once per probe.
        valid=checks[0] if len(checks) == 1 else lambda v: any(c(v) for c in checks),
        table_spec=tables[0] if tables else None,
        many=bool(lists),
        entry_spec=entry if dataclasses.is_dataclass(entry) else None,
    )


@functools.lru_cache(maxsize=None)
def _spec_fields(cls: type) -> Tuple[_SpecField, ...]:
    """Each field's shape, worked out from the class's type hints once."""
    hints = typing.get_type_hints(cls)
    return tuple(_spec_field(item, hints[item.name]) for item in dataclasses.fields(cls))


def check_spec(spec: Any, error: Type[ReproError], what: str) -> None:
    """Raise ``error`` -- "``{what} 'key'`` must be ..., got ..." -- for the
    first field of the spec dataclass ``spec`` whose value is not of the
    shape its type declares.  Every spec's ``__post_init__`` calls it, so a
    spec built in code is checked like one read from a file."""
    for item in _spec_fields(type(spec)):
        value = getattr(spec, item.name)
        if not item.valid(value):
            raise error(f"{what} {item.key!r} must be {item.expected}, got {value!r}")


def spec_from_table(cls: Type[T], table: Any, error: Type[ReproError], what: str) -> T:
    """The spec dataclass ``cls`` from a JSON object or TOML table.

    ``what`` names the table ("SLO policy path/to/policy.json"); a nested
    table is named by its key, and an entry of a list by its index too.  A
    table that is not a mapping, an unknown key and a missing required key
    raise ``error`` before any value is looked at; the values are then
    checked by ``cls``'s ``__post_init__``.  A list becomes a tuple and a
    table a spec dataclass, as the field's type says; nothing else is
    converted.
    """
    if not isinstance(table, dict):
        raise error(f"{what} must be a table, got {table!r}")
    fields = _spec_fields(cls)
    unknown = sorted(map(str, set(table) - {item.key for item in fields}))
    if unknown:
        raise error(f"{what} has unknown keys: {', '.join(unknown)}")
    missing = [item.key for item in fields if item.required and item.key not in table]
    if missing:
        raise error(f"{what} is missing keys: {', '.join(missing)}")
    values = {}
    for item in fields:
        if item.key not in table:
            continue
        value = table[item.key]
        named = f"{what} {item.key!r}"
        if item.table_spec is not None and isinstance(value, dict):
            value = spec_from_table(item.table_spec, value, error, named)
        elif item.many and isinstance(value, list):
            value = tuple(
                entry
                if item.entry_spec is None
                else spec_from_table(item.entry_spec, entry, error, f"{named}[{index}]")
                for index, entry in enumerate(value)
            )
        values[item.name] = value
    return cls(**values)


def spec_to_table(spec: Any) -> Dict[str, Any]:
    """The table :func:`spec_from_table` reads ``spec`` back from: one key
    per field, a tuple as a list, a nested spec as a table.  An empty tuple
    is left out: it is the field's default."""
    table: Dict[str, Any] = {}
    for item in _spec_fields(type(spec)):
        value = getattr(spec, item.name)
        if value != ():
            table[item.key] = _table_value(value)
    return table


def _table_value(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return spec_to_table(value)
    if isinstance(value, tuple):
        return [_table_value(entry) for entry in value]
    return value


class JsonlLog(Generic[T]):
    """Append-only event collection with canonical JSONL export.

    A subclass names its event class (``sort_key()``, ``to_json()`` and
    ``from_dict()``) and the noun for one line.
    """

    event_type: ClassVar[type]
    what: ClassVar[str]

    def __init__(self) -> None:
        self._events: List[T] = []

    def emit(self, event: T) -> None:
        self._events.append(event)

    def extend(self, events: Iterable[T]) -> None:
        self._events.extend(events)

    def events(self) -> List[T]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[T]:
        return iter(self._events)

    def canonical_sort(self) -> None:
        """Order events by their canonical key, dropping arrival order."""
        self._events.sort(key=self.event_type.sort_key)

    def to_jsonl(self) -> str:
        return "".join(event.to_json() + "\n" for event in self._events)

    def save_jsonl(self, path: PathLike) -> Path:
        return write_text(path, self.to_jsonl())

    @classmethod
    def load_jsonl(cls, path: PathLike) -> "JsonlLog[T]":
        log = cls()
        log.extend(read_jsonl(path, cls.event_type.from_dict, cls.what))
        return log
