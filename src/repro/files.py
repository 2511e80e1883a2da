"""The one seam between the library and its text artefacts.

Everything outside :mod:`repro.store` writes a text artefact, reads a
line-oriented file or loads a JSON / TOML document through this module,
so the decisions are made once: files are UTF-8, a writer creates its
parent directory, and a reader fails only with a named
:mod:`repro.errors` type saying which file (and line) was at fault.  The
one exception is a missing JSONL file: it is opened when iteration starts
and stays the ``OSError`` the operating system raised (``main()`` prints
it, exit 2).  :class:`JsonlLog` is the append-only, canonically sortable
event log the monitor and the observer fleet both keep.  A new artefact
needs a ``to_json`` on its rows and a noun for messages.
"""

from __future__ import annotations

import json
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


class JsonlLog(Generic[T]):
    """Append-only event collection with canonical JSONL export.

    A subclass names its event class (``sort_key()``, ``to_json()``,
    ``from_dict()`` and a ``severity``) and the noun for one line.
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

    def counts_by_severity(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.severity] = counts.get(event.severity, 0) + 1
        return {k: counts[k] for k in sorted(counts)}

    def to_jsonl(self) -> str:
        return "".join(event.to_json() + "\n" for event in self._events)

    def save_jsonl(self, path: PathLike) -> Path:
        return write_text(path, self.to_jsonl())

    @classmethod
    def load_jsonl(cls, path: PathLike) -> "JsonlLog[T]":
        log = cls()
        log.extend(read_jsonl(path, cls.event_type.from_dict, cls.what))
        return log
