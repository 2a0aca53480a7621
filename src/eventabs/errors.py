"""The package's error family.

Every error the package raises on input it cannot use (a log, model, net,
config value or CSV) is an :class:`EventabsError`; each module's own base
exception derives from it. The command line ends a run that fails with one
of these, or with an ``OSError``, in a single ``Error:`` line. Any other
exception is a fault of the program and keeps its traceback.
"""

from __future__ import annotations

from pathlib import Path


class EventabsError(Exception):
    """Base of the errors raised on input the package cannot use."""


class InputError(EventabsError, ValueError):
    """An argument or configuration value that a public entry point
    refuses; also a ``ValueError``, so a caller catching that catches it."""


def read_text(path: str | Path, error: type[EventabsError] = InputError) -> str:
    """The UTF-8 text of the file at ``path``, with its line ends as
    stored. Raises ``error`` naming the file and the line of the first
    byte sequence that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text ({exc.reason})") from exc
