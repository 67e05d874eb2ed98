"""The ``repro`` stdlib-logging hierarchy used by the serve/router paths.

Library code calls :func:`get_logger` and logs at will; with no handler
configured the records vanish silently (the stdlib default for library
loggers, via a :class:`logging.NullHandler` on the root ``repro`` logger).
The CLI entry points call :func:`configure_logging` to attach a stdout
stream handler at the requested level — so ``repro-mtv serve --log-level
debug`` turns the whole service chatty while the test-suite stays quiet.
"""

from __future__ import annotations

import logging
import sys

__all__ = ["configure_logging", "get_logger"]

_ROOT = "repro"
_FORMAT = "%(asctime)s %(levelname)s %(name)s %(message)s"

logging.getLogger(_ROOT).addHandler(logging.NullHandler())


def get_logger(name: str) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.service.core``, ...)."""
    if not name.startswith(_ROOT):
        name = f"{_ROOT}.{name}"
    return logging.getLogger(name)


class _CliHandler(logging.StreamHandler):
    """Writes to ``target``, or else to ``sys.stdout`` as of each record.

    A long-lived service thread then never writes to a stdout that was
    swapped out and closed since logging was configured.
    """

    target = None
    stream = property(lambda self: sys.stdout if self.target is None else self.target)

    def __init__(self) -> None:
        logging.Handler.__init__(self)


def configure_logging(level: str = "info", stream=None) -> logging.Logger:
    """Attach a stream handler to the ``repro`` logger (idempotent).

    Repeated calls reuse/retarget the one handler instead of stacking
    duplicates, so tests can call this freely.
    """
    root = logging.getLogger(_ROOT)
    numeric = getattr(logging, level.upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level: {level!r}")
    handler = next((h for h in root.handlers if isinstance(h, _CliHandler)), None)
    if handler is None:
        handler = _CliHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
    handler.target = stream
    root.setLevel(numeric)
    return root
