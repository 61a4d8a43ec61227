"""The one validation every ``engine=`` switch in the package shares."""

from __future__ import annotations


def check_engine(engine: str, choices: tuple[str, ...], what: str = "") -> str:
    """Return *engine* if it is one of *choices*, else raise ``ValueError``.

    *what* names the switch in the message (``"unknown DSE engine
    'x'; use one of (...)"``); empty gives ``"unknown engine ..."``.
    """
    if engine not in choices:
        kind = f"{what} engine" if what else "engine"
        raise ValueError(f"unknown {kind} {engine!r}; use one of {choices}")
    return engine
