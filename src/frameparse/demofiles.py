"""Access to the shipped demo data files."""

from __future__ import annotations

from pathlib import Path


def demo_path(name: str) -> Path:
    """Filesystem path of a shipped demo file, one of those in ``data/``.

    The CLI accepts ``@demo/<name>`` in any path argument as shorthand
    for these.  The files sit next to this module, so the package must be
    installed or run from a directory, not imported from a zip archive.
    """
    data = Path(__file__).parent / "data"
    available = sorted(path.name for path in data.iterdir())
    if name not in available:
        raise FileNotFoundError(
            f"no demo file {name!r}; available: {', '.join(available)}")
    return data / name
