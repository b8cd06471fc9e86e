"""Rewrite the golden CLI outputs of ``tests/test_golden.py`` and the
table, forest and ranking digests of ``tests/test_differential.py`` from
the current tree, after deleting the old files:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_differential import DIGESTS, digests  # noqa: E402
from test_golden import run_commands  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = run_commands(Path(workdir))
    for path in HERE.iterdir():
        if path.name != Path(__file__).name and path.is_file():
            path.unlink()
    for name, text in outputs.items():
        (HERE / name).write_bytes(text.encode("utf-8"))
    DIGESTS.write_bytes(digests().encode("utf-8"))
    print(f"wrote {len(outputs) + 1} files to {HERE}")


if __name__ == "__main__":
    main()
