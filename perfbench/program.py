"""Locates the program under test: the `sapgnn` package in the checkout's `src/`.

The benchmark always imports the package from the checkout it sits in, never
an installed copy, so each run measures exactly the source beside it.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "sapgnn"


def ensure_importable() -> bool:
    """Put the checkout's `src/` first on the import path.

    Returns False, and changes nothing, when the checkout holds no program
    source (for example, a directory with only the benchmark's own files).
    """
    if not (PACKAGE / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def source_sha256() -> str:
    """Digest of every Python file in the package, so a result names its code
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
