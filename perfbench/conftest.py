"""Self-tests import the program from the checkout's src/, as the benchmark does."""

import program

if not program.ensure_importable():
    raise RuntimeError(f"no program source at {program.PACKAGE}")
