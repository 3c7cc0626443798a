"""Re-record the golden corpus that ``tests/test_golden.py`` checks.

Run from the repository root:

    PYTHONPATH=src python tests/golden/record.py

It regenerates every group and overwrites ``tests/golden/<group>.json``.
Name each changed entry and its reason in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import test_golden  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        paths = test_golden.write_protocols(Path(workdir))
        for group, generate in test_golden.GENERATORS.items():
            path = test_golden.GOLDEN / f"{group}.json"
            path.write_text(json.dumps(generate(paths), indent=1, sort_keys=True) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    main()
