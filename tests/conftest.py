import os
from pathlib import Path

from hypothesis import settings

# pyproject's pythonpath reaches this process only; the tests that run the
# CLI in a child process find the package through PYTHONPATH
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")
