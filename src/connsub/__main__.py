"""``python -m connsub``: the command-line interface of ``connsub.cli``."""

import sys

from .cli import main

sys.exit(main())
