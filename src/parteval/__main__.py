"""``python -m parteval``: the command line of parteval.engine."""

import sys

from .engine import main

if __name__ == "__main__":
    sys.exit(main())
