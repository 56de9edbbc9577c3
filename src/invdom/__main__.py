"""``python -m invdom``: the same command line as ``invdom``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
