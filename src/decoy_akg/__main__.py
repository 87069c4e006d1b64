"""``python -m decoy_akg``: the ``decoy-akg`` command line, with its exit codes."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
