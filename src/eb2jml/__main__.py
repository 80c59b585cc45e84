"""``python -m eb2jml``: the ``eb2jml`` command line, runnable from a
checkout with ``PYTHONPATH=src`` and no install."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
