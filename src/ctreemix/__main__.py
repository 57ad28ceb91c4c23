"""Run the command-line interface from a checkout: ``PYTHONPATH=src python -m ctreemix ...``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
