"""`python -m motifbasis`: the command-line frontend, runnable from a
checkout without the installed entry point."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
