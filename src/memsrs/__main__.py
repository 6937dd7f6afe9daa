"""`python -m memsrs`: the command-line front end of `memsrs.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
