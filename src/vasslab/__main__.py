"""`python -m vasslab`: the command-line interface of `vasslab.driver`."""

import sys

from .driver import main

sys.exit(main())
