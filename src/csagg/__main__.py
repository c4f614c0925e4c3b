"""``python -m csagg``: the csagg command line without installing the package."""

import sys

from .cli import main

sys.exit(main())
