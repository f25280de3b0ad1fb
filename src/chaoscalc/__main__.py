"""``python -m chaoscalc``: the ``chaoscalc`` command, also from a checkout without installing."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
