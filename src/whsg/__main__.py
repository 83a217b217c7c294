"""``python -m whsg``: the command-line front end (see whsg.cli)."""

import sys

from .cli import main

sys.exit(main())
