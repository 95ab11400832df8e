"""``python -m endosurv``: the command line without an installed script."""
import sys

from endosurv import cli

sys.exit(cli.main())
