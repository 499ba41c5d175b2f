"""Start-up probe: import qtwoparty's CLI, build its parser, print the monotonic clock.

Usage: python3 perfbench/setup_probe.py SRC_DIR

``run.py`` subtracts the time it started this process, which gives the
set-up cost a user pays before the CLI can run: interpreter start, the
imports of numpy and qtwoparty, and the argument parser.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

from qtwoparty import cli  # noqa: E402

cli.build_parser()
print(repr(time.monotonic()))
