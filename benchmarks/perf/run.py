#!/usr/bin/env python3
"""Entry point of the repo's perf benchmark; see README.md beside it."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
